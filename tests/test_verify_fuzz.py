"""The differential fuzz harness: determinism, shrinking, reporting.

The battery itself is exercised in CI's fuzz-smoke job; here we pin the
harness mechanics — a fixed seed replays the identical case sequence, an
injected fault is caught and shrunk to a minimal reproducer, and reports
survive a JSON round-trip.
"""

import random
from itertools import accumulate

import pytest

from repro.engine import CompileCache
from repro.errors import ValidationError
from repro.telemetry import default_registry
from repro.verify import (
    CaseGenerator,
    Discrepancy,
    FuzzCase,
    FuzzReport,
    Mismatch,
    Oracle,
    default_oracles,
    run_fuzz,
    shrink,
)
from repro.lfsr.slicing import SLICE_DEPTH
from repro.verify.cases import KIND_CRC, KIND_SCRAMBLER, KINDS, MAX_BYTES


class TestCaseGeneration:
    def test_same_seed_same_cases(self):
        a = CaseGenerator(seed=42)
        b = CaseGenerator(seed=42)
        assert [a.draw() for _ in range(50)] == [b.draw() for _ in range(50)]

    def test_different_seeds_diverge(self):
        a = [CaseGenerator(seed=1).draw() for _ in range(20)]
        b = [CaseGenerator(seed=2).draw() for _ in range(20)]
        assert a != b

    def test_all_kinds_drawn(self):
        gen = CaseGenerator(seed=0)
        kinds = {gen.draw().kind for _ in range(100)}
        assert kinds == set(KINDS)

    def test_case_dict_round_trip(self):
        gen = CaseGenerator(seed=7)
        for _ in range(30):
            case = gen.draw()
            assert FuzzCase.from_dict(case.to_dict()) == case

    def test_malformed_case_record(self):
        with pytest.raises(ValidationError, match="malformed"):
            FuzzCase.from_dict({"kind": "crc"})  # missing required fields

    def test_chunk_plans_cover_payloads(self):
        gen = CaseGenerator(seed=3)
        for _ in range(50):
            case = gen.draw()
            if not case.chunks:
                continue
            for i, m in enumerate(case.messages):
                assert sum(case.chunk_plan(i)) == len(m) // 2

    def test_scrambler_cases_cross_a_keystream_block(self):
        """A share of scrambler payloads run past one keystream block, and
        no chunk cut lands on a block edge; other payloads stay short."""
        gen = CaseGenerator(seed=0)
        long_streams = 0
        for _ in range(200):
            case = gen.draw()
            for i, m in enumerate(case.messages):
                nbytes = len(m) // 2
                if case.kind != KIND_SCRAMBLER:
                    assert nbytes <= MAX_BYTES
                    continue
                long_streams += nbytes > SLICE_DEPTH
                cuts = list(accumulate(case.chunk_plan(i)))[:-1]
                assert all(cut % SLICE_DEPTH for cut in cuts), cuts
        assert long_streams >= 20


class _FaultInjector(Oracle):
    """Test-only oracle: 'fails' whenever the case carries >= `threshold`
    total payload bytes, so the minimal reproducer is known a priori."""

    name = "test:fault-injector"
    kinds = KINDS

    def __init__(self, threshold=8):
        self.threshold = threshold
        self.calls = 0

    def check(self, case, cache):
        self.calls += 1
        total = sum(len(m) // 2 for m in case.messages)
        if total >= self.threshold:
            return Discrepancy(
                detail=f"{total} bytes", expected="<small>", got=f"{total}"
            )
        return None


class TestShrinking:
    def test_shrinker_converges_to_threshold(self):
        oracle = _FaultInjector(threshold=8)
        cache = CompileCache()
        gen = CaseGenerator(seed=0)
        case = gen.draw()
        while oracle.check(case, cache) is None:
            case = gen.draw()
        minimal, probes = shrink(
            case, lambda c: oracle.check(c, cache) is not None
        )
        total = sum(len(m) // 2 for m in minimal.messages)
        # Locally minimal: exactly at the failure threshold, single stream,
        # no leftover schedule complexity.
        assert total == 8
        assert minimal.batch == 1
        assert minimal.seeds == ()
        assert minimal.aborts == ()
        assert probes > 0

    def test_multi_chunk_failure_shrinks(self):
        """A failure that needs keystream carried across chunks (some chunk
        of stream 0 starts after byte 0 and ends past byte 256, the shape of
        a dropped-carry failure) keeps its chunk plan while the payloads
        shrink, so the default probe budget cuts it to the minimum."""
        rng = random.Random(0)

        def plan(nbytes):
            sizes = []
            while nbytes > 0:
                sizes.append(min(nbytes, rng.randint(1, 9)))
                nbytes -= sizes[-1]
            return tuple(sizes)

        sizes = (3 * SLICE_DEPTH, 2 * SLICE_DEPTH + 40)
        messages = tuple(bytes(rng.randrange(256) for _ in range(n)).hex() for n in sizes)
        case = FuzzCase(
            kind=KIND_SCRAMBLER, spec="DVB", M=8, method="", seeds=(1, 2),
            messages=messages, chunks=tuple(plan(n) for n in sizes), aborts=(),
        )

        def carries_past_a_block(c):
            start = 0
            for size in c.chunk_plan(0):
                if start > 0 and start + size > SLICE_DEPTH:
                    return True
                start += size
            return False

        assert carries_past_a_block(case)
        minimal, _ = shrink(case, carries_past_a_block)
        # Locally minimal: one stream of 257 bytes in two chunks.
        assert carries_past_a_block(minimal)
        assert minimal.batch == 1
        assert len(minimal.messages[0]) // 2 == SLICE_DEPTH + 1
        assert len(minimal.chunk_plan(0)) == 2

    @pytest.mark.parametrize("seed", range(3))
    def test_long_multi_chunk_failure_reaches_two_chunks(self, seed):
        """A dropped-carry failure (stream 0 holds more than one block in
        at least two chunks) shrinks from 757 bytes in 155 chunks to one
        block + 1 byte in two chunks within the default probe budget:
        tails are cut in ever smaller steps, and a chunk merge costs one
        probe."""
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, 757), 154))
        plan = tuple(b - a for a, b in zip([0, *cuts], [*cuts, 757]))
        case = FuzzCase(
            kind=KIND_SCRAMBLER, spec="DVB", M=8, method="", seeds=(1, 2),
            messages=(rng.randbytes(757).hex(), rng.randbytes(90).hex()),
            chunks=(plan, (40, 50)), aborts=(),
        )

        def dropped_carry(c):
            return len(c.messages[0]) // 2 > SLICE_DEPTH and len(c.chunk_plan(0)) >= 2

        minimal, probes = shrink(case, dropped_carry)
        assert len(minimal.messages[0]) // 2 == SLICE_DEPTH + 1
        assert len(minimal.chunk_plan(0)) == 2
        assert minimal.batch == 1
        assert probes < 400

    def test_probe_budget_bounds_work(self):
        oracle = _FaultInjector(threshold=1)
        cache = CompileCache()
        case = CaseGenerator(seed=5).draw()
        _, probes = shrink(
            case, lambda c: oracle.check(c, cache) is not None, max_probes=3
        )
        assert probes <= 3

    def test_crashing_candidate_does_not_hijack(self):
        case = CaseGenerator(seed=1).draw()

        def predicate(c):
            if c is not case and c.batch < case.batch:
                raise RuntimeError("engine blew up on the variant")
            return c is case

        minimal, _ = shrink(case, predicate, max_probes=50)
        assert minimal == case  # crashes treated as not-failing


class TestRunFuzz:
    def test_clean_run_is_deterministic(self):
        a = run_fuzz(seed=11, max_cases=30)
        b = run_fuzz(seed=11, max_cases=30)
        assert a.ok and b.ok
        assert a.cases == b.cases == 30
        assert a.pair_cases == b.pair_cases
        assert a.checks == b.checks

    def test_exercises_at_least_four_pairs(self):
        report = run_fuzz(seed=0, max_cases=40)
        assert report.ok
        assert report.pairs_exercised >= 4

    def test_batch_oracle_reaches_the_gather(self, monkeypatch):
        """A case's few short payloads form groups below the gather floor;
        the batch oracle's own batches built from them gather."""
        from repro.crc.slicing import ByteSlicedCRC

        gathered = []
        gather = ByteSlicedCRC._gather_group
        monkeypatch.setattr(
            ByteSlicedCRC, "_gather_group",
            lambda self, group, *args: gathered.append(len(group)) or gather(self, group, *args),
        )
        batch = [o for o in default_oracles() if o.name == "crc:bitwise-vs-batch"]
        report = run_fuzz(seed=0, max_cases=30, oracles=batch)
        assert report.ok and report.pair_cases["crc:bitwise-vs-batch"] > 0
        assert gathered

    def test_injected_fault_is_caught_and_shrunk(self):
        oracle = _FaultInjector(threshold=8)
        report = run_fuzz(
            seed=0, max_cases=100, oracles=[oracle], max_failures=1
        )
        assert not report.ok
        assert len(report.mismatches) == 1
        m = report.mismatches[0]
        assert m.oracle == "test:fault-injector"
        shrunk_total = sum(len(s) // 2 for s in m.shrunk.messages)
        case_total = sum(len(s) // 2 for s in m.case.messages)
        assert shrunk_total == 8 <= case_total
        assert m.probes > 0

    def test_max_failures_stops_early(self):
        oracle = _FaultInjector(threshold=0)  # every case fails
        report = run_fuzz(
            seed=0, max_cases=100, oracles=[oracle],
            max_failures=2, shrink_failures=False,
        )
        assert len(report.mismatches) == 2
        assert report.cases < 100

    def test_telemetry_counters_advance(self):
        registry = default_registry()
        pairs = [o.name for o in default_oracles()]

        def total():
            family = registry.get("verify_fuzz_cases_total")
            if family is None:
                return 0.0
            return sum(family.labels(pair=p).value for p in pairs)

        before = total()
        report = run_fuzz(seed=0, max_cases=10)
        assert total() - before == report.checks

    def test_battery_leaves_no_shard_threads(self):
        """The sharded oracles close every pool a check starts, so a
        battery kept alive between runs holds no worker thread."""
        import threading

        def shard_threads():
            return {t for t in threading.enumerate() if t.name.startswith("repro-shard")}

        before = shard_threads()
        battery = default_oracles()
        report = run_fuzz(seed=0, max_cases=100, oracles=battery)
        assert report.ok
        assert report.pair_cases["parallel:workers1-vs-workersN"] > 0
        assert report.pair_cases["planner:auto-vs-serial"] > 0
        assert shard_threads() - before == set()
        assert len(battery) == 12  # still referenced while the threads are counted

    def test_default_battery_names_are_unique(self):
        names = [o.name for o in default_oracles()]
        assert len(names) == len(set(names))
        assert len(names) == 12
        assert "parallel:workers1-vs-workersN" in names
        assert "planner:auto-vs-serial" in names
        assert "galois:fibonacci-vs-galois" in names
        assert "word:wordlfsr-vs-reference" in names


class TestReports:
    def _failing_report(self):
        oracle = _FaultInjector(threshold=4)
        return run_fuzz(
            seed=9, max_cases=50, oracles=[oracle], max_failures=1
        )

    def test_json_round_trip(self):
        report = self._failing_report()
        assert not report.ok
        back = FuzzReport.from_json(report.to_json())
        assert back.to_dict() == report.to_dict()
        assert back.mismatches[0].shrunk == report.mismatches[0].shrunk

    def test_save_and_load(self, tmp_path):
        report = run_fuzz(seed=3, max_cases=5)
        path = tmp_path / "report.json"
        report.save(str(path))
        assert FuzzReport.load(str(path)).to_dict() == report.to_dict()

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            FuzzReport.from_json("{nope")
        with pytest.raises(ValidationError, match="version"):
            FuzzReport.from_json('{"version": 99, "seed": 0}')
        with pytest.raises(ValidationError, match="malformed"):
            Mismatch.from_dict({"oracle": "x"})

    def test_summary_lines_name_failures(self):
        report = self._failing_report()
        text = "\n".join(report.summary_lines())
        assert "MISMATCH" in text
        assert "test:fault-injector" in text
        assert report.repro_command() in text

    def test_clean_summary(self):
        report = run_fuzz(seed=2, max_cases=5)
        assert "OK" in "\n".join(report.summary_lines())
