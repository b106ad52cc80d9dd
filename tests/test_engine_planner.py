"""The adaptive execution planner: decisions as pure functions of data.

Everything here runs without timing anything: cost tables come from the
canned synthetic hosts in ``conftest.py`` (plus a few built inline), the
probe pass runs against the deterministic fake clock, and plan selection
is asserted table-driven — profile in, expected decision out.  The
BENCH_5 regression class gets a named row: on a 1-CPU profile the
planner must return ``workers=1``/serial, by construction.
"""

import pytest

from repro.engine import CompileCache, DiskCompileCache
from repro.engine.planner import (
    CRC_BATCH_ENGINE,
    PLANNER_VERSION,
    PROFILE_KEY,
    ExecutionPlan,
    HostProfile,
    PlanCandidate,
    Planner,
    WorkloadDescriptor,
    get_profile,
    host_fingerprint,
    probe_host,
)
from repro.errors import ValidationError


def _workload(message_bits=2048, batch=1024, **kw):
    kw.setdefault("kind", "crc-batch")
    kw.setdefault("standard", "CRC-32")
    return WorkloadDescriptor(
        message_bits=message_bits, batch=batch, **kw
    )


class TestPlanSelection:
    """Table-driven: one row per synthetic host, decision fully pinned."""

    # (profile name, workload, expected strategy, expected workers)
    TABLE = [
        # The BENCH_5 container: 1 CPU -> parallel can never pay.  This
        # row is the regression the planner exists to eliminate.
        ("bench5-1cpu", _workload(), "serial", 1),
        ("laptop-2cpu", _workload(), "shard-batch", 2),
        ("desktop-4cpu", _workload(), "shard-batch", 4),
        ("server-16cpu", _workload(), "shard-batch", 16),
        # Many cores but a 50 ms pool spawn: overhead dominates a ~1.3 ms
        # compute, so the solver must refuse to shard.
        ("slow-spawn-8cpu", _workload(), "serial", 1),
        # GIL-holding reference backend on a big scrambler workload (the
        # kinds priced by backend rates): its thread shards would run one
        # at a time, so it plans serial.
        ("gil-bound-4cpu",
         _workload(message_bits=65536, kind="scrambler-batch"), "serial", 1),
        # Single long message on a big host: time-axis sharding with
        # x^k mod G recombination.
        ("server-16cpu", _workload(message_bits=1_000_000, batch=1),
         "shard-time", 4),
    ]

    @pytest.mark.parametrize("profile_name,workload,strategy,workers", TABLE)
    def test_decision_table(
        self, host_profiles, profile_name, workload, strategy, workers
    ):
        plan = Planner(profile=host_profiles[profile_name]).plan(workload)
        assert (plan.strategy, plan.workers) == (strategy, workers), (
            f"{profile_name}: expected {strategy} x{workers}, "
            f"got {plan.strategy} x{plan.workers}"
        )

    def test_bench5_profile_is_serial_by_construction(self, host_profiles):
        """The headline acceptance criterion: 1 CPU -> workers=1."""
        planner = Planner(profile=host_profiles["bench5-1cpu"])
        for workload in (
            _workload(),
            _workload(message_bits=1_000_000, batch=1),
            _workload(message_bits=65536, batch=4096),
        ):
            plan = planner.plan(workload)
            assert plan.is_serial
            assert plan.workers == 1
            assert plan.predicted_speedup == pytest.approx(1.0)

    def test_parallel_needs_min_speedup_margin(self, host_profiles):
        """A parallel candidate predicted barely faster still loses."""
        profile = host_profiles["laptop-2cpu"]
        plan = Planner(profile=profile, min_speedup=1.05).plan(_workload())
        assert plan.strategy == "shard-batch"
        # The same host under an extreme margin falls back to serial.
        strict = Planner(profile=profile, min_speedup=100.0).plan(_workload())
        assert strict.is_serial

    def test_tiny_workloads_stay_serial_everywhere(self, host_profiles):
        tiny = _workload(message_bits=8, batch=4)
        for name, profile in host_profiles.items():
            plan = Planner(profile=profile).plan(tiny)
            assert plan.is_serial, f"{name} sharded a 32-bit workload"

    def test_pinned_M_is_respected(self, host_profiles):
        plan = Planner(profile=host_profiles["server-16cpu"]).plan(
            _workload(M=16)
        )
        assert plan.M == 16

    def test_backend_choice_follows_rates(self, host_profiles):
        """Kinds priced by backend rates pick the fastest backend; the
        batch CRC runs on the byte-sliced gather whatever the rates."""
        scrambler = _workload(kind="scrambler-batch")
        plan = Planner(profile=host_profiles["desktop-4cpu"]).plan(scrambler)
        assert plan.backend == "packed"  # 2 Gbit/s vs 8 Mbit/s reference
        gil = Planner(profile=host_profiles["gil-bound-4cpu"]).plan(scrambler)
        assert gil.backend == "reference"  # the only one the host has
        for name in ("desktop-4cpu", "gil-bound-4cpu"):
            crc = Planner(profile=host_profiles[name]).plan(_workload())
            assert crc.backend == CRC_BATCH_ENGINE

    def test_gil_holding_backends_plan_serial(self, host_profiles):
        """Thread shards of the pure-Python backend would run one at a
        time, so no candidate shards it, however big the workload."""
        big = _workload(message_bits=65536, batch=4096, kind="scrambler-batch")
        for name in ("gil-bound-4cpu", "server-16cpu"):
            candidates = Planner(profile=host_profiles[name]).candidates(big)
            reference = [c for c in candidates if c.backend == "reference"]
            assert reference and all(c.workers == 1 for c in reference)
        plan = Planner(profile=host_profiles["gil-bound-4cpu"]).plan(big)
        assert (plan.strategy, plan.workers, plan.mode) == ("serial", 1, "serial")
        sharded = Planner(profile=host_profiles["server-16cpu"]).plan(big)
        assert (sharded.backend, sharded.mode) == ("packed", "thread")

    def test_candidates_are_sorted_and_deterministic(self, host_profiles):
        planner = Planner(profile=host_profiles["server-16cpu"])
        a = planner.candidates(_workload())
        b = planner.candidates(_workload())
        assert a == b
        assert all(
            x.predicted_s <= y.predicted_s for x, y in zip(a, a[1:])
        )
        assert any(c.workers == 1 for c in a)  # serial always explored


class TestMonotonicity:
    """More cores never produce a strictly slower predicted decision."""

    CPUS = (1, 2, 4, 8, 16, 32, 64)

    def test_predicted_time_non_increasing_in_cores(self):
        workload = _workload()
        times = [
            Planner(
                profile=HostProfile.synthetic(cpus=c, fingerprint=f"mono-{c}")
            ).plan(workload).predicted_s
            for c in self.CPUS
        ]
        for prev, cur in zip(times, times[1:]):
            assert cur <= prev + 1e-12, f"{times}"

    def test_predicted_speedup_non_decreasing_in_cores(self):
        workload = _workload(message_bits=65536, batch=512)
        speedups = [
            Planner(
                profile=HostProfile.synthetic(cpus=c, fingerprint=f"mono-{c}")
            ).plan(workload).predicted_speedup
            for c in self.CPUS
        ]
        for prev, cur in zip(speedups, speedups[1:]):
            assert cur >= prev - 1e-12, f"{speedups}"


class TestPlanCache:
    def test_plan_round_trips_through_disk(self, tmp_path, host_profiles):
        profile = host_profiles["desktop-4cpu"]
        disk = DiskCompileCache(tmp_path)
        workload = _workload()
        first = Planner(profile=profile, disk=disk).plan(workload)
        assert disk.stats.stores >= 1
        # A fresh planner on the same host loads the persisted plan
        # instead of re-solving.
        reread = Planner(profile=profile, disk=disk).plan(workload)
        assert reread == first
        assert disk.stats.hits >= 1

    def test_in_memory_memo_returns_same_object(self, host_profiles):
        planner = Planner(profile=host_profiles["laptop-2cpu"])
        workload = _workload()
        assert planner.plan(workload) is planner.plan(workload)

    def test_stale_fingerprint_plan_is_ignored(self, tmp_path, host_profiles):
        disk = DiskCompileCache(tmp_path)
        workload = _workload()
        old = Planner(profile=host_profiles["bench5-1cpu"], disk=disk)
        old_plan = old.plan(workload)
        # Same workload on a different host: the persisted plan's key
        # embeds the fingerprint, so the new host solves fresh.
        new = Planner(profile=host_profiles["server-16cpu"], disk=disk)
        new_plan = new.plan(workload)
        assert new_plan.fingerprint != old_plan.fingerprint
        assert new_plan.workers != old_plan.workers

    def test_plan_dict_round_trip(self, host_profiles):
        plan = Planner(profile=host_profiles["server-16cpu"]).plan(_workload())
        back = ExecutionPlan.from_dict(plan.to_dict())
        assert back == plan

    def test_malformed_plan_record_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            ExecutionPlan.from_dict({"version": PLANNER_VERSION})
        with pytest.raises(ValidationError, match="version"):
            ExecutionPlan.from_dict({"version": 99})


class TestHostProfilePersistence:
    def test_profile_round_trips(self, host_profiles):
        for profile in host_profiles.values():
            assert HostProfile.from_dict(profile.to_dict()) == profile

    def test_get_profile_stores_and_reloads(self, tmp_path):
        disk = DiskCompileCache(tmp_path)
        probed = []

        def prober():
            probed.append(True)
            return HostProfile.synthetic(
                cpus=2, fingerprint=host_fingerprint()
            )

        first = get_profile(disk=disk, prober=prober)
        assert len(probed) == 1
        # Second call: fingerprint matches, no re-probe.
        second = get_profile(disk=disk, prober=prober)
        assert len(probed) == 1
        assert second == first

    def test_fingerprint_mismatch_triggers_reprobe(self, tmp_path):
        disk = DiskCompileCache(tmp_path)
        # Seed the cache with a profile from "another machine".
        stale = HostProfile.synthetic(cpus=64, fingerprint="other-host")
        disk.store(PROFILE_KEY, stale.to_dict())
        probed = []

        def prober():
            probed.append(True)
            return HostProfile.synthetic(
                cpus=1, fingerprint=host_fingerprint()
            )

        profile = get_profile(disk=disk, prober=prober)
        assert probed  # mismatch forced a fresh probe
        assert profile.fingerprint == host_fingerprint()
        # The fresh result replaced the stale entry.
        found, data = disk.load(PROFILE_KEY)
        assert found and data["fingerprint"] == host_fingerprint()

    def test_refresh_forces_reprobe(self, tmp_path):
        disk = DiskCompileCache(tmp_path)
        calls = []

        def prober():
            calls.append(True)
            return HostProfile.synthetic(
                cpus=1, fingerprint=host_fingerprint()
            )

        get_profile(disk=disk, prober=prober)
        get_profile(disk=disk, prober=prober, refresh=True)
        assert len(calls) == 2

    def test_corrupt_profile_record_degrades_to_reprobe(self, tmp_path):
        disk = DiskCompileCache(tmp_path)
        disk.store(PROFILE_KEY, {"not": "a profile"})
        profile = get_profile(
            disk=disk,
            prober=lambda: HostProfile.synthetic(
                cpus=1, fingerprint=host_fingerprint()
            ),
        )
        assert profile.cpus == 1


class TestProbing:
    def test_probe_host_with_fake_clock_is_deterministic(self, fake_clock):
        a = probe_host(backends=("packed",), timer=fake_clock, reps=2)
        b = probe_host(
            backends=("packed",), timer=FakeClockLike(fake_clock), reps=2
        )
        assert a.backend_bits_per_s == b.backend_bits_per_s
        assert set(a.backend_bits_per_s) == {"packed"}
        assert a.cpus >= 1
        assert a.fingerprint == host_fingerprint()
        assert all(v > 0 for v in a.backend_bits_per_s.values())

    def test_one_slow_spawn_reading_keeps_the_batch_plan_sharded(
        self, fake_clock, monkeypatch
    ):
        """The thread spawn cost is the best of the probe's pool starts: a
        first start delayed to 15 ms must not price a backend-priced batch
        of the batch-crc-auto shape (1024 x 256 B at M = 128) out of
        sharding on 2 CPUs.  The CRC batch of that shape is priced by the
        batch CRC probe instead, and plans serial on these hosts."""
        import dataclasses

        import repro.engine.parallel as parallel_mod

        fake_clock.step = 1e-5
        real_pool = parallel_mod.WorkerPool
        starts = []

        class SlowFirstStart(real_pool):
            def __init__(self, *args, **kwargs):
                if not starts:
                    fake_clock.advance(0.015)
                starts.append(True)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "WorkerPool", SlowFirstStart)
        profile = probe_host(backends=("packed",), timer=fake_clock, reps=3)
        assert len(starts) == 3
        assert profile.spawn_s < 1e-3
        plan = Planner(profile=dataclasses.replace(profile, cpus=2)).plan(
            _workload(message_bits=2048, batch=1024, M=128, kind="scrambler-batch")
        )
        assert (plan.strategy, plan.workers) == ("shard-batch", 2)

    def test_probe_rejects_bad_reps(self):
        with pytest.raises(ValidationError, match="reps"):
            probe_host(backends=("packed",), reps=0)

    def test_real_probe_yields_usable_profile(self):
        profile = probe_host(backends=("packed",))
        plan = Planner(profile=profile).plan(_workload())
        assert plan.predicted_s > 0
        assert plan.serial_s > 0


class FakeClockLike:
    """A fresh clock with the same cadence as an existing fake clock."""

    def __init__(self, other):
        self._now = 0.0
        self._step = other.step

    def __call__(self):
        t = self._now
        self._now += self._step
        return t


class TestValidation:
    def test_workload_validation(self):
        with pytest.raises(ValidationError, match="kind"):
            _workload(kind="warp-drive")
        with pytest.raises(ValidationError, match="message_bits"):
            _workload(message_bits=-1)
        with pytest.raises(ValidationError):
            _workload(batch=0)
        with pytest.raises(ValidationError, match="M"):
            _workload(M=0)

    def test_profile_validation(self):
        with pytest.raises(ValidationError, match="cpu"):
            HostProfile.synthetic(cpus=0)
        with pytest.raises(ValidationError, match="rate"):
            HostProfile(
                fingerprint="x", cpus=1,
                backend_bits_per_s={"packed": -1.0},
            )
        with pytest.raises(ValidationError, match="backend rate"):
            HostProfile(fingerprint="x", cpus=1, backend_bits_per_s={})

    def test_planner_validation(self, host_profiles):
        with pytest.raises(ValidationError, match="min_speedup"):
            Planner(profile=host_profiles["bench5-1cpu"], min_speedup=0.5)
        with pytest.raises(ValidationError, match="M candidate"):
            Planner(profile=host_profiles["bench5-1cpu"], m_candidates=())

    def test_record_actual_validation(self, host_profiles):
        planner = Planner(profile=host_profiles["bench5-1cpu"])
        plan = planner.plan(_workload())
        with pytest.raises(ValidationError, match="actual_s"):
            planner.record_actual(plan, 0.0)
        ratio = planner.record_actual(plan, plan.predicted_s)
        assert ratio == pytest.approx(1.0)


class TestEngineWiring:
    def test_plan_flows_into_parallel_engine(self, host_profiles):
        from repro.crc import BitwiseCRC, get as get_crc
        from repro.engine import ParallelBatchCRC

        spec = get_crc("CRC-32")
        plan = Planner(profile=host_profiles["desktop-4cpu"]).plan(
            _workload(M=32)
        )
        assert plan.workers == 4
        with ParallelBatchCRC(spec, 32, plan=plan, min_shard_bits=1) as engine:
            assert engine.workers == plan.workers
            assert engine.plan is plan
            msgs = [bytes([i] * 40) for i in range(8)]
            ref = BitwiseCRC(spec)
            assert engine.compute_batch(msgs) == [ref.compute(m) for m in msgs]

    def test_explicit_arguments_beat_the_plan(self, host_profiles):
        from repro.crc import get as get_crc
        from repro.engine import ParallelBatchCRC

        plan = Planner(profile=host_profiles["server-16cpu"]).plan(_workload())
        assert plan.workers > 1
        engine = ParallelBatchCRC(get_crc("CRC-32"), 32, workers=1, plan=plan)
        assert engine.workers == 1  # caller's explicit choice wins

    def test_dream_system_auto_uses_injected_planner(self, host_profiles):
        from repro.crc import get as get_crc
        from repro.dream.system import DreamSystem

        system = DreamSystem(cache=CompileCache())
        planner = Planner(profile=host_profiles["bench5-1cpu"])
        engine = system.batch_crc(get_crc("CRC-32"), auto=True, planner=planner)
        assert engine.workers == 1
        assert engine.plan.strategy == "serial"
        assert engine.M == engine.plan.M
        pipe = system.crc_pipeline(get_crc("CRC-32"), auto=True, planner=planner)
        assert pipe.workers == 1

    def test_dream_system_requires_m_or_plan(self):
        from repro.crc import get as get_crc
        from repro.dream.system import DreamSystem

        with pytest.raises(ValueError, match="M="):
            DreamSystem(cache=CompileCache()).batch_crc(get_crc("CRC-32"))


class TestTelemetry:
    def test_plan_decisions_are_counted_and_traced(self, host_profiles):
        from repro.telemetry import default_registry, default_tracer

        registry, tracer = default_registry(), default_tracer()
        reg_was, tr_was = registry.enabled, tracer.enabled
        registry.enable()
        tracer.enable()
        try:
            planner = Planner(profile=host_profiles["bench5-1cpu"])
            planner.plan(_workload(message_bits=4096, batch=64))
            family = registry.get("engine_planner_plans_total")
            assert family is not None
            assert family.labels(strategy="serial").value >= 1
            def walk(spans):
                for sp in spans:
                    yield sp
                    yield from walk(sp.children)

            spans = [
                s for s in walk(tracer.roots()) if s.name == "planner.plan"
            ]
            assert spans
            assert spans[-1].attributes["strategy"] == "serial"
        finally:
            registry.set_enabled(reg_was)
            if not tr_was:
                tracer.disable()


class TestKeystreamWorkloads:
    """The v2 cost model: keystream rates + the `keystream` workload kind."""

    def _workload(self, message_bits=8 * (1 << 20)):
        from repro.engine.planner import KIND_KEYSTREAM

        return WorkloadDescriptor(
            kind=KIND_KEYSTREAM, standard="keystream", message_bits=message_bits
        )

    def test_synthetic_profile_carries_keystream_rates(self, host_profiles):
        from repro.engine.planner import KEYSTREAM_SOURCES

        for profile in host_profiles.values():
            # Every canned host measured at least one source (the
            # gil-bound host carries a partial, reference-only table).
            assert profile.keystream_bits_per_s
            assert set(profile.keystream_bits_per_s) <= set(KEYSTREAM_SOURCES)
            assert all(r > 0 for r in profile.keystream_bits_per_s.values())

    def test_partial_rate_table_still_plans(self, host_profiles):
        plan = Planner(host_profiles["gil-bound-4cpu"]).plan(self._workload())
        assert plan.backend == "galois-bitserial"

    def test_plan_picks_the_fastest_source(self, host_profiles):
        plan = Planner(host_profiles["bench5-1cpu"]).plan(self._workload())
        assert plan.strategy == "serial"
        assert plan.backend == "word64"  # fastest synthetic rate

    def test_plan_follows_the_cost_table(self):
        slow_word = HostProfile.synthetic(
            cpus=4,
            fingerprint="slow-word",
            keystream_bits_per_s={
                "galois-bitserial": 5.0e7,
                "word32": 1.0e6,
                "word64": 2.0e6,
            },
        )
        plan = Planner(slow_word).plan(self._workload())
        assert plan.backend == "galois-bitserial"

    def test_candidates_are_sorted_and_serial_only(self, host_profiles):
        cands = Planner(host_profiles["server-16cpu"]).candidates(
            self._workload()
        )
        assert len(cands) == 3
        assert all(c.strategy == "serial" and c.workers == 1 for c in cands)
        predictions = [c.predicted_s for c in cands]
        assert predictions == sorted(predictions)

    def test_profile_without_rates_raises(self):
        bare = HostProfile.synthetic(cpus=2, fingerprint="bare")
        object.__setattr__(bare, "keystream_bits_per_s", {})
        with pytest.raises(ValidationError, match="keystream rates"):
            Planner(bare).plan(self._workload())

    def test_profile_round_trip_keeps_rates(self, host_profiles):
        profile = host_profiles["laptop-2cpu"]
        back = HostProfile.from_dict(profile.to_dict())
        assert back.keystream_bits_per_s == profile.keystream_bits_per_s

    def test_version_1_profile_is_rejected(self, host_profiles):
        record = host_profiles["laptop-2cpu"].to_dict()
        record["version"] = PLANNER_VERSION - 1
        with pytest.raises(ValidationError):
            HostProfile.from_dict(record)


class TestBatchCRCPricing:
    """The v4 cost model: ``crc-batch`` priced from the probed batch CRC
    engine (serial rate and two-shard gain), not from backend rates."""

    SHAPE = dict(message_bits=2048, batch=1024, M=128)  # batch-crc-auto

    def test_serial_time_is_the_batch_engine_rate(self):
        profile = HostProfile.synthetic(
            cpus=1, fingerprint="fast-packed", packed_bits_per_s=1e12,
            crc_batch_bits_per_s=1e9,
        )
        plan = Planner(profile=profile).plan(_workload(**self.SHAPE))
        assert plan.backend == CRC_BATCH_ENGINE
        assert plan.serial_s == pytest.approx(2048 * 1024 / 1e9)

    def test_crc_stream_is_priced_from_the_batch_engine(self):
        """The pipeline runs the byte table and the gather, so a stream
        plan follows the batch CRC rate, not a tiny packed rate."""
        profile = HostProfile.synthetic(
            cpus=2, fingerprint="slow-packed", packed_bits_per_s=1e3,
            crc_batch_bits_per_s=1e9, crc_shard_gain=0.5,
        )
        planner = Planner(profile=profile)
        workload = _workload(kind="crc-stream", message_bits=2048, batch=1, streams=8)
        plan = planner.plan(workload)
        assert plan.backend == CRC_BATCH_ENGINE
        assert plan.M == max(planner._m_candidates)
        assert plan.serial_s == pytest.approx(2048 * 8 / 1e9)
        assert plan.strategy == "serial"  # the probed gain says threads lose

    def test_one_candidate_per_worker_count(self, host_profiles):
        """No backend or M axis: the gather costs the same at every M."""
        planner = Planner(profile=host_profiles["server-16cpu"])
        cands = planner.candidates(_workload())
        assert {c.backend for c in cands} == {CRC_BATCH_ENGINE}
        assert {c.M for c in cands} == {max(planner._m_candidates)}
        assert len({c.workers for c in cands}) == len(cands)
        pinned = planner.candidates(_workload(M=16))
        assert {c.M for c in pinned} == {16}

    def test_measured_shard_loss_plans_serial(self):
        """Two vCPUs whose threads delivered half the serial throughput:
        the batch CRC stays serial, a backend-priced batch still shards."""
        profile = HostProfile.synthetic(
            cpus=2, fingerprint="two-vcpu", crc_shard_gain=0.5
        )
        planner = Planner(profile=profile)
        crc = planner.plan(_workload(**self.SHAPE))
        assert (crc.strategy, crc.workers) == ("serial", 1)
        sharded = [c for c in planner.candidates(crc.workload) if c.workers > 1]
        assert sharded and all(c.predicted_s > crc.predicted_s for c in sharded)
        scrambler = planner.plan(_workload(kind="scrambler-batch", **self.SHAPE))
        assert (scrambler.strategy, scrambler.workers) == ("shard-batch", 2)

    def test_probe_measures_rate_and_gain(self, fake_clock):
        profile = probe_host(backends=("packed",), timer=fake_clock, reps=2)
        assert profile.crc_batch_bits_per_s > 0
        assert 0 < profile.crc_shard_gain <= 2.0
        again = probe_host(backends=("packed",), timer=FakeClockLike(fake_clock), reps=2)
        assert again.crc_batch_bits_per_s == profile.crc_batch_bits_per_s
        assert again.crc_shard_gain == profile.crc_shard_gain

    def test_profile_without_batch_crc_rate_raises(self):
        bare = HostProfile(
            fingerprint="bare", cpus=2, backend_bits_per_s={"packed": 2e9}
        )
        with pytest.raises(ValidationError, match="batch CRC rate"):
            Planner(bare).plan(_workload())
        assert Planner(bare).plan(_workload(kind="scrambler-batch")).backend == "packed"

    def test_rates_are_validated_and_round_trip(self, host_profiles):
        with pytest.raises(ValidationError, match="shard gain"):
            HostProfile.synthetic(cpus=2, crc_shard_gain=0.0)
        with pytest.raises(ValidationError, match="batch CRC rate"):
            HostProfile.synthetic(cpus=2, crc_batch_bits_per_s=-1.0)
        profile = HostProfile.synthetic(
            cpus=2, fingerprint="rt", crc_batch_bits_per_s=7e8, crc_shard_gain=0.6
        )
        assert HostProfile.from_dict(profile.to_dict()) == profile
        assert PLANNER_VERSION == 5
