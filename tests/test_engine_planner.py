"""The execution planner: one rule over measured speedups.

Everything here but the real-probe checks runs without timing anything:
measurements come from the canned hosts in ``conftest.py`` (plus a few
built inline), the probes run against the deterministic fake clock, and
plan selection is asserted table-driven — profile in, expected decision
out.  The BENCH_5 regression class gets a named row: on a 1-CPU profile
the planner must return ``workers=1``/serial, by construction.
"""

from dataclasses import asdict

import pytest

from repro.engine.planner import (
    CRC_BATCH_ENGINE,
    CRC_PROBE_BATCH,
    CRC_PROBE_BYTES,
    ExecutionPlan,
    HostProfile,
    Planner,
    WorkloadDescriptor,
    _time_pair,
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
    """Table-driven: one row per measured host, decision fully pinned."""

    # (profile name, workload, expected strategy, expected workers)
    TABLE = [
        # The BENCH_5 container: 1 CPU -> parallel can never pay.  This
        # row is the regression the planner exists to eliminate.
        ("bench5-1cpu", _workload(), "serial", 1),
        ("laptop-2cpu", _workload(), "shard-batch", 2),
        ("desktop-4cpu", _workload(), "shard-batch", 4),
        ("server-16cpu", _workload(), "shard-batch", 16),
        # Many cores, but its sharded calls measured slower than serial.
        ("slow-spawn-8cpu", _workload(), "serial", 1),
        # A single long message has nothing to shard across.
        ("server-16cpu", _workload(message_bits=1_000_000, batch=1),
         "serial", 1),
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
        """The headline acceptance criterion: 1 CPU -> workers=1, even
        when its measured speedup would clear the threshold."""
        profile = HostProfile(cpus=1, speedup={"crc-batch": 50.0})
        for planner in (Planner(profile), Planner(host_profiles["bench5-1cpu"])):
            for workload in (
                _workload(),
                _workload(message_bits=1_000_000, batch=1),
                _workload(message_bits=65536, batch=4096),
            ):
                plan = planner.plan(workload)
                assert plan.is_serial
                assert (plan.strategy, plan.workers, plan.mode) == (
                    "serial", 1, "serial"
                )

    def test_parallel_needs_min_speedup_margin(self):
        """A measured 1.04x stays serial; 1.05x shards over every CPU."""
        for cpus in (2, 8):
            below = Planner(HostProfile(cpus=cpus, speedup={"crc-batch": 1.04}))
            assert below.plan(_workload()).is_serial
            at = Planner(HostProfile(cpus=cpus, speedup={"crc-batch": 1.05}))
            plan = at.plan(_workload())
            assert (plan.strategy, plan.workers, plan.mode) == (
                "shard-batch", cpus, "thread"
            )

    def test_tiny_workloads_stay_serial_everywhere(self, host_profiles):
        """Below the shard floor, or with one item to shard, every host
        plans serial; one shard per item caps the rest."""
        tiny = _workload(message_bits=8, batch=4)
        single = _workload(message_bits=1 << 20, batch=1)
        for name, profile in host_profiles.items():
            planner = Planner(profile=profile)
            assert planner.plan(tiny).is_serial, f"{name} sharded 32 bits"
            assert planner.plan(single).is_serial, f"{name} sharded one item"
        three = _workload(message_bits=1 << 16, batch=3)
        assert Planner(host_profiles["server-16cpu"]).plan(three).workers == 3
        floor = Planner(host_profiles["server-16cpu"], min_shard_bits=1)
        assert floor.plan(tiny).workers == 4

    def test_pinned_M_is_respected(self, host_profiles):
        planner = Planner(profile=host_profiles["server-16cpu"])
        assert planner.plan(_workload(M=16)).M == 16
        assert planner.plan(_workload()).M == 128

    def test_batch_backend_is_the_byte_sliced_gather(self, host_profiles):
        """Serial or sharded, a batch CRC plan runs one engine."""
        for profile in host_profiles.values():
            plan = Planner(profile=profile).plan(_workload())
            assert plan.backend == CRC_BATCH_ENGINE


class TestPlanCache:
    def test_in_memory_memo_returns_same_object(self, host_profiles):
        planner = Planner(profile=host_profiles["laptop-2cpu"])
        workload = _workload()
        assert planner.plan(workload) is planner.plan(workload)

    def test_plan_dict_round_trip(self, host_profiles):
        """The plan's dict form keeps every field."""
        plan = Planner(profile=host_profiles["server-16cpu"]).plan(_workload())
        record = asdict(plan)
        workload = WorkloadDescriptor(**record.pop("workload"))
        assert ExecutionPlan(workload=workload, **record) == plan


class TestHostProfilePersistence:
    def test_profile_round_trips(self, host_profiles):
        """A profile's dict form rebuilds it."""
        for profile in host_profiles.values():
            assert HostProfile(**asdict(profile)) == profile


class TestProbing:
    def test_probe_host_with_fake_clock_is_deterministic(self, fake_clock):
        a = probe_host(timer=fake_clock, reps=2)
        b = probe_host(timer=FakeClockLike(fake_clock), reps=2)
        assert a == b
        assert a.cpus >= 1
        assert set(a.speedup) == {"crc-batch"}
        assert a.crc_batch_bits_per_s > 0

    def test_speedup_is_the_median_ratio_with_dispatch(self):
        """Serial ÷ sharded per round, median over rounds: nothing is
        subtracted from the sharded time and nothing caps the ratio."""
        # An untimed warm-up pair, then (serial, sharded) rounds of
        # ratios 5, 2 and 10.
        durations = iter([9.0, 9.0, 1.0, 0.2, 0.8, 0.4, 1.0, 0.1])
        clock = ScriptedClock()
        speedup, serial_s = _time_pair(
            lambda: clock.spend(next(durations)),
            lambda: clock.spend(next(durations)),
            clock,
            rounds=3,
        )
        assert speedup == pytest.approx(5.0)
        assert serial_s == pytest.approx(0.8)

    def test_planning_one_crc_batch_probes_only_the_batch_crc(self, monkeypatch):
        """A fresh planner times only what its decision reads: one batch
        CRC probe, once, whatever else it plans of that kind."""
        import repro.engine.planner as planner_mod
        from repro.telemetry import MetricsRegistry, set_default_registry

        monkeypatch.setattr(planner_mod, "_usable_cpus", lambda: 2)
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            planner = Planner()
            planner.plan(_workload(M=128))
            planner.plan(_workload(message_bits=4096, batch=512))
        finally:
            set_default_registry(previous)
        probes = registry.snapshot()["engine_planner_probes_total"]["samples"]
        assert probes == [{"labels": {"kind": "crc-batch"}, "value": 1.0}]
        assert set(planner.profile.speedup) == {"crc-batch"}

    def test_probe_rejects_bad_reps(self):
        with pytest.raises(ValidationError, match="reps"):
            probe_host(reps=0)

    def test_real_probe_yields_usable_profile(self):
        profile = probe_host(reps=1)
        assert all(s > 0 for s in profile.speedup.values())
        plan = Planner(profile=profile).plan(_workload())
        assert plan.workers in (1, min(profile.cpus, 1024))
        assert plan.is_serial == (
            profile.cpus < 2 or profile.speedup["crc-batch"] < 1.05
        )


class FakeClockLike:
    """A fresh clock with the same cadence as an existing fake clock."""

    def __init__(self, other):
        self._now = 0.0
        self._step = other.step

    def __call__(self):
        t = self._now
        self._now += self._step
        return t


class ScriptedClock:
    """A clock that only moves when a timed call spends time on it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


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
            HostProfile(cpus=0)
        with pytest.raises(ValidationError, match="crc-batch"):
            HostProfile(cpus=2, speedup={"crc-batch": 0.0})
        with pytest.raises(ValidationError, match="dispatch"):
            HostProfile(cpus=2, dispatch_s=-1e-6)

    def test_planner_validation(self, host_profiles):
        with pytest.raises(ValidationError, match="min_shard_bits"):
            Planner(profile=host_profiles["bench5-1cpu"], min_shard_bits=0)


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


class TestBatchCRCPricing:
    """``crc-batch`` reads the batch CRC probe, which times the engine
    itself."""

    SHAPE = dict(message_bits=2048, batch=1024, M=128)  # batch-crc-auto

    def test_serial_time_is_the_batch_engine_rate(self, fake_clock):
        """The profile's batch CRC rate is the probe batch's bits over the
        best timed serial call (one fake-clock step)."""
        profile = probe_host(timer=fake_clock, reps=2)
        bits = 8 * CRC_PROBE_BYTES * CRC_PROBE_BATCH
        assert profile.crc_batch_bits_per_s == pytest.approx(bits / fake_clock.step)

    def test_measured_shard_loss_plans_serial(self):
        """Two vCPUs whose threads delivered half the serial throughput:
        the batch CRC stays serial."""
        planner = Planner(profile=HostProfile(cpus=2, speedup={"crc-batch": 0.5}))
        crc = planner.plan(_workload(**self.SHAPE))
        assert (crc.strategy, crc.workers) == ("serial", 1)

    def test_probe_measures_rate_and_gain(self, fake_clock):
        profile = probe_host(timer=fake_clock, reps=2)
        assert profile.crc_batch_bits_per_s > 0 and profile.dispatch_s > 0
        assert profile.speedup["crc-batch"] == pytest.approx(1.0)  # equal steps
        again = probe_host(timer=FakeClockLike(fake_clock), reps=2)
        assert again.crc_batch_bits_per_s == profile.crc_batch_bits_per_s
        assert again.speedup == profile.speedup

    def test_profile_without_batch_crc_rate_raises(self):
        bare = HostProfile(cpus=2)
        with pytest.raises(ValidationError, match="crc-batch"):
            Planner(bare).plan(_workload())
        # One CPU never reads a measurement, so it plans without one.
        assert Planner(HostProfile(cpus=1)).plan(_workload()).is_serial

    def test_rates_are_validated_and_round_trip(self):
        with pytest.raises(ValidationError, match="crc-batch"):
            HostProfile(cpus=2, speedup={"crc-batch": -0.5})
        with pytest.raises(ValidationError, match="batch CRC rate"):
            HostProfile(cpus=2, crc_batch_bits_per_s=-1.0)
        profile = HostProfile(
            cpus=2, speedup={"crc-batch": 0.6},
            crc_batch_bits_per_s=7e8, dispatch_s=4e-5,
        )
        assert HostProfile(**asdict(profile)) == profile
