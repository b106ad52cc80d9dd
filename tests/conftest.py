"""Shared test fixtures: canned host profiles, a fake clock, and
deterministic parallel-engine scaffolding.

The planner's cost tables are plain data, so tests never need to time
anything: ``host_profiles`` provides a stable menu of synthetic hosts
(the BENCH_5 1-CPU container, a 16-core server, a slow-spawn pool,
...) and ``fake_clock`` replaces ``time.perf_counter`` wherever a
probe or threshold check would otherwise be timing-flaky.  The
``lagged_pipeline`` factory builds the hand-imbalanced sharded pipeline
the scheduler-stealing tests exercise, and ``crashing_worker`` supplies
the deterministic failing shard function for crash-containment tests.
"""

import pytest

from repro.engine.planner import HostProfile


class FakeClock:
    """Deterministic ``time.perf_counter`` stand-in.

    Every read returns the current time and then advances it by ``step``
    — so any code that brackets work with two reads observes exactly one
    step of "elapsed" time, independent of host load.  ``advance``
    injects extra elapsed time between reads for tests that model slow
    operations.
    """

    def __init__(self, start: float = 0.0, step: float = 0.001):
        self.now = start
        self.step = step
        self.reads = 0

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        self.reads += 1
        return t

    def advance(self, dt: float) -> None:
        """Inject ``dt`` seconds of elapsed time before the next read."""
        self.now += dt


@pytest.fixture
def fake_clock():
    """A fresh deterministic clock (1 ms per read)."""
    return FakeClock()


def make_host_profiles():
    """The canned synthetic host menu (plain dict, importable directly).

    Each entry is a :class:`~repro.engine.planner.HostProfile` shaped to
    force one corner of the plan space; tests assert decisions against
    them without timing anything.
    """
    return {
        # The BENCH_5 container: one CPU, fast packed kernels.  Parallel
        # can never pay here — the planner must return serial.
        "bench5-1cpu": HostProfile.synthetic(cpus=1, fingerprint="bench5-1cpu"),
        # A small laptop: two cores, ordinary pool costs.
        "laptop-2cpu": HostProfile.synthetic(cpus=2, fingerprint="laptop-2cpu"),
        # A desktop: four cores, cheap threads.
        "desktop-4cpu": HostProfile.synthetic(
            cpus=4,
            fingerprint="desktop-4cpu",
            thread_spawn_s=1e-4,
            thread_dispatch_s=2e-5,
        ),
        # A big server: sixteen cores, very cheap pool machinery.
        "server-16cpu": HostProfile.synthetic(
            cpus=16,
            fingerprint="server-16cpu",
            thread_spawn_s=5e-5,
            thread_dispatch_s=5e-6,
        ),
        # Many cores but a pathologically slow pool: spawn and dispatch
        # dominate, so sharding only pays for very large workloads.
        "slow-spawn-8cpu": HostProfile.synthetic(
            cpus=8,
            fingerprint="slow-spawn-8cpu",
            thread_spawn_s=0.05,
            thread_dispatch_s=5e-3,
        ),
        # A GIL-bound host: only the pure-Python reference backend, whose
        # thread shards would run one at a time — it always plans serial.
        "gil-bound-4cpu": HostProfile(
            fingerprint="gil-bound-4cpu",
            cpus=4,
            backend_bits_per_s={"reference": 8.0e6},
            spawn_s=2e-4,
            dispatch_s=5e-5,
            recombine_s=2e-5,
            # Reference backend only, so the only keystream source this
            # host measured is the bit-serial register (partial table).
            keystream_bits_per_s={"galois-bitserial": 2.0e6},
            # The batch CRC gathers on numpy whatever the GF(2) backend.
            crc_batch_bits_per_s=1.6e9,
        ),
    }


@pytest.fixture(scope="session")
def host_profiles():
    """Canned synthetic host profiles, keyed by a descriptive name."""
    return make_host_profiles()


@pytest.fixture
def lagged_pipeline():
    """Factory: a 2-shard CRC pipeline with all load piled on one shard.

    Returns ``(pipe, streams)`` where ``streams`` maps ``"a"``/``"b"``/
    ``"c"`` to stream ids — ``a`` and ``b`` carry the given bit loads on
    the *same* shard (forced by hand-migration), ``c`` is an empty
    stream on the other shard.  ``pipe.shard_pending()`` is therefore
    maximally imbalanced on return, deterministically, with no sleeps or
    cross-thread races involved.
    """
    from repro.engine import CompileCache, ShardedCRCPipeline, ShardScheduler
    from repro.crc import get as get_crc

    pipes = []

    def build(heavy_bits=2000, light_bits=1564, steal_ratio=1.0):
        spec = get_crc("CRC-16/ARC")
        cache = CompileCache()
        sched = ShardScheduler(2, steal_ratio=steal_ratio)
        pipe = ShardedCRCPipeline(spec, 8, workers=2, cache=cache, scheduler=sched)
        a = pipe.open("a")
        b = pipe.open("b")
        pipe.feed_bits(a, [1] * heavy_bits, pump=False)
        pipe.feed_bits(b, [0] * 64, pump=False)
        c = pipe.open("c")  # lands on the lighter shard
        # Force every loaded stream onto a's shard so one shard holds
        # all pending bits and the other none.
        home_a = pipe._home[a]
        heavy_shard = pipe.shards[home_a]
        for sid in (b, c):
            if pipe._home[sid] != home_a:
                pipe.shards[pipe._home[sid]].migrate(sid, heavy_shard)
                pipe._home[sid] = home_a
        pipe.feed_bits(b, [1] * (light_bits - 64), pump=False)
        pipes.append(pipe)
        return pipe, {"a": a, "b": b, "c": c}

    yield build
    for pipe in pipes:
        pipe.close()


@pytest.fixture
def crashing_worker():
    """A deterministic failing shard function (with its error message)."""

    def boom(*args):
        raise RuntimeError("kaboom (injected shard crash)")

    return boom
