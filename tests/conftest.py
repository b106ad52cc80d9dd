"""Shared test fixtures: canned host profiles, a fake clock, and
deterministic parallel-engine scaffolding.

The planner decides from measurements held as plain data, so tests never
need to time anything: ``host_profiles`` provides a stable menu of
measured hosts (the BENCH_5 1-CPU container, a 16-core server, a pool
that measured slower than serial, ...) and ``fake_clock`` replaces
``time.perf_counter`` wherever a probe or threshold check would
otherwise be timing-flaky.  ``crashing_worker`` supplies the
deterministic failing shard function for crash-containment tests.
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


def _measured(cpus, crc):
    """A host whose batch CRC shards measured ``crc`` times serial."""
    return HostProfile(cpus=cpus, speedup={"crc-batch": crc})


def make_host_profiles():
    """The canned measured host menu (plain dict, importable directly).

    Each entry is a :class:`~repro.engine.planner.HostProfile` shaped to
    force one corner of the plan space; tests assert decisions against
    them without timing anything.
    """
    return {
        # The BENCH_5 container: one CPU.  Parallel can never pay here —
        # the planner must return serial whatever was measured.
        "bench5-1cpu": _measured(1, crc=1.0),
        # A small laptop: two cores whose shards measured a modest gain.
        "laptop-2cpu": _measured(2, crc=1.6),
        # A desktop: four cores, cheap threads.
        "desktop-4cpu": _measured(4, crc=3.1),
        # A big server: sixteen cores, very cheap pool machinery.
        "server-16cpu": _measured(16, crc=11.0),
        # Many cores but a pathologically slow pool: its sharded calls
        # measured slower than serial, so it plans serial.
        "slow-spawn-8cpu": _measured(8, crc=0.6),
    }


@pytest.fixture(scope="session")
def host_profiles():
    """Canned measured host profiles, keyed by a descriptive name."""
    return make_host_profiles()


@pytest.fixture
def crashing_worker():
    """A deterministic failing shard function (with its error message)."""

    def boom(*args):
        raise RuntimeError("kaboom (injected shard crash)")

    return boom
