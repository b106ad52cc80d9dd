"""What the benchmark under ``bench/`` reaches in ``src/``.

``bench/`` imports the library, patches names in it and builds its
engines; its own tests run apart from this suite.  These checks load
``bench/``'s modules the way its runner does and touch every name they
patch or build, so a change to ``src/`` that breaks the benchmark fails
here too.  They only read ``bench/``, and leave no patch, no bench
module and no process-wide planner behind.
"""

import sys
from pathlib import Path

import pytest

import repro.engine.planner as planner_mod

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``bench/`` importable for one test, its modules unloaded after it."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # build_batch plans on the process-wide planner: a fresh one here,
    # and whatever was there before back afterwards.
    monkeypatch.setattr(planner_mod, "_DEFAULT_PLANNER", None)
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if str(getattr(sys.modules[name], "__file__", None) or "").startswith(str(BENCH)):
            del sys.modules[name]


def test_span_hooks_install_and_uninstall(bench):
    import spans

    tracer = spans.Tracer()
    spans.install_engine(tracer)
    spans.install_server(tracer)
    spans.install_client(tracer)
    patched = list(tracer._undo)
    assert patched and tracer.active
    tracer.uninstall()
    assert not tracer.active
    for owner, attr, original, inherited in patched:
        if inherited:
            assert attr not in vars(owner), (owner, attr)
        else:
            assert getattr(owner, attr) == original, (owner, attr)


def test_server_hook_targets_exist(bench):
    """``spans.hook_server`` rebinds these for the life of a process, so
    it is not called here."""
    import spans
    import repro.serve.server as server_mod
    from repro.engine.microbatch import MicroBatcher

    assert callable(spans.hook_server)
    assert callable(server_mod.read_frame) and callable(server_mod.write_frame)
    assert callable(MicroBatcher.register)


def test_inproc_engines_build_and_check_their_digests(bench):
    """``build_stream`` and ``build_batch`` raise ``SystemExit`` when a
    digest disagrees with ``zlib.crc32``."""
    import inproc

    pipe, stream_config = inproc.build_stream(0)
    assert pipe.stream_count == 0 and stream_config["M"] == inproc.STREAM_M
    engine, batch_config = inproc.build_batch(0)
    try:
        assert batch_config["batch"] == inproc.BATCH
        assert engine.workers == batch_config["workers"]
    finally:
        engine.close()
