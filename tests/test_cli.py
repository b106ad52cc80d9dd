"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    default_flight_recorder,
    default_tracer,
    write_json_lines,
)


class TestStandards:
    def test_lists_catalog(self, capsys):
        assert main(["standards"]) == 0
        out = capsys.readouterr().out
        assert "CRC-32" in out
        assert "CRC-16/X-25" in out


class TestCrcCommand:
    def test_default_check_input(self, capsys):
        assert main(["crc"]) == 0
        assert "0xCBF43926" in capsys.readouterr().out

    def test_hex_payload(self, capsys):
        assert main(["crc", "--hex", "313233343536373839"]) == 0
        assert "0xCBF43926" in capsys.readouterr().out

    def test_text_payload(self, capsys):
        assert main(["crc", "--text", "123456789", "--standard", "CRC-16/XMODEM"]) == 0
        assert "0x31C3" in capsys.readouterr().out

    def test_file_payload(self, tmp_path, capsys):
        path = tmp_path / "payload.bin"
        path.write_bytes(b"123456789")
        assert main(["crc", "--file", str(path)]) == 0
        assert "0xCBF43926" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["bitwise", "table", "slicing", "gfmac", "derby"])
    def test_all_engines(self, engine, capsys):
        assert main(["crc", "--engine", engine]) == 0
        assert "0xCBF43926" in capsys.readouterr().out

    def test_verify_ok(self, capsys):
        assert main(["crc", "--verify", "0xCBF43926"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_mismatch_exit_code(self, capsys):
        assert main(["crc", "--verify", "0xDEADBEEF"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestMapCommand:
    def test_summary(self, capsys):
        assert main(["map", "--standard", "CRC-32", "-m", "16"]) == 0
        out = capsys.readouterr().out
        assert "M=16" in out
        assert "II=1" in out

    def test_placement_report(self, capsys):
        assert main(["map", "-m", "16", "--report"]) == 0
        out = capsys.readouterr().out
        assert "row  level  cells" in out
        assert "crc32_output_M16" in out

    def test_direct_method(self, capsys):
        assert main(["map", "-m", "16", "--method", "direct"]) == 0
        assert "direct" in capsys.readouterr().out


class TestExploreCommand:
    def test_sweep_with_infeasible(self, capsys):
        assert main(["explore", "--factors", "16", "256"]) == 0
        out = capsys.readouterr().out
        assert "16" in out
        assert "infeasible" in out


class TestAnalyzeCommand:
    def test_selected_standards(self, capsys):
        assert main(["analyze", "--standards", "CRC-32", "CRC-16/ARC"]) == 0
        out = capsys.readouterr().out
        assert "1+15" in out  # ARC factor structure
        assert "4294967295" in out  # CRC-32 period

    def test_default_set(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "CRC-24/OPENPGP" in out


class TestPerfCommand:
    def test_throughput_table(self, capsys):
        assert main(["perf", "--bits", "12144", "--factors", "32", "128"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out
        assert "12144" in out


@pytest.fixture
def snapshot_env(tmp_path, monkeypatch):
    """Point the telemetry snapshot and flight-recorder dump at temp files
    and restore the default tracer/recorder afterward (``--telemetry``
    leaves them enabled for the process)."""
    path = tmp_path / "telemetry.jsonl"
    monkeypatch.setenv("REPRO_TELEMETRY_PATH", str(path))
    monkeypatch.setenv("REPRO_FLIGHTREC_PATH", str(tmp_path / "flightrec.jsonl"))
    tracer = default_tracer()
    recorder = default_flight_recorder()
    was_enabled = tracer.enabled
    yield path
    tracer.clear()
    recorder.clear()
    if not was_enabled:
        tracer.disable()


class TestStatsCommand:
    def test_reads_snapshot_as_prometheus(self, snapshot_env, capsys):
        reg = MetricsRegistry()
        reg.counter("demo_total", "demo counter").inc(3)
        write_json_lines(reg, snapshot_env)
        assert main(["stats", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE demo_total counter" in out
        assert "demo_total 3" in out

    def test_reads_snapshot_as_json(self, snapshot_env, capsys):
        reg = MetricsRegistry()
        reg.gauge("demo_gauge").set(7)
        write_json_lines(reg, snapshot_env)
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert '"demo_gauge"' in out and '"value": 7.0' in out

    def test_empty_snapshot_prometheus_placeholder(self, snapshot_env, capsys):
        write_json_lines(MetricsRegistry(), snapshot_env)
        assert main(["stats", "--format", "prometheus"]) == 0
        assert "# (no metrics recorded)" in capsys.readouterr().out

    def test_explicit_input_path(self, tmp_path, capsys):
        reg = MetricsRegistry()
        reg.counter("explicit_total").inc()
        path = write_json_lines(reg, tmp_path / "snap.jsonl")
        assert main(["stats", "--input", str(path), "--format", "prometheus"]) == 0
        assert "explicit_total 1" in capsys.readouterr().out

    def _write_traced_snapshot(self, path):
        reg = MetricsRegistry()
        reg.counter("traced_total").inc(2)
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner", worker="7"):
                pass
        write_json_lines(reg, path, tracer=tracer)

    def test_jsonl_format_round_trips(self, snapshot_env, capsys):
        import json

        self._write_traced_snapshot(snapshot_env)
        assert main(["stats", "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["schema"].startswith("repro-telemetry/")
        assert any(r.get("name") == "traced_total" for r in records)

    def test_chrome_format_loads_as_trace_events(self, snapshot_env, capsys):
        import json

        self._write_traced_snapshot(snapshot_env)
        assert main(["stats", "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"outer", "inner"} <= names

    def test_spans_flag_prints_tree(self, snapshot_env, capsys):
        self._write_traced_snapshot(snapshot_env)
        assert main(["stats", "--spans"]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out


class TestDumpCommand:
    def _write_dump(self, path, n=3):
        from repro.telemetry import FlightRecorder

        rec = FlightRecorder()
        for i in range(n):
            rec.record("compile", f"built entry {i}", worker=str(i))
        rec.save(path)

    def test_reads_dump_as_text(self, snapshot_env, tmp_path, capsys):
        self._write_dump(tmp_path / "flightrec.jsonl")
        assert main(["dump"]) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "built entry 0" in out

    def test_json_format(self, snapshot_env, tmp_path, capsys):
        import json

        self._write_dump(tmp_path / "flightrec.jsonl")
        assert main(["dump", "--format", "json"]) == 0
        events = json.loads(capsys.readouterr().out)
        assert [e["kind"] for e in events] == ["compile"] * 3

    def test_limit_keeps_most_recent(self, snapshot_env, tmp_path, capsys):
        self._write_dump(tmp_path / "flightrec.jsonl", n=5)
        assert main(["dump", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "built entry 4" in out and "built entry 0" not in out

    def test_explicit_input_path(self, tmp_path, capsys):
        path = tmp_path / "elsewhere.jsonl"
        self._write_dump(path)
        assert main(["dump", "--input", str(path)]) == 0
        assert "built entry 2" in capsys.readouterr().out

    def test_no_dump_falls_back_to_live_recorder(self, snapshot_env, capsys):
        recorder = default_flight_recorder()
        recorder.clear()
        recorder.record("probe", "live event")
        assert main(["dump"]) == 0
        assert "live event" in capsys.readouterr().out


class TestTelemetryFlag:
    def test_crc_prints_span_tree_and_writes_snapshot(self, snapshot_env, capsys):
        assert main(["crc", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "0xCBF43926" in out
        assert "telemetry spans:" in out
        assert "cli.crc" in out
        assert snapshot_env.exists()

    def test_batch_bench_snapshot_feeds_stats(self, snapshot_env, capsys):
        assert main([
            "batch-bench", "--batch", "8", "--bytes", "8",
            "--baseline-sample", "4", "--repeats", "1", "--telemetry",
        ]) == 0
        capsys.readouterr()
        assert main(["stats", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "engine_compile_cache_lookups_total" in out
        assert "engine_batch_throughput_mbps_count" in out

    def test_run_writes_flight_recorder_dump(self, snapshot_env, tmp_path, capsys):
        from repro.engine.cache import default_cache

        default_cache().clear()  # force compile events into the recorder
        assert main([
            "batch-bench", "--batch", "8", "--bytes", "8",
            "--baseline-sample", "4", "--repeats", "1", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "flight-recorder dump written to" in out
        dump = tmp_path / "flightrec.jsonl"
        assert dump.exists()
        assert main(["dump", "--input", str(dump)]) == 0
        assert "compile" in capsys.readouterr().out


class TestFuzzCommand:
    def test_case_budget_run(self, capsys):
        assert main(["fuzz", "--cases", "20", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "20 cases" in out
        assert "OK (no mismatches)" in out

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "fuzz.json"
        assert main(["fuzz", "--cases", "10", "--json", str(path)]) == 0
        assert "report written" in capsys.readouterr().out
        from repro.verify import FuzzReport

        report = FuzzReport.load(str(path))
        assert report.ok
        assert report.cases == 10

    def test_seed_replay_matches(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fuzz", "--cases", "15", "--seed", "4", "--json", str(a)]) == 0
        assert main(["fuzz", "--cases", "15", "--seed", "4", "--json", str(b)]) == 0
        from repro.verify import FuzzReport

        ra, rb = FuzzReport.load(str(a)), FuzzReport.load(str(b))
        assert ra.pair_cases == rb.pair_cases
        assert ra.checks == rb.checks

    def test_seconds_budget_stops(self, capsys):
        assert main(["fuzz", "--seconds", "0.5", "--seed", "1"]) == 0
        assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["batch-bench", "--repeats", "0"],
    ["batch-bench", "--baseline-sample", "0"],
    ["batch-bench", "--batch", "0"],
    ["fuzz", "--cases", "0"],
    ["fuzz", "--max-failures", "0"],
    ["fuzz", "--seconds", "0"],
    ["fuzz", "--seconds", "-1.5"],
], ids=lambda argv: "_".join(arg.removeprefix("--") for arg in argv))
def test_counts_below_one_are_usage_errors(argv, capsys):
    """A zero count or a non-positive budget stops at parse time (exit 2)
    instead of crashing mid-run or reporting a run that checked nothing."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["batch-bench", "--bytes", "-1"],
    ["batch-bench", "-m", "0"],
    ["keystream", "--bytes", "0"],
    ["keystream", "--bytes", "-1"],
    ["map", "-m", "0"],
    ["serve", "-m", "0"],
    ["perf", "--factors", "0"],
    ["perf", "--bits", "0"],
    ["explore", "--factors", "0"],
], ids=lambda argv: "_".join(arg.removeprefix("--") for arg in argv))
def test_sizes_and_factors_out_of_range_are_usage_errors(argv, capsys):
    """A negative size, an empty keystream, a zero-bit message or a zero
    look-ahead factor stops at parse time (exit 2) instead of ending in a
    traceback or printing an empty or infeasible result."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["crc", "batch-bench", "fuzz"])
def test_backend_flag_is_a_usage_error(command):
    """Every single-vector GF(2) product runs on GF2Matrix: there is no
    kernel to pick."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--backend", "packed"])
    assert excinfo.value.code == 2


class TestKeystreamCommand:
    def test_word_source_with_verify(self, capsys):
        assert main(
            ["keystream", "--source", "word32", "--bytes", "32", "--verify"]
        ) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        hex_line = out.strip().splitlines()[-1]
        assert len(hex_line) == 64
        int(hex_line, 16)  # valid hex

    def test_deterministic_for_a_seed(self, capsys):
        assert main(["keystream", "--source", "word64", "--seed", "alpha"]) == 0
        first = capsys.readouterr().out
        assert main(["keystream", "--source", "word64", "--seed", "alpha"]) == 0
        assert capsys.readouterr().out == first
        assert main(["keystream", "--source", "word64", "--seed", "beta"]) == 0
        assert capsys.readouterr().out != first

    def test_galois_bitserial_source(self, capsys):
        assert main(
            ["keystream", "--source", "galois-bitserial", "--bytes", "16"]
        ) == 0
        hex_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(hex_line) == 32

    def test_default_source_is_word64(self, capsys):
        assert main(["keystream", "--seed", "repro"]) == 0
        default = capsys.readouterr().out
        assert main(["keystream", "--seed", "repro", "--source", "word64"]) == 0
        assert capsys.readouterr().out == default

    def test_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "keystream.json"
        assert main(
            ["keystream", "--source", "word64", "--bytes", "24",
             "--json", str(path)]
        ) == 0
        import json

        record = json.loads(path.read_text())
        assert record["source"] == "word64"
        assert record["bytes"] == 24
        assert len(record["hex"]) == 48
        assert set(record) == {"source", "bytes", "hex"}
