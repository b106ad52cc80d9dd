"""Unit tests for the bench-trajectory regression gate (tools/bench_diff.py)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_diff import (  # noqa: E402
    DEFAULT_THRESHOLD,
    TRAJECTORY_SCHEMA,
    diff_snapshots,
    find_snapshots,
    format_diff,
    load_snapshot,
    main,
)


def _snapshot(pr, kernels):
    return {"schema": TRAJECTORY_SCHEMA, "pr": pr, "kernels": kernels}


def _gated(metrics, params=None):
    params = dict(params or {})
    params.setdefault("gate_speedup", 1.0)
    return {"params": params, "metrics": metrics}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestDiffSnapshots:
    def test_regression_beyond_threshold_flagged(self):
        old = _snapshot(1, {"k": _gated({"speedup": 10.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 8.0})})  # -20%
        diff = diff_snapshots(old, new, threshold=0.10)
        assert [c["metric"] for c in diff["regressions"]] == ["speedup"]
        assert diff["regressions"][0]["change"] == pytest.approx(-0.2)

    def test_drop_within_threshold_passes(self):
        old = _snapshot(1, {"k": _gated({"speedup": 10.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 9.5})})  # -5%
        diff = diff_snapshots(old, new, threshold=0.10)
        assert diff["regressions"] == []
        assert diff["comparisons"][0]["regressed"] is False

    def test_improvement_never_regresses(self):
        old = _snapshot(1, {"k": _gated({"speedup": 2.0, "prediction_accuracy": 0.5})})
        new = _snapshot(2, {"k": _gated({"speedup": 9.0, "prediction_accuracy": 0.9})})
        diff = diff_snapshots(old, new)
        assert diff["regressions"] == []
        assert len(diff["comparisons"]) == 2

    def test_ungated_kernel_skipped_with_reason(self):
        old = _snapshot(1, {"free": {"params": {}, "metrics": {"speedup": 10.0}}})
        new = _snapshot(2, {"free": {"params": {}, "metrics": {"speedup": 1.0}}})
        diff = diff_snapshots(old, new)
        assert diff["comparisons"] == []
        (skip,) = diff["skipped"]
        assert skip["kernel"] == "free" and "gate" in skip["reason"]

    def test_machine_dependent_metrics_skipped(self):
        old = _snapshot(1, {"k": _gated({"speedup": 2.0, "rate_mbps": 900.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 2.0, "rate_mbps": 100.0})})
        diff = diff_snapshots(old, new)
        assert [c["metric"] for c in diff["comparisons"]] == ["speedup"]
        reasons = {s.get("metric"): s["reason"] for s in diff["skipped"]}
        assert "not a ratio" in reasons["rate_mbps"]

    def test_gate_floor_values_not_compared(self):
        # gate_min_speedup is the opt-in floor itself, not a measurement.
        old = _snapshot(1, {"k": _gated({"gate_min_speedup": 2.0, "speedup": 3.0})})
        new = _snapshot(2, {"k": _gated({"gate_min_speedup": 1.0, "speedup": 3.0})})
        diff = diff_snapshots(old, new)
        assert [c["metric"] for c in diff["comparisons"]] == ["speedup"]

    def test_kernel_on_one_side_only_skipped(self):
        old = _snapshot(1, {"gone": _gated({"speedup": 2.0})})
        new = _snapshot(2, {"fresh": _gated({"speedup": 2.0})})
        diff = diff_snapshots(old, new)
        sides = {s["kernel"]: s["side"] for s in diff["skipped"]}
        assert sides == {"gone": "old", "fresh": "new"}

    def test_non_positive_baseline_skipped(self):
        old = _snapshot(1, {"k": _gated({"speedup": 0.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 5.0})})
        diff = diff_snapshots(old, new)
        assert diff["comparisons"] == []
        assert "non-positive baseline" in diff["skipped"][0]["reason"]

    def test_format_diff_mentions_every_skip(self):
        old = _snapshot(1, {"k": _gated({"speedup": 4.0, "rate_mbps": 1.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 2.0, "rate_mbps": 1.0})})
        text = format_diff(diff_snapshots(old, new))
        assert "REGRESSED" in text and "rate_mbps" in text


class TestSnapshotDiscovery:
    def test_find_snapshots_numeric_order(self, tmp_path):
        for n in (10, 2, 7):
            _write(tmp_path, f"BENCH_{n}.json", _snapshot(n, {}))
        _write(tmp_path, "not_a_snapshot.json", {})
        names = [p.name for p in find_snapshots(tmp_path)]
        assert names == ["BENCH_2.json", "BENCH_7.json", "BENCH_10.json"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = _write(tmp_path, "BENCH_1.json", {"schema": "other/1"})
        with pytest.raises(ValueError, match="unsupported trajectory schema"):
            load_snapshot(path)


class TestMain:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        _write(tmp_path, "BENCH_1.json", _snapshot(1, {"k": _gated({"speedup": 2.0})}))
        _write(tmp_path, "BENCH_2.json", _snapshot(2, {"k": _gated({"speedup": 2.1})}))
        assert main(["--root", str(tmp_path)]) == 0
        assert "BENCH_1.json -> BENCH_2.json" in capsys.readouterr().out

    def test_exit_one_on_regression_and_writes_artifact(self, tmp_path, capsys):
        _write(tmp_path, "BENCH_1.json", _snapshot(1, {"k": _gated({"speedup": 4.0})}))
        _write(tmp_path, "BENCH_2.json", _snapshot(2, {"k": _gated({"speedup": 1.0})}))
        out = tmp_path / "diff.json"
        assert main(["--root", str(tmp_path), "--output", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench-diff/1"
        assert len(doc["regressions"]) == 1

    def test_fewer_than_two_snapshots_is_not_a_failure(self, tmp_path, capsys):
        _write(tmp_path, "BENCH_1.json", _snapshot(1, {}))
        assert main(["--root", str(tmp_path)]) == 0
        assert "nothing to gate" in capsys.readouterr().out

    def test_explicit_pair(self, tmp_path):
        a = _write(tmp_path, "BENCH_3.json", _snapshot(3, {"k": _gated({"speedup": 2.0})}))
        b = _write(tmp_path, "BENCH_4.json", _snapshot(4, {"k": _gated({"speedup": 1.0})}))
        assert main([str(a), str(b)]) == 1
        assert main([str(b), str(a)]) == 0  # reversed: an improvement

    def test_wrong_arity_is_usage_error(self, tmp_path, capsys):
        assert main(["one.json"]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_unreadable_snapshot_is_load_error(self, tmp_path, capsys):
        bad = _write(tmp_path, "BENCH_1.json", {"schema": "nope"})
        ok = _write(tmp_path, "BENCH_2.json", _snapshot(2, {}))
        assert main([str(bad), str(ok)]) == 2
        assert "cannot load snapshots" in capsys.readouterr().err

    def test_custom_threshold(self, tmp_path):
        a = _write(tmp_path, "BENCH_1.json", _snapshot(1, {"k": _gated({"speedup": 10.0})}))
        b = _write(tmp_path, "BENCH_2.json", _snapshot(2, {"k": _gated({"speedup": 8.5})}))
        assert main([str(a), str(b)]) == 1  # -15% vs default 10%
        assert main([str(a), str(b), "--threshold", "0.2"]) == 0

    def test_default_threshold_constant(self):
        assert DEFAULT_THRESHOLD == pytest.approx(0.10)

    def test_committed_trajectory_passes_gate(self, capsys):
        """The repo's own committed BENCH_<n>.json history must be clean."""
        root = Path(__file__).resolve().parent.parent
        if len(find_snapshots(root)) < 2:
            pytest.skip("fewer than two committed trajectory snapshots")
        assert main(["--root", str(root)]) == 0


class TestCoverageChanges:
    def test_gated_metric_missing_from_new_is_recorded(self):
        old = _snapshot(1, {"k": _gated({"speedup": 4.0, "accuracy_old_accuracy": 1.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 4.0})})
        diff = diff_snapshots(old, new)
        assert diff["regressions"] == []
        (gone,) = [s for s in diff["skipped"] if s.get("metric") == "accuracy_old_accuracy"]
        assert gone["side"] == "old" and "only in the old" in gone["reason"]
        assert "accuracy_old_accuracy" in format_diff(diff)

    def test_gated_metric_new_in_new_is_recorded(self):
        old = _snapshot(1, {"k": _gated({"speedup": 4.0})})
        new = _snapshot(2, {"k": _gated({"speedup": 4.0, "fresh_speedup": 0.5})})
        diff = diff_snapshots(old, new)
        (fresh,) = [s for s in diff["skipped"] if s.get("metric") == "fresh_speedup"]
        assert fresh["side"] == "new"
        assert [c["metric"] for c in diff["comparisons"]] == ["speedup"]

    def test_retired_gated_kernel_lists_its_ratio_metrics(self):
        old = _snapshot(1, {
            "retired": _gated({"round_speedup": 0.9, "digest_accuracy": 1.0,
                               "rate_msgs_per_s": 5.0}),
            "plain": {"params": {}, "metrics": {"speedup": 1.0}},
        })
        new = _snapshot(2, {})
        diff = diff_snapshots(old, new)
        listed = {(s["kernel"], s.get("metric")): s["side"] for s in diff["skipped"]}
        assert listed == {
            ("retired", None): "old",
            ("retired", "digest_accuracy"): "old",
            ("retired", "round_speedup"): "old",
            ("plain", None): "old",
        }
        assert "retired.round_speedup" in format_diff(diff)

    def test_rebased_metric_is_skipped_with_its_reason(self):
        old = _snapshot(1, {"k": _gated({"speedup": 6.6, "other_speedup": 2.0})})
        new = _snapshot(2, {"k": _gated(
            {"speedup": 1.1, "other_speedup": 2.0},
            params={"rebased": {"speedup": "its denominator got 6x faster"}},
        )})
        diff = diff_snapshots(old, new)
        assert diff["regressions"] == []
        (skip,) = [s for s in diff["skipped"] if s.get("metric") == "speedup"]
        assert skip["rebased"] is True
        assert skip["reason"] == "re-based: its denominator got 6x faster"
        assert [c["metric"] for c in diff["comparisons"]] == ["other_speedup"]
        assert "re-based" in format_diff(diff)

    def test_rebase_applies_only_to_the_named_metric(self):
        old = _snapshot(1, {"k": _gated({"speedup": 6.0, "other_speedup": 2.0})})
        new = _snapshot(2, {"k": _gated(
            {"speedup": 1.0, "other_speedup": 1.0},
            params={"rebased": {"speedup": "redefined"}},
        )})
        diff = diff_snapshots(old, new)
        assert [c["metric"] for c in diff["regressions"]] == ["other_speedup"]

    def test_kernel_with_an_unchanged_stamp_is_carried_not_compared(self):
        old = _snapshot(1, {"k": dict(_gated({"speedup": 4.0}), created_unix=100.0)})
        new = _snapshot(2, {"k": dict(_gated({"speedup": 4.0}), created_unix=100.0)})
        diff = diff_snapshots(old, new)
        assert diff["comparisons"] == []
        (skip,) = diff["skipped"]
        assert skip["kernel"] == "k" and skip["carried"] is True
        assert "carried forward" in format_diff(diff)

    @pytest.mark.parametrize("old_stamp, new_stamp", [
        (100.0, 200.0),  # re-measured
        (None, 200.0),   # a snapshot folded before kernels carried a stamp
        (None, None),
    ])
    def test_kernel_with_a_new_or_missing_stamp_is_compared(self, old_stamp, new_stamp):
        old = _snapshot(1, {"k": dict(_gated({"speedup": 4.0}), created_unix=old_stamp)})
        new = _snapshot(2, {"k": dict(_gated({"speedup": 2.0}), created_unix=new_stamp)})
        diff = diff_snapshots(old, new)
        assert [c["metric"] for c in diff["regressions"]] == ["speedup"]
        assert not any(s.get("carried") for s in diff["skipped"])

    def test_rebase_in_old_snapshot_does_not_carry_over(self):
        old = _snapshot(1, {"k": _gated(
            {"speedup": 6.0}, params={"rebased": {"speedup": "redefined"}},
        )})
        new = _snapshot(2, {"k": _gated({"speedup": 1.0})})
        assert [c["metric"] for c in diff_snapshots(old, new)["regressions"]] == ["speedup"]
