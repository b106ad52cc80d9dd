#!/usr/bin/env python
"""Bench-trajectory regression gate: diff the two latest ``BENCH_<n>.json``.

The benchmark suite folds every ``benchmarks/results/*.json`` report into
a top-level ``BENCH_<n>.json`` snapshot per PR (see
``benchmarks/conftest.py``), so the repo accumulates a machine-readable
throughput trajectory.  This tool compares the two most recent snapshots
and **fails (exit 1) when any gated metric regressed by more than the
threshold** (default 10%), which lets CI catch a perf cliff the moment
the snapshot that introduces it is generated.

What counts as *gated*: a kernel opts its metrics into the gate by
carrying a ``gate_*`` key in its report ``params`` or ``metrics`` (e.g.
``gate_speedup`` on the GF(2) microbench, ``gate_min_b1024_vs_derby`` on the
batch engine).  Within a gated kernel only dimensionless ratio metrics —
names containing ``speedup`` or ending in ``_accuracy`` — are compared,
because absolute rates (msgs/s, Gbit/s, seconds) are machine-dependent:
CI runners differ run to run, but a *ratio* measured on one machine is
comparable to the same ratio measured on another.  Everything skipped is
listed in the diff artifact, so a shrinking gate surface is visible —
including a gated metric that one snapshot has and the other lacks, and
each ratio metric of a gated kernel that only one snapshot has.

Carried kernels: a snapshot folds every report under
``benchmarks/results/``, including those of modules that did not run
since the last one, and each kernel entry carries its report's
``created_unix``.  A kernel whose stamp is the same in both snapshots was
not re-measured: its values are identical, so the diff lists it under
``skipped`` as carried forward instead of comparing it.  A kernel whose
stamp changed, or that has none, is compared.

Re-basing: when a change redefines what a gated metric divides by, its
new value is not comparable with the old one.  The new report says so
with a ``rebased`` map in its ``params`` (metric name -> reason); the
diff then lists that metric under ``skipped`` with the reason instead of
comparing it.  The map belongs in the one snapshot that re-bases.

Usage::

    python tools/bench_diff.py                        # repo root, latest two
    python tools/bench_diff.py --threshold 0.2
    python tools/bench_diff.py --output bench-diff.json
    python tools/bench_diff.py BENCH_5.json BENCH_6.json   # explicit pair

Exit codes: 0 = no gated regression (including "fewer than two
snapshots", which is reported but cannot gate), 1 = regression found,
2 = usage/load error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Snapshot schema this tool understands.
TRAJECTORY_SCHEMA = "repro-bench-trajectory/1"

#: Default maximum tolerated relative drop in a gated metric.
DEFAULT_THRESHOLD = 0.10

_SNAPSHOT_RE = re.compile(r"BENCH_(\d+)\.json$")


def find_snapshots(root: Path) -> List[Path]:
    """``BENCH_<n>.json`` files under ``root``, ordered by index."""
    indexed: List[Tuple[int, Path]] = []
    for path in root.glob("BENCH_*.json"):
        match = _SNAPSHOT_RE.search(path.name)
        if match:
            indexed.append((int(match.group(1)), path))
    return [path for _, path in sorted(indexed)]


def load_snapshot(path: Path) -> dict:
    """Parse and schema-check one trajectory snapshot."""
    data = json.loads(path.read_text())
    if data.get("schema") != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path}: unsupported trajectory schema {data.get('schema')!r}"
        )
    return data


def _is_gated_kernel(kernel: dict) -> bool:
    """A kernel opts in by carrying any ``gate_*`` param or metric."""
    keys = list(kernel.get("params", {})) + list(kernel.get("metrics", {}))
    return any(k.startswith("gate_") for k in keys)


def _is_comparable_metric(name: str) -> bool:
    """Dimensionless ratio metrics survive a machine change; rates don't."""
    if name.startswith("gate_"):
        return False  # the floor itself, not a measurement
    return "speedup" in name or name.endswith("_accuracy")


def diff_snapshots(
    old: dict, new: dict, threshold: float = DEFAULT_THRESHOLD
) -> dict:
    """Structured comparison of two trajectory snapshots.

    Returns a diff document with one entry per metric compared, plus
    explicit ``skipped`` records for everything the gate did *not*
    check — kernels carried forward unmeasured, kernels without a gate
    opt-in, machine-dependent metrics, and kernels present on only one
    side — so silent coverage loss is impossible to miss in the artifact.
    """
    comparisons: List[dict] = []
    skipped: List[dict] = []
    for name in sorted(set(old.get("kernels", {})) | set(new.get("kernels", {}))):
        old_k = old.get("kernels", {}).get(name)
        new_k = new.get("kernels", {}).get(name)
        if old_k is None or new_k is None:
            side = "new" if old_k is None else "old"
            only = old_k or new_k
            skipped.append({
                "kernel": name,
                "reason": "only in one snapshot",
                "side": side,
            })
            # A retired (or brand-new) gated kernel names each ratio it
            # took out of (or brings into) the gate.
            if _is_gated_kernel(only):
                for metric in sorted(only.get("metrics", {})):
                    if _is_comparable_metric(metric):
                        skipped.append({
                            "kernel": name,
                            "metric": metric,
                            "reason": f"kernel only in the {side} snapshot",
                            "side": side,
                        })
            continue
        stamp = old_k.get("created_unix")
        if stamp is not None and stamp == new_k.get("created_unix"):
            skipped.append({
                "kernel": name,
                "reason": "carried forward: not re-measured since the old snapshot",
                "carried": True,
            })
            continue
        if not _is_gated_kernel(new_k):
            skipped.append({"kernel": name, "reason": "no gate_* opt-in"})
            continue
        old_m = old_k.get("metrics", {})
        new_m = new_k.get("metrics", {})
        rebased = new_k.get("params", {}).get("rebased", {})
        for metric in sorted(set(old_m) | set(new_m)):
            if not _is_comparable_metric(metric):
                skipped.append({
                    "kernel": name,
                    "metric": metric,
                    "reason": "machine-dependent (not a ratio)",
                })
                continue
            if metric in rebased:
                skipped.append({
                    "kernel": name,
                    "metric": metric,
                    "reason": f"re-based: {rebased[metric]}",
                    "rebased": True,
                })
                continue
            if metric not in old_m or metric not in new_m:
                side = "old" if metric in old_m else "new"
                skipped.append({
                    "kernel": name,
                    "metric": metric,
                    "reason": f"only in the {side} snapshot",
                    "side": side,
                })
                continue
            old_v = old_m[metric]
            new_v = new_m[metric]
            if not isinstance(old_v, (int, float)) or old_v <= 0:
                skipped.append({
                    "kernel": name,
                    "metric": metric,
                    "reason": f"non-positive baseline {old_v!r}",
                })
                continue
            change = (new_v - old_v) / old_v
            comparisons.append({
                "kernel": name,
                "metric": metric,
                "old": old_v,
                "new": new_v,
                "change": change,
                "regressed": change < -threshold,
            })
    return {
        "schema": "repro-bench-diff/1",
        "old_pr": old.get("pr"),
        "new_pr": new.get("pr"),
        "threshold": threshold,
        "comparisons": comparisons,
        "skipped": skipped,
        "regressions": [c for c in comparisons if c["regressed"]],
    }


def format_diff(diff: dict) -> str:
    """Human-readable summary of a diff document."""
    lines = [
        f"bench trajectory: PR {diff['old_pr']} -> PR {diff['new_pr']} "
        f"(gate: >{diff['threshold']:.0%} drop in any gated ratio)"
    ]
    for c in diff["comparisons"]:
        marker = "REGRESSED" if c["regressed"] else "ok"
        lines.append(
            f"  {c['kernel']}.{c['metric']}: {c['old']:.4g} -> {c['new']:.4g} "
            f"({c['change']:+.1%})  [{marker}]"
        )
    if not diff["comparisons"]:
        lines.append("  (no gated metrics shared between the two snapshots)")
    if diff["skipped"]:
        lines.append(f"  skipped {len(diff['skipped'])} item(s):")
        for s in diff["skipped"]:
            what = f"{s['kernel']}.{s['metric']}" if "metric" in s else s["kernel"]
            lines.append(f"    {what}: {s['reason']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; see the module docstring for semantics."""
    parser = argparse.ArgumentParser(
        description="diff the two latest BENCH_<n>.json trajectory snapshots"
    )
    parser.add_argument(
        "snapshots", nargs="*",
        help="explicit OLD NEW snapshot pair (default: the two "
        "highest-numbered BENCH_<n>.json under --root)",
    )
    parser.add_argument(
        "--root", default=".", help="directory holding BENCH_<n>.json files"
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="maximum tolerated relative drop (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the JSON diff artifact here",
    )
    args = parser.parse_args(argv)

    if args.snapshots and len(args.snapshots) != 2:
        print("expected exactly two explicit snapshots (OLD NEW)", file=sys.stderr)
        return 2
    if args.snapshots:
        paths = [Path(p) for p in args.snapshots]
    else:
        paths = find_snapshots(Path(args.root))[-2:]
    if len(paths) < 2:
        print(
            f"found {len(paths)} trajectory snapshot(s) under {args.root}; "
            "need two to diff — nothing to gate"
        )
        return 0
    try:
        old, new = load_snapshot(paths[0]), load_snapshot(paths[1])
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load snapshots: {exc}", file=sys.stderr)
        return 2

    diff = diff_snapshots(old, new, threshold=args.threshold)
    print(f"comparing {paths[0].name} -> {paths[1].name}")
    print(format_diff(diff))
    if args.output:
        Path(args.output).write_text(json.dumps(diff, indent=2, sort_keys=True) + "\n")
        print(f"diff artifact written to {args.output}")
    if diff["regressions"]:
        print(
            f"{len(diff['regressions'])} gated metric(s) regressed beyond "
            f"{args.threshold:.0%}", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
