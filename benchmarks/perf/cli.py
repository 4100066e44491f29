"""Command line of the benchmark.

Two ways in, one measuring code path:

* the driver's form — ``--workload W --seed N --seconds S --trace 0|1``
  — measures one workload in this process and prints one JSON result
  object as the last line of standard output;
* without ``--seconds`` it runs the whole set, each run in its own
  subprocess through the driver's form, and prints every metric by
  name with unit, direction and regression bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Sequence

from . import harness, yardstick
from .layers import PER_LAYER
from .stats import spread_share

ROOT = os.path.dirname(os.path.dirname(harness.BENCH_DIR))
ENTRY = os.path.join(harness.BENCH_DIR, "__main__.py")

#: Smoke profile: window of the untraced run, and of the traced run
#: (two of its four one-second slices are traced).
SMOKE_SECONDS = 3
SMOKE_TRACED_SECONDS = 4


def contract() -> dict:
    """``BENCHMARK.json``: workloads, metric names, bounds, run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long, here")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: 1 reports the per-layer metrics")
    parser.add_argument("--document", action="store_true",
                        help="with --seconds: print the run's full document "
                        "as the last line, not the four-key result")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1: write the spans as JSON lines")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows: checks the wiring")
    parser.add_argument("--traced", action="store_true",
                        help="also run each workload traced and print its "
                        "per-layer metrics and budget")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, each with the next seed; "
                        "medians and quartile spreads are reported")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice, in opposite workload order, "
                        "and fail if any metric disagrees beyond its bound")
    parser.add_argument("--out", metavar="FILE",
                        help="write everything measured as JSON")
    args = parser.parse_args(argv)

    if args.seconds is not None:
        return measure_here(args)
    return run_suite(args)


# ------------------------------------------------------- the driver's form


def measure_here(args: argparse.Namespace) -> int:
    if not args.workload or len(args.workload) != 1:
        print("--seconds needs exactly one --workload", file=sys.stderr)
        return 2
    if args.workload[0] not in harness.WORKLOADS:
        print(f"unknown workload {args.workload[0]!r}", file=sys.stderr)
        return 2
    document = harness.run(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.spans
    )
    harness.describe(document)
    if document.get("budget"):
        print_budget(document["budget"])
    line = document if args.document else harness.result_line(document)
    print(json.dumps(line))
    return 1 if document["anomalies"] or document["failed"] else 0


# ------------------------------------------------------------ the whole set


def spawn(workload: str, seed: int, seconds: float, trace: int,
          spans: str | None = None) -> dict:
    """One run in a subprocess of its own; returns its full document."""
    command = [
        sys.executable, ENTRY, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--document",
    ]
    if spans:
        command += ["--spans", spans]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} printed no result (exit {done.returncode}):\n"
            f"{done.stdout}\n{done.stderr}"
        )
    return json.loads(lines[-1])


def run_set(workloads: Sequence[str], seeds: Sequence[int], seconds: float,
            label: str) -> dict[str, list[dict]]:
    """Every workload once per seed, untraced; documents by workload."""
    documents: dict[str, list[dict]] = {name: [] for name in workloads}
    for seed in seeds:
        for name in workloads:
            print(f"[{label}] {name} seed {seed} ...", file=sys.stderr, flush=True)
            documents[name].append(spawn(name, seed, seconds, 0))
    return documents


def summarise(documents: Sequence[dict], metric: str) -> dict:
    values = [document["metrics"][metric][0] for document in documents]
    return {
        "median": statistics.median(values),
        "spread": spread_share(values),
        "values": values,
    }


def run_suite(args: argparse.Namespace) -> int:
    spec = contract()
    names = [entry["name"] for entry in spec["workloads"]]
    workloads = args.workload or names
    for name in workloads:
        if name not in names:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    traced_seconds = SMOKE_TRACED_SECONDS if args.smoke else spec["run_seconds"]
    seeds = [args.seed + offset for offset in range(args.runs)]
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}

    report: dict = {"meta": meta(args, seconds, traced_seconds), "sets": []}
    failed = False

    first = run_set(workloads, seeds, seconds, "set A")
    report["sets"].append(first)
    for name in workloads:
        failed |= print_end_to_end(name, first[name], bounds)

    if args.check_repeat:
        second = run_set(list(reversed(workloads)), seeds, seconds, "set B")
        report["sets"].append(second)
        for name in workloads:
            failed |= any(d["anomalies"] or d["failed"] for d in second[name])
        report["repeat"] = check_repeat(workloads, first, second, bounds)
        failed |= not all(row["agrees"] for row in report["repeat"])

    if args.traced:
        report["traced"] = {}
        for name in workloads:
            print(f"[traced] {name} ...", file=sys.stderr, flush=True)
            spans = None
            if args.out:
                spans = os.path.splitext(args.out)[0] + f".{name}.spans.jsonl"
            document = spawn(name, args.seed, traced_seconds, 1, spans)
            report["traced"][name] = document
            failed |= bool(document["anomalies"] or document["failed"])
            print_per_layer(name, document)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("FAILED" if failed else "ok")
    return 1 if failed else 0


def print_end_to_end(name: str, documents: Sequence[dict],
                     bounds: dict[str, dict]) -> bool:
    """One workload's end-to-end table; True when its gate failed."""
    first = documents[0]
    speeds = [document["host_speed"] for document in documents]
    print(
        f"\n== {name}: {len(documents)} run(s), window {first['seconds']} s, "
        f"{first['pairs']} pairs, {first['samples']['grant']} grant / "
        f"{first['samples']['settle']} settle samples in the first; host speed "
        f"{min(speeds):.2f}-{max(speeds):.2f} of the reference =="
    )
    print(f"{'metric':<16}{'median':>12} {'unit':<6}{'better':<8}"
          f"{'bound':>7}{'spread':>9}{'as measured':>14}")
    for metric, entry in bounds.items():
        summary = summarise(documents, metric)
        measured = [d["as_measured"].get(metric) for d in documents]
        shown = (
            f"{statistics.median(measured):>14.4f}" if None not in measured else ""
        )
        print(
            f"{metric:<16}{summary['median']:>12.4f} {entry['unit']:<6}"
            f"{entry['better']:<8}{entry['bound']:>7.0%}"
            f"{summary['spread']:>9.1%}{shown}"
        )
    attempted = sum(d["attempted"] for d in documents)
    failures = sum(d["failed"] for d in documents)
    anomalies = [a for d in documents for a in d["anomalies"]]
    print(f"{'failed_share':<16}{failures / max(1, attempted):>12.4f} "
          f"{'ratio':<6}{'lower':<8}{'0':>7}")
    print(f"{'anomalies':<16}{len(anomalies):>12d} {'count':<6}{'lower':<8}{'0':>7}")
    if not all(d["p95_supported"] for d in documents):
        print("fewer than ten samples beyond p95: p95 values are indicative only")
    for anomaly in anomalies:
        print(f"ANOMALY {anomaly}")
    return bool(failures or anomalies)


def check_repeat(workloads: Sequence[str], first: dict, second: dict,
                 bounds: dict[str, dict]) -> list[dict]:
    """Two sets of runs of the same code must agree within the bounds."""
    rows = []
    print("\n== repeat check: set A against set B ==")
    print(f"{'workload':<18}{'metric':<16}{'A':>11}{'B':>11}"
          f"{'diff':>8}{'bound':>7}{'spread A':>10}{'spread B':>10}")
    for name in workloads:
        for metric, entry in bounds.items():
            a, b = summarise(first[name], metric), summarise(second[name], metric)
            difference = abs(b["median"] - a["median"]) / a["median"]
            agrees = difference <= entry["bound"]
            if metric != "setup_s" and len(a["values"]) > 1:
                agrees &= max(a["spread"], b["spread"]) <= entry["bound"]
            rows.append({
                "workload": name, "metric": metric, "a": a, "b": b,
                "difference": difference, "bound": entry["bound"],
                "agrees": agrees,
            })
            print(
                f"{name:<18}{metric:<16}{a['median']:>11.4f}{b['median']:>11.4f}"
                f"{difference:>8.1%}{entry['bound']:>7.0%}"
                f"{a['spread']:>10.1%}{b['spread']:>10.1%}"
                f"{'' if agrees else '  DISAGREES'}"
            )
    return rows


def print_per_layer(name: str, document: dict) -> None:
    print(f"\n== {name}: per-layer metrics (traced run, seed {document['seed']}, "
          f"window {document['seconds']} s, alternate slices traced; host speed "
          f"{document['host_speed']:.2f}) ==")
    for metric, (value, unit) in document["metrics"].items():
        print(f"{metric:<44}{value:>14.4f} {unit:<6}{PER_LAYER[metric][1]}")
    print_budget(document["budget"])
    for anomaly in document["anomalies"]:
        print(f"ANOMALY {anomaly}")


def print_budget(budget: dict, out=None) -> None:
    out = out or sys.stdout
    if budget["stacked"]:
        print(f"# budget: self time per pair, stacked over {budget['pairs']} "
              f"traced pairs ({budget['left_out']} scatter pairs, whose legs "
              f"overlap, left out)", file=out)
    else:
        print(f"# budget: requests overlap, so busy time per pair per layer "
              f"({budget['pairs']} traced pairs); net.executor.parallelism = "
              f"{budget['parallelism']:.2f}", file=out)
    for row in budget["rows"]:
        note = "  (waiting, not in the sum)" if row["waiting"] else ""
        print(f"#   {row['layer']:<24}{row['ms_per_pair']:>9.3f} ms "
              f"{row['share']:>7.1%}{note}", file=out)
    print(f"#   {'residual (no layer)':<24}{budget['residual_ms']:>9.3f} ms "
          f"{budget['residual_share']:>7.1%}", file=out)
    print(f"#   {'rows + residual':<24}{budget['total_ms']:>9.3f} ms", file=out)
    if budget["stacked"]:
        p50 = budget["pair_ms_p50"]
        print(
            f"#   traced pair: mean {budget['pair_ms_mean']:.3f} ms, p50 "
            f"{p50:.3f} ms; rows + residual are "
            f"{budget['total_ms'] / budget['pair_ms_mean'] - 1:+.1%} from the "
            f"mean and {budget['total_ms'] / p50 - 1:+.1%} from the p50",
            file=out,
        )
    else:
        print(f"#   wall time per pair, amortised: "
              f"{budget['pair_ms_mean']:.3f} ms", file=out)


def meta(args: argparse.Namespace, seconds: float, traced_seconds: float) -> dict:
    """Where and how the numbers were taken."""
    from . import workloads

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "wal_dir": os.path.relpath(harness.WORK_DIR, ROOT),
        "wal_fs_type": fs_type(harness.BENCH_DIR),
        "fsync": "issued by the program with fsync=True, counted by the "
                 "benchmark, not forwarded to the device",
        "seed": args.seed,
        "runs": args.runs,
        "knobs": {
            "window_seconds": seconds,
            "traced_window_seconds": traced_seconds,
            "warmup_seconds": harness.warmup_seconds(seconds),
            "slice_seconds": harness.SLICE_SECONDS,
            "yardstick_reference_seconds": yardstick.REFERENCE_SECONDS,
            "setups_per_run": [harness.SETUPS_MIN, harness.SETUPS_MAX],
            "setup_seconds": harness.SETUP_SECONDS,
            "pools": len(workloads.POOLS),
            "stock_per_pool": workloads.STOCK,
            "vacuum_every_pairs": workloads.VACUUM_EVERY,
            "pipeline_window": workloads.PIPELINE_WINDOW,
            "pipeline_workers": workloads.PIPELINE_WORKERS,
            "group_commit_max_batch": workloads.GROUP_COMMIT.max_batch,
            "group_commit_max_hold_s": workloads.GROUP_COMMIT.max_hold,
            "standing_promises": workloads.STANDING_PROMISES,
            "scarce_every": workloads.SCARCE_EVERY,
            "fleet_shards": workloads.FLEET_SHARDS,
            "fleet_replicas": workloads.FLEET_REPLICAS,
            "cross_every": workloads.CROSS_EVERY,
        },
    }


def fs_type(path: str) -> str:
    """File-system type of the mount ``path`` is on (Linux), else unknown."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind
