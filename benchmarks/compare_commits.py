"""Parent against change on ``benchmarks.perf``, interleaved, in one document.

The harness measures one checkout.  A claim about a change needs the
parent measured in the same session, on the same host, with the two
sides alternating so that drift in the host hits both alike.  This runs
the *unmodified* harness of each checkout, one seed at a time::

    PYTHONPATH=src python -m benchmarks.perf --runs 1 --seed S --traced --out F

for S = 1..N, parent first on odd seeds and change first on even ones,
and merges the 2N documents: per metric the values in seed order, the
median and quartiles of each side, how many of the N pairs the change
won, and whether the median moved by more than the parent's quartile
distance.  Nothing is re-measured or re-scaled here; every number is one
the harness reported.

    git clone -q . /root/scratch/parent          # HEAD = the parent commit
    mkdir /root/scratch/change                   # the staged change
    git archive $(git write-tree) | tar -x -C /root/scratch/change
    python benchmarks/compare_commits.py --parent /root/scratch/parent \\
        --change /root/scratch/change --change-tree $(git write-tree) \\
        --work /root/scratch/bench --out BENCH_12.json

``--merge-only`` rebuilds the document from the files a previous run left
in ``--work``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def first_side(seed: int) -> str:
    return "parent" if seed % 2 else "change"


def run_all(checkouts: dict[str, str], seeds: range, work: str) -> None:
    """One harness run per side and seed; documents land in ``work``."""
    os.makedirs(work, exist_ok=True)
    for seed in seeds:
        first = first_side(seed)
        for side in (first, *(s for s in SIDES if s != first)):
            out = os.path.join(work, f"{side}_{seed}.json")
            command = [
                sys.executable, "-m", "benchmarks.perf", "--runs", "1",
                "--seed", str(seed), "--traced", "--out", out,
            ]
            with open(os.path.join(work, f"{side}_{seed}.txt"), "w") as log:
                done = subprocess.run(
                    command, cwd=checkouts[side], stdout=log,
                    stderr=subprocess.STDOUT,
                    env={**os.environ, "PYTHONPATH": "src"},
                )
            print(f"seed {seed} {side}: exit {done.returncode}", flush=True)


def quartiles(values: list[float]) -> dict[str, object]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def merge(contract: dict, seeds: range, work: str, change_tree: str) -> dict:
    docs = {
        side: [
            json.load(open(os.path.join(work, f"{side}_{seed}.json")))
            for seed in seeds
        ]
        for side in SIDES
    }
    end_to_end: dict = {}
    per_layer: dict = {}
    budget: dict = {}
    checks: dict = {}
    for workload in (entry["name"] for entry in contract["workloads"]):
        runs = {s: [d["sets"][0][workload][0] for d in docs[s]] for s in SIDES}
        traced = {s: [d["traced"][workload] for d in docs[s]] for s in SIDES}
        checks[workload] = {
            side: {
                "attempted": sum(r["attempted"] for r in runs[side] + traced[side]),
                "failed": sum(r["failed"] for r in runs[side] + traced[side]),
                "anomalies": sum(
                    len(r["anomalies"]) for r in runs[side] + traced[side]
                ),
            }
            for side in SIDES
        }
        end_to_end[workload] = {}
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "higher" else -1
            values = {s: [r["metrics"][name][0] for r in runs[s]] for s in SIDES}
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            gains = [
                sign * (c - p) for p, c in zip(values["parent"], values["change"])
            ]
            improvement = sign * (change["median"] - parent["median"]) / parent["median"]
            spread = max(
                (side["q3"] - side["q1"]) / side["median"] for side in (parent, change)
            )
            if improvement < -bound:
                verdict = "regressed"
            elif spread > bound:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "within bound"
            end_to_end[workload][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": bound,
                "parent": parent,
                "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "improvement_share": improvement,
                "change_wins": sum(gain > 0 for gain in gains),
                "change_losses": sum(gain < 0 for gain in gains),
                "pairs": len(gains),
                "parent_iqr": parent["q3"] - parent["q1"],
                "median_gap_exceeds_parent_iqr": abs(
                    change["median"] - parent["median"]
                ) > parent["q3"] - parent["q1"],
                "verdict": verdict,
            }
        per_layer[workload] = {
            metric["name"]: {
                "unit": metric["unit"],
                "better": metric["better"],
                **{
                    side: quartiles(
                        [t["metrics"][metric["name"]][0] for t in traced[side]]
                    )
                    for side in SIDES
                },
            }
            for metric in contract["per_layer"]
        }
        budget[workload] = {
            side: {
                "pair_ms_mean": statistics.median(
                    t["budget"]["pair_ms_mean"] for t in traced[side]
                ),
                "residual_ms": statistics.median(
                    t["budget"]["residual_ms"] for t in traced[side]
                ),
                "rows_ms_per_pair": {
                    row["layer"]: statistics.median(
                        other["ms_per_pair"]
                        for t in traced[side]
                        for other in t["budget"]["rows"]
                        if other["layer"] == row["layer"]
                    )
                    for row in traced[side][0]["budget"]["rows"]
                },
            }
            for side in SIDES
        }
    parent_sha = docs["parent"][0]["meta"]["git_sha"]
    shared = {
        key: value
        for key, value in docs["change"][0]["meta"].items()
        if key not in ("git_sha", "seed", "runs")
    }
    return {
        "meta": {
            **shared,
            "parent_sha": parent_sha,
            "change": {
                "base_sha": parent_sha,
                "tree_sha": change_tree,
                "note": "measured from `git archive` of the staged tree "
                "(git write-tree) on top of base_sha; the commit sha is "
                "assigned when the PR is committed",
            },
            "command": "benchmarks/compare_commits.py: PYTHONPATH=src python "
            "-m benchmarks.perf --runs 1 --seed S --traced --out F per side "
            "and seed, sides alternating in one session; harness files "
            "byte-identical on both sides",
            "seeds": list(seeds),
            "order": [{"seed": s, "first": first_side(s)} for s in seeds],
            "values": "reference time, as the harness reports them; one "
            "value per seed, in seed order",
        },
        "correctness": checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "budget_median_ms_per_pair": budget,
    }


def summarise(document: dict) -> None:
    for workload, metrics in document["end_to_end"].items():
        print(f"== {workload}  {document['correctness'][workload]}")
        for name, row in metrics.items():
            print(
                f"  {name:<15} parent {row['parent']['median']:>9.3f}  change "
                f"{row['change']['median']:>9.3f}  x{row['change_over_parent']:.2f}"
                f"  wins {row['change_wins']}/{row['pairs']}  {row['verdict']}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--change-tree", default="unknown",
                        help="tree sha of the change (git write-tree)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--work", required=True, help="where run documents go")
    parser.add_argument("--out", required=True, help="the merged document")
    parser.add_argument("--merge-only", action="store_true")
    args = parser.parse_args(argv)

    seeds = range(1, args.seeds + 1)
    if not args.merge_only:
        run_all({"parent": args.parent, "change": args.change}, seeds, args.work)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    document = merge(contract, seeds, args.work, args.change_tree)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    summarise(document)
    failed = sum(
        side["failed"] + side["anomalies"]
        for sides in document["correctness"].values()
        for side in sides.values()
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
