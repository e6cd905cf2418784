"""Paired ``perfbench`` runs of a parent tree and a changed tree, and the
numbers of a ``BENCH_<pr>.json`` workload block.

    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload W --seeds 0-9 --seconds 20

For each seed, both trees run ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0`` from their own directory, the parent first on even
seeds and the change first on odd ones.  The last line of each run's output
is kept, with the minor page faults of its process (``ru_minflt``).  The tool
prints one JSON object: the ``environment`` that the first run reports, and
under ``workloads`` the block that ``BENCH_27.json`` to ``BENCH_31.json``
share.  Per end-to-end metric, that block holds each side's median and
quartiles (linear, inclusive), the pairs in which the change is better
(higher ``work_per_s`` and ``passed_frac``, lower for the other metrics;
ties count for neither side), the change of the median in percent, and the
parent's interquartile range.  Statistics are taken on the unrounded run
values and then rounded, to 4 decimals (percentages to 2); ``per_pair``
lists each pair's values unrounded, so the statistics can be recomputed from
it exactly.  The tool writes no prose: the claim and the notes of a BENCH
file are written by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys

import numpy as np

METRICS = ("setup_s", "work_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb", "passed_frac")
HIGHER_IS_BETTER = ("work_per_s", "passed_frac")
SIDES = ("parent", "change")


def quartiles(values) -> dict:
    """The median and the linear (inclusive) first and third quartiles."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: str, pairs) -> dict:
    """The statistics of one metric over its ``(parent, change)`` pairs."""
    parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    higher = metric in HIGHER_IS_BETTER
    better = sum(c > p if higher else c < p for p, c in pairs)
    base = parent["median"]
    return {
        "parent": {k: round(v, 4) for k, v in parent.items()},
        "change": {k: round(v, 4) for k, v in change.items()},
        "change_better_in_pairs": better,
        "median_change_pct": round((change["median"] - base) / base * 100, 2) if base else None,
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
    }


def first_in_pair(seed: int) -> str:
    return SIDES[seed % 2]


def workload_block(seeds, runs, faults) -> dict:
    """The block of one workload: ``runs`` and ``faults`` map each side to
    its per-seed results (``run.py``'s last JSON line) and minor faults."""
    values = {m: [[r["metrics"][m]["value"] for r in pair] for pair in zip(*(runs[s] for s in SIDES))]
              for m in METRICS}
    return {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "first_in_pair": [first_in_pair(s) for s in seeds],
        "operations": {key: {s: sum(r[key] for r in runs[s]) for s in SIDES} for key in ("attempted", "failed")},
        "metrics": {m: compare(m, values[m]) for m in METRICS},
        "per_pair": {m: [list(pair) for pair in values[m]] for m in METRICS},
        "minor_faults_per_run": {s: list(faults[s]) for s in SIDES},
    }


def run_once(tree: str, workload: str, seed: int, seconds: float):
    """One ``perfbench`` run in ``tree``: its output lines and its minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if done.returncode != 0:
        raise SystemExit(f"{tree}: perfbench exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines(), faults


def parse_seeds(text: str) -> list[int]:
    """``0-9``, ``0,2,5`` or a mix of both, as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_dir, "change": args.change_dir}
    runs, faults, environment = {s: [] for s in SIDES}, {s: [] for s in SIDES}, None
    for seed in args.seeds:
        for side in SIDES if first_in_pair(seed) == "parent" else SIDES[::-1]:
            lines, minflt = run_once(trees[side], args.workload, seed, args.seconds)
            environment = environment or json.loads(next(line for line in lines if line.startswith("env "))[4:])
            runs[side].append(json.loads(lines[-1]))
            faults[side].append(minflt)
            print(f"seed {seed} {side}: {runs[side][-1]['metrics']['work_per_s']['value']:.4f}", file=sys.stderr)
    block = workload_block(args.seeds, runs, faults)
    print(json.dumps({"environment": environment, "workloads": {args.workload: block}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
