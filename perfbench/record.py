"""Re-record the benchmark's baselines.

    python3 perfbench/record.py reference
    python3 perfbench/record.py counts

``reference`` writes reference.json: the training outcomes that seeds 0-31
of ``train`` and ``ablation`` must reproduce.  Re-record it only with a
change that is meant to alter training results; the benchmark fails every
operation whose result differs from it by more than a relative 1e-6.

``counts`` writes baseline_counts.json: the per-layer counts and quality
values of a traced run of every workload at seed 0 that repeat exactly
from run to run (layers a workload does not reach, which read 0, are left
out).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import run

COUNTS_FILE = Path(__file__).with_name("baseline_counts.json")
REFERENCE_SEEDS = range(32)
EXACT = [
    "pipeline.forward_calls", "pipeline.backward_calls", "propagation.plan_nnz",
    "propagation.bytes_moved_computed", "propagation.behind_camera_hits",
    "nlc.lidar_to_nlc_calls", "nlc.mask_pixels", "geometry.iou_3d_calls",
    "geometry.iou_3d_nonzero_frac", "geometry.iou_3d_nan_frac", "solver.lm_iterations_mean",
    "solver.converged_frac", "solver.degenerate_frac", "metrics.matched_frac",
    "pipeline.val_metric", "pipeline.p2i_gain_pct", "metrics.ap_r40", "solver.center_err_p90_m",
]


def _config_fields(config) -> dict:
    """The TrainConfig fields that differ from the defaults, seed excepted."""
    default = type(config)()
    return {f.name: getattr(config, f.name) for f in fields(config)
            if f.name != "seed" and getattr(config, f.name) != getattr(default, f.name)}


def record_reference() -> int:
    import tracing
    from workloads import REFERENCE_FILE, Ablation, Train

    refs = {"train": {"seeds": {}}, "ablation": {"seeds": {}}}
    for seed in REFERENCE_SEEDS:
        for name, cls in (("train", Train), ("ablation", Ablation)):
            wl = cls(seed, run.WORK_DIR)
            wl.reference = None
            refs[name]["config"] = _config_fields(wl.config)
            wl.setup()
            op = wl.run_op(0, tracing.Tracer())
            if not op.ok:
                print(f"{name} seed {seed}: {op.problems}", file=sys.stderr)
                return 1
            entry = {"val_metric": wl.val_metric} if name == "train" else {"row_means": wl.means}
            refs[name]["seeds"][str(seed)] = entry
            print(name, seed, entry, flush=True)
    REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


def record_counts() -> int:
    from workloads import WORKLOADS

    out = {"seed": 0, "env": run.environment(), "workloads": {}}
    for name in WORKLOADS:
        result, _ = run.run(name, seed=0, seconds=0, trace=True)
        if not result["correct"]:
            print(f"{name}: {result['failed']} operations failed", file=sys.stderr)
            return 1
        values = {k: result["metrics"][k]["value"] for k in EXACT}
        out["workloads"][name] = {k: v for k, v in values.items() if v != 0}
        print(name, out["workloads"][name], flush=True)
    COUNTS_FILE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    sub.add_parser("counts")
    args = parser.parse_args(argv)
    run._import_library()
    return record_reference() if args.what == "reference" else record_counts()


if __name__ == "__main__":
    sys.exit(main())
