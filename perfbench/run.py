"""Benchmark for nlcdet: four seeded, single-process, closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it name every metric with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS threads are pinned before NumPy loads: one process, one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
EXIT_NO_SOURCE = 2

# the per-workload name that work_per_s stands for
WORK_ALIASES = {"train": "steps_per_s", "ablation": "steps_per_s",
                "kitti_frame": "frames_per_s", "decode": "solves_per_s"}
END_TO_END = [
    ("setup_s", "s"), ("work_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"), ("passed_frac", "1"),
]


def _import_library():
    """Import nlcdet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "nlcdet" / "__init__.py").is_file():
        print(f"error: no nlcdet sources under {src}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(src))
    import nlcdet

    if Path(nlcdet.__file__).resolve().parent != (src / "nlcdet").resolve():
        print(f"error: nlcdet imported from {nlcdet.__file__}, not {src}", file=sys.stderr)
        sys.exit(EXIT_NO_SOURCE)


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "processes": 1,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None):
    """Set up, run the closed loop, and return (result dict, printable lines)."""
    import contextlib
    import resource
    import statistics
    import time
    import traceback

    import hostspeed
    import layers
    import tracing
    from workloads import WORKLOADS, OpResult

    tracer = tracing.Tracer()  # records nothing unless instrumented
    installed = tracing.instrument(tracer) if trace else contextlib.nullcontext()
    wl = None
    hostspeed.kernel_seconds()  # warm-up
    kernel = [hostspeed.kernel_seconds()]  # before and after every set-up and operation
    with installed:
        setup_times, setup_scaled = [], []
        for k in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            tracer.group = f"setup-{k}"
            start = time.perf_counter()
            wl = WORKLOADS[workload](seed, WORK_DIR, sizes)
            wl.setup()
            setup_times.append(time.perf_counter() - start)
            kernel.append(hostspeed.kernel_seconds())
            setup_scaled.append(hostspeed.scaled(setup_times[-1], *kernel[-2:]))
        setup_counts = tracer.counts.copy()
        tracer.counts.clear()

        # A traced run measures its own overhead in the same process: its
        # passes go untraced, traced, traced, untraced, and so on in blocks
        # of four, so each pair of passes puts the traced one first as often
        # as last, and the run ends on an untraced pass.
        ops, traced, lines = [], [], []
        start = time.perf_counter()
        i = 0
        while True:
            tracer.group = f"op-{i}"
            tracer.active = trace and (i // wl.ops_per_pass) % 4 in (1, 2)
            traced.append(tracer.active)
            op_start = time.perf_counter()
            try:
                op = wl.run_op(i % wl.ops_per_pass, tracer)
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                op = OpResult(time.perf_counter() - op_start, 0, False, ["raised"])
            kernel.append(hostspeed.kernel_seconds())
            op.scaled = hostspeed.scaled(op.seconds, *kernel[-2:])
            for problem in op.problems:
                print(f"check failed on operation {i}: {problem}", file=sys.stderr)
            ops.append(op)
            i += 1
            done, at_boundary = divmod(i, wl.ops_per_pass)
            if (at_boundary == 0 and time.perf_counter() - start >= seconds
                    and (not trace or done % 4 == 0)):
                break
    wl.close()

    failed = sum(not op.ok for op in ops)
    quality = wl.quality()
    lines.append(f"workload {workload}, seed {seed}: {len(ops)} operations "
                 f"({wl.op_name}), {failed} failed")
    if not trace:
        n = wl.ops_per_pass
        passes = [ops[k:k + n] for k in range(0, len(ops), n)]
        pass_rates = [sum(op.work for op in p) / sum(op.scaled for op in p) for p in passes]
        tail, tail_label = layers.tail([op.scaled * 1e3 for op in ops])
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "work_per_s": statistics.median(pass_rates),
            "op_ms_p50": statistics.median(op.scaled * 1e3 for op in ops),
            "op_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": (len(ops) - failed) / len(ops),
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups",
            "work_per_s": f"{WORK_ALIASES[workload]}: {wl.unit} per second of library time, "
                          f"median of {len(passes)} passes of {n} operations",
            "op_ms_p50": f"one {wl.op_name}, median of n={len(ops)}",
            "op_ms_tail": tail_label,
            "peak_rss_mb": "maximum resident set of the process",
            "passed_frac": f"1 - failed_frac; failed_frac = {failed}/{len(ops)}",
        }
        units = dict(END_TO_END)
        lines.append(f"times are scaled to a host on which the reference kernel takes "
                     f"{hostspeed.NOMINAL_S * 1e3:g} ms; here it took {statistics.median(kernel) * 1e3:.4g} ms "
                     f"(median of {len(kernel)}), and unscaled setup_s = {statistics.median(setup_times):.6g} s, "
                     f"op_ms_p50 = {statistics.median(op.seconds * 1e3 for op in ops):.6g} ms")
        for name, _ in END_TO_END:
            lines.append(f"{name:<34} {metrics[name]:>14.6g} {units[name]:<6} {notes[name]}")
        for name, value in quality.items():
            lines.append(f"{name:<34} {value:>14.6g} {layers.UNITS[name]:<6} per-layer value, reported by --trace 1")
    else:
        metrics = layers.compute(tracer, setup_counts, ops, traced, quality)
        units = layers.UNITS
        for name, unit, _, moves in layers.PER_LAYER:
            lines.append(f"{name:<34} {metrics[name]:>14.6g} {unit:<6} -> {moves}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path, {"workload": workload, "seed": seed, "env": environment()})
        lines.append(f"spans written to {path}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["train", "ablation", "kitti_frame", "decode"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _import_library()

    import json

    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(environment()))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
