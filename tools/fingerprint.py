"""Print one ``name sha256`` line per seeded output of the library.

Run from anywhere, with the checkout's own ``src`` on the path:

    python3 tools/fingerprint.py > fingerprint.txt

Two checkouts that print the same lines compute the same bytes for the
seeded training runs, the ablation, the gradient checks, the synthetic
scenes and the box solver.  Run each checkout in its own process; BLAS is
pinned to one thread so that sums reduce in the same order every run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from nlcdet import Box3D, LossWeights, gradcheck, nlc_to_lidar, solve_box  # noqa: E402
from nlcdet.pipeline import ABLATION_ROWS, TrainConfig, ablation, generate_scene, train  # noqa: E402

SMALL = TrainConfig(epochs=3, train_scenes=6, val_scenes=3)


def _feed(h, obj) -> None:
    """Hash ``obj`` by its type, shape and exact bits, walking containers."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in fields(obj)})
    elif isinstance(obj, dict):
        for key, value in obj.items():
            h.update(repr(key).encode())
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for value in obj:
            _feed(h, value)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())  # repr of a float round-trips its bits


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def fingerprints():
    """Yield (name, sha256) for every seeded output."""
    runs = {f"train/{row}": replace(SMALL, **flags) for row, flags in ABLATION_ROWS.items()}
    runs["train/no_nlc"] = replace(SMALL, epochs=4, weights=LossWeights(nlc=0.0))
    runs["train/no_sem2d"] = replace(SMALL, epochs=4, weights=LossWeights(sem2d=0.0))
    for name, config in runs.items():
        model, report = train(config)
        yield f"{name}/params", digest(model.params)
        yield f"{name}/report", json_digest(report.to_dict())
    yield "ablation", json_digest(ablation(SMALL, seeds=(0, 1)))
    yield "gradcheck", json_digest(gradcheck.run_all(20, 0))
    for seed in range(10):
        yield f"scene/{seed}", digest(generate_scene(seed))
    rng = np.random.default_rng(0)
    for i in range(8):
        box = Box3D(center=rng.uniform(-20, 20, size=3), l=rng.uniform(3, 5),
                    w=rng.uniform(1.5, 2), h=rng.uniform(1.3, 1.8), yaw=rng.uniform(-np.pi, np.pi))
        nlc = rng.uniform(0.05, 0.95, size=(40, 3))
        pts = nlc_to_lidar(nlc, box) + rng.normal(0.0, 0.02, size=(40, 3))
        yield f"solve_box/{i}", json_digest(solve_box(np.hstack([pts, nlc])).to_dict())


if __name__ == "__main__":
    for name, sha in fingerprints():
        print(name, sha, flush=True)
