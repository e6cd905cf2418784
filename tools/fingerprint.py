"""Print one ``name sha256`` line per seeded output of the library.

Run from anywhere, with the checkout's own ``src`` on the path:

    python3 tools/fingerprint.py > fingerprint.txt

Two checkouts that print the same lines compute the same bytes for the
seeded training runs (small ones and the benchmark's ``train`` run), the ablation, the gradient checks, the synthetic
scenes, the box solver, and one decoded sequence: solve reports, IoUs,
matches and AP.  The ``dof_analysis/...`` lines print the
Jacobian ranks themselves, on near-coplanar correspondences whose NLC z
spreads from 1e-6 to 1e-10, where the observability rule decides.  Run
each checkout in its own process; BLAS is pinned to one thread so that sums
reduce in the same order every run.  The outputs are those of
``seeded_outputs.py``; ``max_diff.py`` compares the same ones by value.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from seeded_outputs import outputs  # noqa: E402


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
    """Yield (name, sha256) for every seeded output, and (name, ranks) for
    the near-coplanar family."""
    hashes = {"bits": digest, "json": json_digest, "text": str}
    for name, kind, value in outputs():
        yield name, hashes[kind](value)


if __name__ == "__main__":
    for name, sha in fingerprints():
        print(name, sha, flush=True)
