"""Print the largest difference between the seeded outputs of two checkouts.

    python3 tools/max_diff.py PARENT_CHECKOUT CHECKOUT

Each checkout computes the outputs listed in ``seeded_outputs.py`` (this
tree's list, the one ``fingerprint.py`` hashes) in its own process, with its
own ``src`` first on the path and BLAS pinned to one thread, and walks each
output into its leaves with ``seeded_outputs.leaves``, the walk that
``fingerprint.py`` hashes.  For each output the tool prints one line,
``name abs rel``: the largest absolute difference over the output's
floating-point leaves, and the largest relative one, |a - b| / max(|a|, |b|)
over the values that differ.  Both read 0 where the bits match.  An output
whose structure, shapes, integers or strings differ prints ``differs at``
and the path of the first leaf that differs: for a ``dof_analysis`` output,
``[i]`` names the box whose Jacobian rank changed.  The exit status is 1
when any output differs in structure."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # before NumPy loads, here and in each --dump child
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402


def _dump(src: str, out: str) -> None:
    sys.path.insert(0, src)
    import nlcdet
    from seeded_outputs import leaves, outputs

    if Path(nlcdet.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"imported nlcdet from {nlcdet.__file__}, not from {src}")
    with open(out, "wb") as fh:
        pickle.dump([(name, list(leaves(value))) for name, value in outputs()], fh)


def compare(old, new) -> tuple[float, float] | str:
    """(largest absolute, largest relative) difference of two lists of
    ``seeded_outputs.leaves``, or the path of the first leaf that differs in
    anything but float values."""
    if [p for p, _ in old] != [p for p, _ in new]:
        return "keys"
    worst_abs = worst_rel = 0.0
    for (path, a), (_, b) in zip(old, new):
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                return path
            continue
        if a.shape != b.shape or a.dtype != b.dtype:
            return path
        if a.dtype.kind not in "fc":
            if not np.array_equal(a, b):
                return path
            continue
        if a.tobytes() == b.tobytes():
            continue
        with np.errstate(invalid="ignore", over="ignore"):
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            diff = np.abs(a - b)[~same]
            diff[np.isnan(diff)] = np.inf  # NaN against a number, or inf - inf
            scale = np.maximum(np.abs(a), np.abs(b))[~same]
            rel = np.divide(diff, scale, out=np.full(diff.shape, np.inf), where=scale > 0)
        if diff.size:
            worst_abs, worst_rel = max(worst_abs, float(diff.max())), max(worst_rel, float(rel.max()))
    return worst_abs, worst_rel


def _run(checkout: str, out: str) -> list:
    src = str(Path(checkout).resolve() / "src")
    subprocess.run([sys.executable, __file__, "--dump", src, out], check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        _dump(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        old, new = (dict(_run(checkout, f"{tmp}/{i}.pickle")) for i, checkout in enumerate(argv))
    status = 0
    for name in old:  # both ran the same list
        result = compare(old[name], new[name])
        if isinstance(result, str):
            print(name, "differs at", result or "/", flush=True)
            status = 1
        else:
            print(name, *(f"{x:.3g}" for x in result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
