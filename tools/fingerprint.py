"""Print one ``name sha256`` line per seeded output of the library, after a
``#`` line naming the Python, NumPy, SciPy and BLAS it ran with.

Run from anywhere, with the checkout's own ``src`` on the path:

    python3 tools/fingerprint.py > tools/fingerprint.txt

``tools/fingerprint.txt`` holds the lines of the committed code, and a
Tier-1 test (``tests/test_tools.py``) checks that the code still prints
them.  A change that moves an output on purpose records the file again with
the command above.  Each hash is a sha256 over the output's leaves, as
``seeded_outputs.leaves`` walks them: the path of each leaf, then an array's
dtype, shape and bytes, or the ``repr`` of any other value.  Two checkouts
that print the same lines compute the same bytes for every output that
``seeded_outputs.py`` lists; ``max_diff.py`` compares the same leaves by
value.  The hashes hold for one build of NumPy and its BLAS.  BLAS is
pinned to one thread so that sums reduce in the same order every run.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

if __name__ == "__main__":  # before NumPy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from seeded_outputs import leaves, outputs  # noqa: E402


def versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, NumPy {np.__version__}, "
            f"SciPy {scipy.__version__}, {blas.get('name')} {blas.get('version')}")


def sha256(value) -> str:
    """The hex sha256 over the leaves of ``value``."""
    h = hashlib.sha256()
    for path, leaf in leaves(value):
        if isinstance(leaf, str):
            h.update(repr((path, leaf)).encode())
        else:
            h.update(repr((path, leaf.dtype.str, leaf.shape)).encode())
            h.update(np.ascontiguousarray(leaf).tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print("#", versions(), flush=True)
    for name, value in outputs():
        print(name, sha256(value), flush=True)
