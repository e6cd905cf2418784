"""The seeded outputs against their committed fingerprint, and the leaf walk
that ``tools/fingerprint.py`` hashes and ``tools/max_diff.py`` compares."""

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

from fingerprint import sha256  # noqa: E402
from max_diff import compare  # noqa: E402
from seeded_outputs import leaves  # noqa: E402


def _split(text: str):
    """The text of a fingerprint's ``#`` lines, and its ``(name, sha256)`` lines."""
    lines = text.splitlines()
    return (" ".join(line.lstrip("# ") for line in lines if line.startswith("#")),
            [tuple(line.split()) for line in lines if line and not line.startswith("#")])


def test_seeded_outputs_match_the_recorded_fingerprint():
    # the script pins BLAS to one thread and imports this checkout's src itself
    result = subprocess.run([sys.executable, str(TOOLS / "fingerprint.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    recorded_with, recorded = _split((TOOLS / "fingerprint.txt").read_text())
    running_with, current = _split(result.stdout)
    names = sorted({name for name, _ in set(recorded) ^ set(current)}) or ["the order of the outputs"]
    assert current == recorded, (
        f"outputs that differ from tools/fingerprint.txt: {', '.join(names)}; "
        f"recorded with {recorded_with}, running with {running_with}"
    )


@dataclass
class _Value:
    array: np.ndarray
    floats: dict
    items: list


def _value(array=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0), shape=(2, 3), a=0.1, count=3, text="text"):
    return _Value(np.reshape(array, shape), {"a": a, "b": -2.5}, [count, text])


def _flip_low_bit(x: float) -> float:
    return float((np.array(x).view(np.uint64) ^ np.uint64(1)).view(np.float64))


class TestLeaves:
    def test_paths_in_order(self):
        assert [path for path, _ in leaves(_value())] == [
            "/array", "/floats/a", "/floats/b", "/items[0]", "/items[1]",
        ]

    def test_identical_values(self):
        a, b = _value(), _value()
        assert sha256(a) == sha256(b)
        assert compare(list(leaves(a)), list(leaves(b))) == (0, 0)

    @pytest.mark.parametrize("changed", [
        _value(a=_flip_low_bit(0.1)),
        _value(array=(0.0, 1.0, 2.0, 3.0, 4.0, _flip_low_bit(5.0))),
    ], ids=["float", "array"])
    def test_one_flipped_bit(self, changed):
        assert sha256(_value()) != sha256(changed)
        worst_abs, worst_rel = compare(list(leaves(_value())), list(leaves(changed)))
        assert worst_abs > 0 and worst_rel > 0

    @pytest.mark.parametrize("path, changed", [
        ("/items[0]", _value(count=4)),
        ("/array", _value(shape=(3, 2))),
        ("/items[1]", _value(text="texts")),
    ], ids=["int", "shape", "string"])
    def test_changed_leaf_is_named(self, path, changed):
        assert sha256(_value()) != sha256(changed)
        assert compare(list(leaves(_value())), list(leaves(changed))) == path
