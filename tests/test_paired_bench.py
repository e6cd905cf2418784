"""The statistics of ``tools/paired_bench.py``, on canned pairs and against
the committed BENCH files that list their runs per pair.  No benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from paired_bench import METRICS, compare, parse_seeds, workload_block  # noqa: E402

# four pairs, an even count, with a tie in the second
PAIRS = [(10.0, 12.0), (11.0, 11.0), (12.0, 10.0), (13.0, 15.0)]
PAIRED_FILES = sorted(p for p in ROOT.glob("BENCH_*.json")
                      if any("per_pair" in b for b in json.loads(p.read_text())["workloads"].values()))


def test_statistics_of_canned_pairs():
    higher, lower = compare("work_per_s", PAIRS), compare("op_ms_p50", PAIRS)
    assert higher["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert higher["change"] == {"median": 11.5, "q1": 10.75, "q3": 12.75}
    assert higher["change_better_in_pairs"] == 2 and lower["change_better_in_pairs"] == 1
    assert higher["median_change_pct"] == 0.0 and higher["parent_iqr"] == 1.5
    assert compare("setup_s", [(2.0, 1.0), (4.0, 3.0)])["median_change_pct"] == -33.33


def test_workload_block_of_canned_runs():
    def result(value, attempted, failed=0):
        return {"attempted": attempted, "failed": failed,
                "metrics": {m: {"value": value, "unit": "1"} for m in METRICS}}
    runs = {"parent": [result(p, 5) for p, _ in PAIRS], "change": [result(c, 6, 1) for _, c in PAIRS]}
    block = workload_block([0, 1, 2, 3], runs, {"parent": [7, 8, 9, 10], "change": [1, 2, 3, 4]})
    assert block["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert block["operations"] == {"attempted": {"parent": 20, "change": 24},
                                   "failed": {"parent": 0, "change": 4}}
    assert block["per_pair"]["op_ms_tail"] == [list(pair) for pair in PAIRS]
    assert block["metrics"]["passed_frac"] == compare("passed_frac", PAIRS)
    assert block["minor_faults_per_run"]["parent"] == [7, 8, 9, 10]


def test_seed_lists():
    assert parse_seeds("0-9") == list(range(10)) and parse_seeds("3,5-6") == [3, 5, 6]


def test_bench_files_with_pairs_are_found():
    assert {p.name for p in PAIRED_FILES} >= {f"BENCH_{n}.json" for n in range(27, 32)}


# the first file whose per_pair values tools/paired_bench.py wrote unrounded
FIRST_UNROUNDED = 33


def _number(path: Path) -> int:
    return int(path.stem.split("_")[1])


def test_bench_files_with_unrounded_pairs_are_found():
    assert any(_number(p) >= FIRST_UNROUNDED for p in PAIRED_FILES)


@pytest.mark.parametrize("path", [p for p in PAIRED_FILES if _number(p) >= FIRST_UNROUNDED],
                         ids=lambda p: p.name)
def test_committed_statistics_recomputed_exactly_from_unrounded_pairs(path):
    for name, block in json.loads(path.read_text())["workloads"].items():
        for metric, pairs in block["per_pair"].items():
            assert compare(metric, pairs) == block["metrics"][metric], (name, metric)


@pytest.mark.parametrize("path", PAIRED_FILES, ids=lambda p: p.name)
def test_committed_statistics_recomputed_from_their_pairs(path):
    # before BENCH_33.json, per_pair holds values rounded to 4 decimals, and
    # the file's statistics were taken before rounding: each agrees to 1e-4,
    # its printed precision
    for name, block in json.loads(path.read_text())["workloads"].items():
        for metric, pairs in block["per_pair"].items():
            want, got = block["metrics"][metric], compare(metric, pairs)
            for side in ("parent", "change"):
                for key in ("q1", "median", "q3"):
                    assert got[side][key] == pytest.approx(want[side][key], rel=0, abs=1.0001e-4), (
                        name, metric, side, key)
            assert got["change_better_in_pairs"] == want["change_better_in_pairs"], (name, metric)
