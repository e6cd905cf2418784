"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import layers
import run
import tracing
import workloads
from nlcdet import pipeline, solver

SMALL = {
    "train": {"train_scenes": 3, "val_scenes": 2, "epochs": 1},
    "ablation": {"train_scenes": 3, "val_scenes": 2, "epochs": 1},
    "kitti_frame": {"total_points": 4000, "fg_points": 1000, "num_boxes": 3, "height": 120, "width": 400},
    "decode": {"count": 4, "objects": 3, "clutter": 1},
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_untraced_reports_every_end_to_end_metric(workload):
    result, lines = run.run(workload, seed=3, seconds=0, trace=False, sizes=SMALL[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("op_ms_tail") for line in lines)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_traced_reports_every_per_layer_metric(workload):
    result, _ = run.run(workload, seed=3, seconds=0, trace=True, sizes=SMALL[workload])
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, *_ in layers.PER_LAYER]
    # a traced run goes in blocks of untraced, traced, traced, untraced passes
    assert result["attempted"] % 4 == 0
    assert 90.0 <= metrics["trace.self_coverage_pct"] <= 110.0


def _spans(workload):
    run.run(workload, seed=3, seconds=0, trace=True, sizes=SMALL[workload])
    lines = (run.OUT_DIR / f"trace-{workload}-seed3.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines[1:-1]]


def test_train_spans_have_one_id_per_step():
    spans = _spans("train")
    steps = [s["id"] for s in spans if s["name"] == "pipeline.forward" and s["id"].count("/step-")]
    assert len(steps) == len(set(steps)) > 1
    for span in spans:
        if span["name"] == "pipeline.backward":
            forward = max((s for s in spans if s["name"] == "pipeline.forward"
                           and s["start_ns"] < span["start_ns"]), key=lambda s: s["start_ns"])
            assert span["id"] == forward["id"]


def test_decode_spans_have_one_id_per_instance():
    spans = _spans("decode")
    solves = [s["id"] for s in spans if s["name"] == "solver.solve_box" and not s["id"].startswith("setup")]
    # two traced passes of 16 sequences x 4 frames x (3 objects + 1 clutter)
    assert len(solves) == len(set(solves)) == 2 * 16 * 4 * 4
    assert all(s["id"].count("/frame-") == 1 for s in spans if s["name"] == "geometry.iou_3d")


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_solver_output_is_counted_as_failed(monkeypatch):
    honest = solver.solve_box

    def off_by_a_millimetre(corrs, *args, **kwargs):
        report = honest(corrs, *args, **kwargs)
        report.box = type(report.box)(
            center=report.box.center + 1e-3, l=report.box.l, w=report.box.w,
            h=report.box.h, yaw=report.box.yaw,
        )
        return report

    monkeypatch.setattr(solver, "solve_box", off_by_a_millimetre)
    result, _ = run.run("decode", seed=3, seconds=0, trace=False, sizes=SMALL["decode"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["passed_frac"]["value"] == 0.0


def test_training_result_off_the_reference_is_counted_as_failed():
    wl = workloads.Train(0, None, SMALL["train"])
    wl.reference = {"val_metric": 1.0}
    wl.setup()
    op = wl.run_op(0, tracing.Tracer())
    assert not op.ok and "reference" in op.problems[0]


def test_full_size_train_reference_is_recorded_for_seed_zero():
    wl = workloads.Train(0, None)
    assert wl.reference is not None and "val_metric" in wl.reference
    assert workloads.Train(0, None, SMALL["train"]).reference is None


def _outputs(tmp_path, tag):
    """Library outputs of one small instance of every workload's calls."""
    cfg = pipeline.TrainConfig(epochs=1, train_scenes=2, val_scenes=1, seed=5)
    _, report = pipeline.train(cfg)
    kitti = workloads.KittiFrame(1, tmp_path / tag, SMALL["kitti_frame"])
    kitti.setup()
    assert kitti.run_op(0, tracing.Tracer()).ok
    decode = workloads.Decode(1, None, SMALL["decode"])
    decode.setup()
    assert decode.run_op(0, tracing.Tracer()).ok
    solves = [solver.solve_box(c).to_dict() for f in decode.sequences[0] for c in f.instances]
    return report.to_dict(), kitti.frames[0][1]["nlcm"].read_bytes(), solves


def test_traced_and_untraced_outputs_are_bit_identical(tmp_path):
    plain = _outputs(tmp_path, "plain")
    tracer = tracing.Tracer()
    original = pipeline.fuse_i2p
    with tracing.instrument(tracer):
        assert pipeline.fuse_i2p is not original  # wrapped where pipeline looks it up
        traced = _outputs(tmp_path, "traced")
    assert pipeline.fuse_i2p is original
    assert {s[0] for s in tracer.spans} >= {"pipeline.train", "propagation.fuse_i2p", "cli.main",
                                             "solver.solve_box", "geometry.iou_3d"}
    assert json.dumps(plain[0]) == json.dumps(traced[0])
    assert plain[1] == traced[1]
    assert plain[2] == traced[2]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100))
    value, label = layers.tail(values)
    assert value == 89 and sum(v > value for v in values) == 10 and label.startswith("p90.0")
    assert layers.tail([3.0, 1.0])[0] == 3.0


def test_bare_directory_without_sources_exits_nonzero(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
