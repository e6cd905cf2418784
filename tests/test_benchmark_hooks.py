"""The benchmark's hooks into the library still fit it.

``perfbench/tracing.py`` wraps ``nlcdet`` functions and methods by dotted
name when a workload runs with ``--trace 1``; a renamed or moved target
would only show there.  This loads that file by path and resolves each
target the way its ``instrument`` does.  The benchmark's own tests are not
part of this suite, so the calls ``perfbench/*.py`` makes into ``nlcdet``
are also checked here against the signatures they call.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import nlcdet
from nlcdet import cli  # noqa: F401  (loads every module a target names)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TARGETS = [target for target, *_ in _tracing.SPANS] + [target for target, _ in _tracing.COUNTS]


def test_tracer_has_targets():
    assert len(_tracing.SPANS) > 0 and len(_tracing.COUNTS) > 0


@pytest.mark.parametrize("target", TARGETS)
def test_target_resolves_to_a_library_callable(target):
    mod, *cls, attr = target.split(".")
    owner = getattr(nlcdet, mod)
    if cls:
        # methods are wrapped on the class that defines them
        owner = getattr(owner, cls[0])
        assert attr in vars(owner), f"{target} is not defined on its class"
    assert callable(getattr(owner, attr)), f"{target} is not callable"


def _dotted(node):
    """``a.b.c`` of a name or attribute chain, or None for anything else."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def _library_calls():
    """(id, target, positional count, keyword names) of every call in
    ``perfbench/*.py`` rooted at a name imported from ``nlcdet``, except
    calls that unpack ``*`` or ``**`` arguments."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nlcdet":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not _dotted(node.func):
                continue
            root, *attrs = _dotted(node.func).split(".")
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            if root not in imported or unpacks:
                continue
            target = imported[root]
            for attr in attrs:
                target = getattr(target, attr)
            call_id = f"{path.name}:{node.lineno}:{_dotted(node.func)}"
            calls.append((call_id, target, len(node.args), [k.arg for k in node.keywords]))
    return calls


CALLS = _library_calls()


def test_benchmark_calls_found():
    names = {call_id.split(":")[-1] for call_id, *_ in CALLS}
    assert {"pipeline.ablation", "pipeline.ToyModel.init",
            "propagation.point_to_pixel_backward"} <= names


@pytest.mark.parametrize("target, positional, keywords",
                         [call[1:] for call in CALLS], ids=[call[0] for call in CALLS])
def test_benchmark_call_fits_the_signature(target, positional, keywords):
    inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_traced_ablation_sees_each_run_as_a_train_span():
    # the benchmark times ablation runs by their ``pipeline.train`` spans
    from nlcdet import pipeline

    config = pipeline.TrainConfig(epochs=1, train_scenes=2, val_scenes=1)
    tracer = _tracing.Tracer()
    with _tracing.instrument(tracer):
        pipeline.ablation(config, seeds=(0, 1), rows=("none", "both"))
    spans, ids = tracer.spans, _tracing.span_ids(tracer.spans)
    runs = [i for i, span in enumerate(spans) if span[0] == "pipeline.train"]
    assert [ids[i] for i in runs] == [f"setup/run-{r}" for r in range(4)]

    def run_of(idx):
        while idx >= 0 and spans[idx][0] != "pipeline.train":
            idx = spans[idx][3]
        return idx

    forwards = [i for i, span in enumerate(spans) if span[0] == "pipeline.forward"]
    # per run: two training steps, the image-objective step and one validation scene
    assert len(forwards) == 4 * 4
    for i in forwards:
        assert run_of(i) in runs and ids[i].startswith(ids[run_of(i)] + "/")
    steps = [ids[i] for i in forwards if spans[i][3] in runs]
    assert steps == [f"setup/run-{r}/step-{k}" for r in range(4) for k in range(3)]
