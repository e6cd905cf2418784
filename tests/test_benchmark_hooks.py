"""Every library function the benchmark's tracer wraps still exists under its name.

``perfbench/tracing.py`` wraps ``nlcdet`` functions and methods by dotted
name when a workload runs with ``--trace 1``; a renamed or moved target
would only show there.  This loads that file by path and resolves each
target the way its ``instrument`` does.
"""

import importlib.util
from pathlib import Path

import pytest

import nlcdet
from nlcdet import cli  # noqa: F401  (loads every module a target names)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
