"""The library names the benchmark's span tracer patches still exist.

``perfbench/spans.py`` wraps library functions and methods by name
(``checkpoint.build_model``, ``model._staged``, ``training.sgd_step``, ...).
A rename under ``src/`` then fails here, in Tier-1, instead of in the first
traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from resemotenet import autodiff

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: ops with their own per-layer metric in BENCHMARK.json
MEASURED_OPS = ("conv2d", "max_pool2d", "batch_norm2d_train", "batch_norm2d_eval")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # workloads reads library names (configs, entry points) at import
    importlib.import_module("workloads")
    return importlib.import_module("spans")


def test_tracer_installs_and_uninstalls_every_patch(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()  # a missing name raises AttributeError here
        patches = list(tracer._patches)
        wrapped = {attr for owner, attr, _ in patches if owner is autodiff}
        assert set(MEASURED_OPS) <= wrapped
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
