"""The library names the benchmark's span tracer patches still exist.

``perfbench/spans.py`` wraps library functions and methods by name
(``checkpoint.build_model``, ``model._staged``, ``training.sgd_step``, ...),
and names each stage's metric after the label or parameter prefix it sees.
A rename under ``src/`` then fails here, in Tier-1, instead of in the first
traced benchmark run.
"""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from resemotenet import autodiff, checkpoint, model
from resemotenet.autodiff import Tensor
from resemotenet.layers import EVAL
from resemotenet.model import ModelConfig, build_model

import nets

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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


def test_a_loaded_model_names_its_conv_spans(spans, tmp_path):
    """`checkpoint.load` builds its model with `build_model`, which the
    tracer wraps to name each conv, so a reloaded model's conv spans carry
    parameter names."""
    path = tmp_path / "model.ckpt"
    checkpoint.save(build_model(ModelConfig(input_size=16, stem_channels=(4, 8, 8),
                                            se_reduction=4, residual_channels=((8, 8, 1),))),
                    None, None, 0, path)
    tracer = spans.Tracer()
    try:
        tracer.install()
        model = checkpoint.load(path).model
        model.forward(Tensor(np.zeros((1, 3, 16, 16))), mode=EVAL)
    finally:
        tracer.uninstall()
    convs = [span.name for span in tracer.spans if span.name.startswith("layers.conv.")]
    assert convs and not [name for name in convs if ".unnamed." in name], convs


def test_every_stage_span_names_a_declared_metric(spans):
    """Each stage and conv span of a forward pass gives its time under the
    span's name plus ``_ms``; a changed `_staged` label or conv prefix would
    otherwise drop that per-layer metric from BENCHMARK.json silently."""
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    config = ModelConfig(input_size=16, stem_channels=(4, 8, 8), se_reduction=4,
                         residual_channels=((8, 16, 2),))
    tracer = spans.Tracer()
    try:
        tracer.install()
        model.build_model(config).forward(Tensor(np.zeros((1, 3, 16, 16))), mode=EVAL)
    finally:
        tracer.uninstall()
    stages = {span.name for span in tracer.spans if span.name.endswith(".fwd")
              and span.name.startswith(("model.", "layers.conv."))}
    # 3 stem stages and their pools, the gate, the block, the head; 6 convs
    assert len(stages) == 9 + 6, sorted(stages)
    assert sorted(name for name in stages if name + "_ms" not in declared) == []


def test_the_suites_fer48_net_is_the_benchmarks(spans):
    """The tests that guard the FER-48 net's memory and evaluation blocks
    guard the net the benchmark trains."""
    workloads = importlib.import_module("workloads")
    assert nets.FER48 == workloads.FER48 == workloads.PLANS["train_fer48"].config
