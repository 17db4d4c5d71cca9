"""Command-line contract: subcommands, exit codes, config echo, epoch log
lines, artifacts on disk, and the prediction/eval equivalences.

Most tests drive the real entry point in a subprocess so the printed
output and exit codes are exactly what a shell user sees.  A few call
`cli.main` in process: the ones that measure the process's own memory or
patch a module, and the gradcheck tests, which cut the battery to one trial
per component (C02 runs it in full).
"""

import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from resemotenet import autodiff as ad
from resemotenet import checkpoint, cli, verification
from resemotenet.autodiff import Tensor, using_dtype
from resemotenet.config import RunConfig
from resemotenet.data import CLASS_NAMES, MANIFEST, DatasetManifest, Sample
from resemotenet.model import ModelConfig, ResEmoteNetModel, build_model
from resemotenet.optim import PlateauScheduler, SgdState
from resemotenet.synthetic import (class_pattern, make_synthetic_manifest,
                                   write_fer_csv, write_pixmap_dir)

import oracles

EPOCH_LINE = re.compile(
    r"^epoch=(\d+) train_loss=(\d+\.\d{6}) eval_acc=(\d+\.\d{2}) lr=(\S+)$")


#: the checkout's sources, importable by the CLI subprocess without an install
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    """Run the CLI in a fresh empty working directory, removed after, so a
    default `--out` (runs/default) lands nowhere a later run sees."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "resemotenet", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def epoch_lines(stdout):
    return [line for line in stdout.splitlines() if line.startswith("epoch=")]


# --- fixtures --------------------------------------------------------------

@pytest.fixture(scope="module")
def fer_fixture(tmp_path_factory):
    """56-sample CSV corpus (8 per class, 48x48 grayscale) plus a config."""
    root = tmp_path_factory.mktemp("fer")
    train = make_synthetic_manifest(per_class=8, size=48, channels=1,
                                    seed=31, split="train")
    test = make_synthetic_manifest(per_class=2, size=48, channels=1,
                                   seed=32, split="test")
    csv_path = root / "fer.csv"
    write_fer_csv(csv_path, {"train": train, "test": test})
    cfg = root / "fer.cfg"
    cfg.write_text(
        f"""\
# small-geometry smoke recipe on the CSV corpus
dataset = fer2013
data_root = {csv_path}
batch_size = 16
lr = 0.01
seed = 5
input_channels = 1
input_size = 48
stem_channels = 4,8,8
se_reduction = 4
residual_channels = 8:8:1
aap_output = 1,1
""", encoding="utf-8")
    return {"cfg": cfg, "csv": csv_path}


@pytest.fixture(scope="module")
def dir_fixture(tmp_path_factory):
    """16x16 color pixmap-directory corpus plus a config."""
    root = tmp_path_factory.mktemp("dirdata")
    data = root / "data"
    train = make_synthetic_manifest(per_class=3, size=16, channels=3,
                                    seed=41, split="train")
    test = make_synthetic_manifest(per_class=2, size=16, channels=3,
                                   seed=42, split="test")
    write_pixmap_dir(data / "train", train)
    write_pixmap_dir(data / "test", test)
    cfg = root / "dir.cfg"
    cfg.write_text(
        f"""\
dataset = dir
data_root = {data}
batch_size = 8
lr = 0.01
seed = 9
input_size = 16
stem_channels = 4,8,8
se_reduction = 4
residual_channels = 8:8:1
aap_output = 1,1
""", encoding="utf-8")
    return {"cfg": cfg, "data": data}


@pytest.fixture(scope="module")
def trained_run(fer_fixture, tmp_path_factory):
    """One 2-epoch training run; shared by the artifact/eval/predict tests."""
    out = tmp_path_factory.mktemp("run")
    code, stdout, stderr = run_cli("train", "--config", str(fer_fixture["cfg"]),
                                   "--epochs", "2", "--out", str(out))
    assert code == 0, stderr
    return {"out": out, "stdout": stdout, **fer_fixture}


@pytest.fixture(scope="module")
def memorize_run(tmp_path_factory):
    """A run that reaches 100% on its own data (test split = train split),
    so best.ckpt is a perfect-memorization checkpoint."""
    root = tmp_path_factory.mktemp("memorize")
    data = root / "data"
    manifest = make_synthetic_manifest(per_class=2, size=16, channels=3,
                                       seed=41, split="train")
    write_pixmap_dir(data / "train", manifest)
    write_pixmap_dir(data / "test", manifest)
    cfg = root / "memorize.cfg"
    cfg.write_text(
        f"""\
dataset = dir
data_root = {data}
batch_size = 8
lr = 0.03
epochs = 25
seed = 13
input_size = 16
stem_channels = 4,8,8
se_reduction = 4
residual_channels = 8:8:1
aap_output = 1,1
""", encoding="utf-8")
    out = root / "run"
    code, stdout, stderr = run_cli("train", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    assert "eval_acc=100.00" in stdout, "the run never memorized its data:\n" + stdout
    return {"out": out, "stdout": stdout, "data": data}


@pytest.fixture(scope="module")
def plateau_run(tmp_path_factory):
    """Degenerate corpus (one repeated image, one class): accuracy pins at
    100 from the first epoch, so the scheduler's patience clock just runs."""
    root = tmp_path_factory.mktemp("plateau")
    image = np.stack([class_pattern(3, 16)] * 3)
    samples = [Sample(pixels=image.copy(), label=3, source_id=f"s{i}")
               for i in range(8)]
    manifest = DatasetManifest.from_samples("plateau", "train", samples)
    write_pixmap_dir(root / "data" / "train", manifest)
    write_pixmap_dir(root / "data" / "test", manifest)
    cfg = root / "plateau.cfg"
    cfg.write_text(
        f"""\
dataset = dir
data_root = {root / 'data'}
batch_size = 8
lr = 0.001
patience = 2
epochs = 8
seed = 13
input_size = 16
stem_channels = 4,8,8
se_reduction = 4
residual_channels = 8:8:1
aap_output = 1,1
""", encoding="utf-8")
    out = root / "run"
    code, stdout, stderr = run_cli("train", "--config", str(cfg), "--out", str(out))
    assert code == 0, stderr
    return {"out": out, "stdout": stdout, "data": root / "data"}


# --- train -----------------------------------------------------------------

def test_train_smoke_two_epochs_writes_artifacts(trained_run):
    lines = epoch_lines(trained_run["stdout"])
    assert len(lines) == 2
    for name in ("best.ckpt", "last.ckpt", "metrics.json", "confusion.txt"):
        assert (trained_run["out"] / name).exists(), name
    payload = json.loads((trained_run["out"] / "metrics.json").read_text())
    assert payload["epochs_run"] == 2
    assert len(payload["history"]) == 2
    assert payload["history"][0]["epoch"] == 1
    assert {"train_loss", "eval_accuracy", "lr"} <= set(payload["history"][0])
    assert "matrix" in payload["report"]


def test_epoch_line_is_machine_parseable(trained_run):
    for line in epoch_lines(trained_run["stdout"]):
        match = EPOCH_LINE.match(line)
        assert match, line
        float(match.group(2)), float(match.group(3)), float(match.group(4))


def test_final_report_loads_best_checkpoint_with_no_model_alive(dir_fixture, tmp_path,
                                                               monkeypatch):
    """The trained model and its velocity are released before `best.ckpt`
    is loaded for the report, so the load does not stack a third copy of
    the parameters on them."""
    text = dir_fixture["cfg"].read_text()
    assert "residual_channels = 8:8:1" in text
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(text.replace("residual_channels = 8:8:1", "residual_channels = 8:256:1"),
                   encoding="utf-8")
    load = checkpoint.load
    seen = []

    def spy(*args, **kwargs):
        entered = tracemalloc.get_traced_memory()[0]
        loaded = load(*args, **kwargs)
        seen.append((entered, sum(p.data.nbytes for _, p in loaded.model.named_parameters())))
        return loaded

    monkeypatch.setattr(checkpoint, "load", spy)
    tracemalloc.start()
    try:
        code = cli.main(["train", "--config", str(cfg), "--epochs", "1",
                         "--out", str(tmp_path / "run")])
    finally:
        tracemalloc.stop()
    assert code == 0
    (entered, parameters), = seen
    assert entered < parameters, f"{entered} bytes held at load, parameters {parameters}"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_loads_both_splits_in_the_training_dtype(dir_fixture, tmp_path, monkeypatch,
                                                       dtype):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(dir_fixture["cfg"].read_text() + f"dtype = {dtype}\n", encoding="utf-8")
    train_model = cli.train_model
    seen = []

    def spy(cfg, *manifests, **kwargs):
        seen.append({s.pixels.dtype for m in manifests for s in m.samples})
        return train_model(cfg, *manifests, **kwargs)

    monkeypatch.setattr(cli, "train_model", spy)
    code = cli.main(["train", "--config", str(cfg), "--epochs", "1",
                     "--out", str(tmp_path / "run")])
    assert code == 0
    assert seen == [{np.dtype(dtype)}]


def test_predict_forward_starts_with_one_copy_of_the_parameters(dir_fixture, tmp_path,
                                                              monkeypatch):
    """`predict` loads only the model: a training checkpoint's velocity is
    not read, and nothing but the model outlives the load."""
    config = ModelConfig(input_size=16, stem_channels=(4, 8, 8), se_reduction=4,
                         residual_channels=((8, 256, 1),), seed=9)
    with using_dtype("float32"):
        model = build_model(config)
    optimizer = SgdState(lr=0.01, momentum=0.9)
    optimizer.velocity = {name: np.ones_like(p.data) for name, p in model.named_parameters()}
    path = tmp_path / "train.ckpt"
    checkpoint.save(model, optimizer, PlateauScheduler(), 1, path)
    del model, optimizer
    forward = ResEmoteNetModel.forward
    seen = []

    def spy(self, *args, **kwargs):
        seen.append((tracemalloc.get_traced_memory()[0],
                     sum(p.data.nbytes for _, p in self.named_parameters())))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(ResEmoteNetModel, "forward", spy)
    tracemalloc.start()
    try:
        code = cli.main(["predict", str(_one_image(dir_fixture)), "--checkpoint", str(path)])
    finally:
        tracemalloc.stop()
    assert code == 0
    (entered, parameters), = seen
    # 1.05x here; 2.01x when the velocity was read as well
    assert entered <= 1.25 * parameters, f"{entered / parameters:.2f} x the parameters"


def test_config_echo_shows_recipe_defaults():
    # no dataset on disk: the echo still prints, then the loader fails (2)
    code, stdout, stderr = run_cli("train")
    assert code == 2
    assert "error:" in stderr
    assert "  batch_size = 16" in stdout
    assert "  epochs = 80" in stdout
    assert "  lr = 0.001" in stdout
    assert "  factor = 0.1" in stdout
    assert "  augment = true" in stdout


def test_config_echo_is_exhaustive():
    code, stdout, _ = run_cli("train")
    assert code == 2
    echoed = {line.split("=")[0].strip()
              for line in stdout.splitlines() if " = " in line}
    assert {f.name for f in fields(RunConfig)} <= echoed


def test_flag_overrides_beat_config_file(fer_fixture, tmp_path):
    code, stdout, _ = run_cli("train", "--config", str(fer_fixture["cfg"]),
                              "--epochs", "1", "--batch-size", "4",
                              "--lr", "0.5", "--out", str(tmp_path / "o"))
    assert code == 0
    assert "  epochs = 1" in stdout
    assert "  batch_size = 4" in stdout
    assert "  lr = 0.5" in stdout


def test_same_config_and_seed_repeat_first_epoch_loss(dir_fixture, tmp_path):
    outputs = []
    for name in ("a", "b"):
        code, stdout, stderr = run_cli(
            "train", "--config", str(dir_fixture["cfg"]), "--epochs", "1",
            "--out", str(tmp_path / name))
        assert code == 0, stderr
        outputs.append(epoch_lines(stdout)[0])
    assert outputs[0] == outputs[1]


def test_resume_continues_epoch_numbering(dir_fixture, tmp_path):
    code, stdout, stderr = run_cli("train", "--config", str(dir_fixture["cfg"]),
                                   "--epochs", "2", "--out", str(tmp_path / "first"))
    assert code == 0, stderr
    code, stdout, stderr = run_cli(
        "train", "--config", str(dir_fixture["cfg"]), "--epochs", "4",
        "--checkpoint", str(tmp_path / "first" / "last.ckpt"),
        "--out", str(tmp_path / "second"))
    assert code == 0, stderr
    numbers = [int(EPOCH_LINE.match(line).group(1))
               for line in epoch_lines(stdout)]
    assert numbers == [3, 4]


def test_resumed_run_reports_the_best_checkpoint_it_kept(dir_fixture, tmp_path):
    """At a rate too small to change a prediction no resumed epoch
    improves, so the run's best is the first session's best.ckpt."""
    out = tmp_path / "run"
    train = ["train", "--config", str(dir_fixture["cfg"]), "--lr", "1e-9",
             "--out", str(out)]
    code, _, stderr = run_cli(*train, "--epochs", "2")
    assert code == 0, stderr
    code, stdout, stderr = run_cli(*train, "--epochs", "4",
                                   "--checkpoint", str(out / "last.ckpt"))
    assert code == 0, stderr
    best = checkpoint.load(out / "best.ckpt")
    assert best.epoch <= 2
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["best_epoch"] == best.epoch
    assert payload["best_accuracy"] == best.best_metric
    assert stdout.splitlines()[-1] == \
        f"best epoch {best.epoch} accuracy {best.best_metric:.2f}"


def test_resume_that_improves_on_nothing_reports_its_last_epoch(dir_fixture, tmp_path):
    """Resumed into a new --out at a rate too small to change a prediction,
    no epoch improves, so the run writes no best.ckpt: it reports its last
    epoch, keeps the resumed best accuracy, and names no best epoch."""
    train = ["train", "--config", str(dir_fixture["cfg"]), "--lr", "1e-9"]
    code, _, stderr = run_cli(*train, "--epochs", "2", "--out", str(tmp_path / "first"))
    assert code == 0, stderr
    resumed = tmp_path / "first" / "last.ckpt"
    out = tmp_path / "second"
    code, stdout, stderr = run_cli(*train, "--epochs", "4", "--checkpoint", str(resumed),
                                   "--out", str(out))
    assert code == 0, stderr
    assert not (out / "best.ckpt").exists()
    resumed_best = checkpoint.load(resumed).best_metric
    payload = json.loads((out / "metrics.json").read_text())
    last = payload["history"][-1]
    assert last["epoch"] == 4
    assert payload["best_epoch"] is None
    assert payload["best_accuracy"] == resumed_best
    assert payload["report"]["accuracy"] == last["eval_accuracy"]
    code, _, stderr = run_cli("eval", "--checkpoint", str(out / "last.ckpt"),
                              "--config", str(dir_fixture["cfg"]),
                              "--out", str(tmp_path / "evalout"))
    assert code == 0, stderr
    assert (out / "confusion.txt").read_bytes() == \
        (tmp_path / "evalout" / "confusion.txt").read_bytes()
    assert stdout.splitlines()[-1] == (
        f"last epoch 4 accuracy {last['eval_accuracy']:.2f}; no epoch of this run "
        f"improved on the resumed best accuracy {resumed_best:.2f}")
    assert "epoch 0" not in stdout


def test_final_report_of_a_run_without_best_frees_the_optimizer_first(dir_fixture, tmp_path,
                                                                     monkeypatch):
    """With no best.ckpt, the report scores last.ckpt once the run's velocity
    is gone, as it does best.ckpt."""
    train = ["train", "--config", str(dir_fixture["cfg"]), "--lr", "1e-9"]
    code, _, stderr = run_cli(*train, "--epochs", "1", "--out", str(tmp_path / "first"))
    assert code == 0, stderr
    train_model, evaluate_model = cli.train_model, cli.evaluate_model
    optimizers, alive = [], []

    def train_spy(*args, **kwargs):
        result = train_model(*args, **kwargs)
        optimizers.append(weakref.ref(result.optimizer))
        return result

    def evaluate_spy(*args, **kwargs):
        alive.append(optimizers[0]() is not None)
        return evaluate_model(*args, **kwargs)

    monkeypatch.setattr(cli, "train_model", train_spy)
    monkeypatch.setattr(cli, "evaluate_model", evaluate_spy)
    out = tmp_path / "second"
    code = cli.main([*train, "--epochs", "2", "--out", str(out),
                     "--checkpoint", str(tmp_path / "first" / "last.ckpt")])
    assert code == 0
    assert not (out / "best.ckpt").exists()
    assert alive == [False]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_unusable_out_leaves_nothing_on_stdout_but_the_config_echo(command, dir_fixture,
                                                                       tmp_path):
    """`train` echoes its configuration and stops; `eval` prints nothing."""
    argv = (["train", "--config", str(dir_fixture["cfg"])] if command == "train" else
            ["eval", "--config", str(dir_fixture["cfg"]),
             "--checkpoint", str(tmp_path / "absent.ckpt")])
    code, stdout, stderr = run_cli(*argv, "--out", str(_regular_file(tmp_path)))
    assert code == 2, stderr
    assert "cannot make a directory at" in stderr
    if command == "eval":
        assert stdout == ""
    else:
        head, *echo = stdout.splitlines()
        assert head == "effective configuration:"
        assert all(re.fullmatch(r"  \w+ = .*", line) for line in echo)


def test_resume_notes_each_run_value_the_checkpoint_replaces(trained_run, tmp_path):
    resume = ["train", "--config", str(trained_run["cfg"]), "--epochs", "3",
              "--checkpoint", str(trained_run["out"] / "last.ckpt")]
    code, _, stderr = run_cli(*resume, "--out", str(tmp_path / "same"))
    assert code == 0, stderr
    assert stderr == ""
    code, stdout, stderr = run_cli(*resume, "--lr", "0.5", "--out", str(tmp_path / "other"))
    assert code == 0, stderr
    assert stderr == (f"note: resuming from {trained_run['out'] / 'last.ckpt'} with its "
                      f"own lr = 0.01 (run: 0.5)\n")
    assert "  lr = 0.5" in stdout  # the echo still shows the run's value
    assert float(EPOCH_LINE.match(epoch_lines(stdout)[0]).group(4)) == 0.01


def test_plateau_cuts_lr_by_factor_ten(plateau_run):
    rates = [float(EPOCH_LINE.match(line).group(4))
             for line in epoch_lines(plateau_run["stdout"])]
    assert rates[0] == pytest.approx(0.001)
    assert 0.0001 in [pytest.approx(r) for r in rates]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_config_parse_error_names_the_line(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs = pony\n", encoding="utf-8")
    code, _, stderr = run_cli("train", "--config", str(bad))
    assert code == 2
    assert "line 1" in stderr
    assert "epochs" in stderr


def test_resume_from_malformed_rng_state_exits_2(trained_run, tmp_path):
    bad = _tampered(trained_run["out"] / "last.ckpt", tmp_path / "bad_rng.ckpt",
                    lambda header: header["rng_state"]["state"].update(state="0"))
    code, _, stderr = run_cli("train", "--config", str(trained_run["cfg"]),
                              "--epochs", "3", "--checkpoint", str(bad),
                              "--out", str(tmp_path / "resumed"))
    assert code == 2, stderr
    assert "header field 'rng_state' is not a PCG64 generator state" in stderr


# --- eval ------------------------------------------------------------------

def test_eval_reports_accuracy_two_decimals(trained_run):
    code, stdout, stderr = run_cli(
        "eval", "--checkpoint", str(trained_run["out"] / "best.ckpt"),
        "--dataset", "fer2013", "--data-root", str(trained_run["csv"]),
        "--split", "test")
    assert code == 0, stderr
    first = stdout.splitlines()[0]
    assert re.fullmatch(r"accuracy: \d+\.\d{2}", first), first
    assert "confusion matrix" in stdout


def test_eval_memorizing_checkpoint_scores_100_on_its_data(memorize_run):
    code, stdout, stderr = run_cli(
        "eval", "--checkpoint", str(memorize_run["out"] / "best.ckpt"),
        "--dataset", "dir", "--data-root", str(memorize_run["data"]),
        "--split", "train")
    assert code == 0, stderr
    assert stdout.splitlines()[0] == "accuracy: 100.00"


def test_eval_writes_reports_under_out(trained_run, tmp_path):
    out = tmp_path / "evalout"
    code, _, stderr = run_cli(
        "eval", "--checkpoint", str(trained_run["out"] / "best.ckpt"),
        "--dataset", "fer2013", "--data-root", str(trained_run["csv"]),
        "--out", str(out))
    assert code == 0, stderr
    assert (out / "confusion.txt").exists()
    payload = json.loads((out / "metrics.json").read_text())
    assert "accuracy" in payload


def test_eval_scores_in_the_checkpoint_dtype(trained_run, monkeypatch):
    """A float32 checkpoint is scored on float32 pixels by a float32 model,
    as `train` scored it, whatever the element type in effect."""
    evaluate_model = cli.evaluate_model
    seen = []

    def spy(model, manifest):
        seen.append(({s.pixels.dtype for s in manifest.samples},
                     {p.data.dtype for _, p in model.named_parameters()}))
        return evaluate_model(model, manifest)

    monkeypatch.setattr(cli, "evaluate_model", spy)
    code = cli.main(["eval", "--checkpoint", str(trained_run["out"] / "best.ckpt"),
                     "--config", str(trained_run["cfg"])])
    assert code == 0
    assert seen == [({np.dtype(np.float32)}, {np.dtype(np.float32)})]


def test_eval_writes_the_report_train_wrote(trained_run, tmp_path):
    out = tmp_path / "evalout"
    code, _, stderr = run_cli("eval", "--checkpoint", str(trained_run["out"] / "best.ckpt"),
                              "--config", str(trained_run["cfg"]), "--out", str(out))
    assert code == 0, stderr
    assert (out / "confusion.txt").read_bytes() == \
        (trained_run["out"] / "confusion.txt").read_bytes()


def test_eval_missing_dataset_exits_2(trained_run, tmp_path):
    code, _, stderr = run_cli(
        "eval", "--checkpoint", str(trained_run["out"] / "best.ckpt"),
        "--dataset", "dir", "--data-root", str(tmp_path / "void"))
    assert code == 2
    assert stderr


# --- predict ---------------------------------------------------------------

def _one_image(run) -> Path:
    return sorted((run["data"] / "test").rglob("*.ppm"))[0]


def test_predict_prints_normalized_distribution(memorize_run):
    code, stdout, stderr = run_cli(
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", str(memorize_run["out"] / "best.ckpt"))
    assert code == 0, stderr
    lines = stdout.splitlines()
    probs = {}
    for line in lines[:-1]:
        name, value = line.split()
        probs[name] = float(value)
    assert set(probs) == set(CLASS_NAMES)
    assert abs(sum(probs.values()) - 1.0) <= 1e-6
    predicted = lines[-1].removeprefix("predicted: ")
    assert predicted == max(probs, key=probs.get)


def _tampered(source: Path, target: Path, mutate) -> Path:
    """A copy of checkpoint `source` at `target` with `mutate` applied to
    its JSON header."""
    blob = source.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + header_len])
    mutate(header)
    new_header = json.dumps(header).encode()
    target.write_bytes(blob[:8] + len(new_header).to_bytes(8, "little") + new_header
                       + blob[16 + header_len:])
    return target


def test_predict_argmax_survives_logit_shift(memorize_run):
    image = str(_one_image(memorize_run))
    ckpt = str(memorize_run["out"] / "best.ckpt")
    _, base, _ = run_cli("predict", image, "--checkpoint", ckpt)
    _, shifted, _ = run_cli("predict", image, "--checkpoint", ckpt,
                            "--logit-shift", "42.5")
    assert base.splitlines()[-1] == shifted.splitlines()[-1]


def test_predict_logit_shift_moves_no_probability_of_a_float32_checkpoint(memorize_run):
    """The float32 model's logits are shifted in float64: a shift of 1e6
    rounded in float32 (ulp 0.0625) would move the printed digits."""
    ckpt = memorize_run["out"] / "best.ckpt"
    assert checkpoint.load(ckpt, model_only=True).model.dtype == np.float32
    rows = []
    for shift in ("0", "1e6"):
        code, stdout, stderr = run_cli("predict", str(_one_image(memorize_run)),
                                       "--checkpoint", str(ckpt), "--logit-shift", shift)
        assert code == 0, stderr
        rows.append([float(line.split()[1]) for line in stdout.splitlines()[:-1]])
    np.testing.assert_allclose(rows[1], rows[0], rtol=0, atol=1e-7)


def test_predict_agrees_with_eval_on_singleton_manifest(memorize_run, tmp_path):
    image = _one_image(memorize_run)
    ckpt = str(memorize_run["out"] / "best.ckpt")
    _, stdout, _ = run_cli("predict", str(image), "--checkpoint", ckpt)
    predicted = stdout.splitlines()[-1].removeprefix("predicted: ")

    # a one-image manifest labeled with that prediction must score 100.00
    singleton = tmp_path / "single" / "test"
    singleton.mkdir(parents=True)
    (singleton / image.name).write_bytes(image.read_bytes())
    (singleton / MANIFEST).write_text(f"{image.name}\t{predicted}\n",
                                            encoding="utf-8")
    code, stdout, stderr = run_cli("eval", "--checkpoint", ckpt,
                                   "--dataset", "dir",
                                   "--data-root", str(tmp_path / "single"))
    assert code == 0, stderr
    assert stdout.splitlines()[0] == "accuracy: 100.00"


# --- gradcheck -------------------------------------------------------------

@pytest.fixture
def one_trial_gradcheck(monkeypatch):
    monkeypatch.setitem(cli.GRADCHECK_TRIALS, "tiny", 1)


def test_gradcheck_tiny_passes_and_reports_components(one_trial_gradcheck, capsys):
    code = cli.main(["gradcheck", "tiny"])
    stdout, stderr = capsys.readouterr()
    assert code == 0, stderr
    assert "conv2d" in stdout
    assert "max_rel_err" in stdout
    assert "FAIL" not in stdout


def test_gradcheck_injected_fault_fails_naming_the_op(one_trial_gradcheck, capsys):
    code = cli.main(["gradcheck", "tiny", "--inject-fault", "max_pool2d"])
    _, stderr = capsys.readouterr()
    assert code == 1
    assert re.search(r"FAIL max_pool2d", stderr), stderr


@pytest.mark.parametrize("op,failing", [
    ("mul", {"mul", "mul_broadcast", "se_block"}),
    ("sum", {"sum"}),
])
def test_gradcheck_fault_fails_only_the_components_that_record_the_op(
        op, failing, one_trial_gradcheck, capsys):
    """The projection that reads a component's output out to a scalar is
    itself a mul and a sum; a fault in those ops leaves it alone."""
    code = cli.main(["gradcheck", "tiny", "--inject-fault", op])
    stdout, _ = capsys.readouterr()
    failed = {line.split()[0] for line in stdout.splitlines() if "FAIL" in line}
    assert code == 1
    assert failed == failing


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gradcheck_prints_nan_for_a_non_finite_gradient(value, monkeypatch, capsys):
    # trial 0 is correct, so a smaller earlier error is there to be kept
    ops = iter([lambda x: x, lambda x: oracles.poisoned(x, value)])

    def sample(rng):
        op = next(ops)
        x = Tensor(rng.uniform(1.0, 2.0, (2, 3)), requires_grad=True)
        return lambda x: ad.tensor_sum(ad.mul(op(x), x)), [("x", x)]

    monkeypatch.setattr(verification, "COMPONENTS", {"poisoned": sample})
    monkeypatch.setitem(cli.GRADCHECK_TRIALS, "tiny", 2)
    code = cli.main(["gradcheck", "tiny"])
    stdout, stderr = capsys.readouterr()
    assert code == 1
    assert re.search(r"^poisoned +trials=2 max_rel_err=nan FAIL \(1 trials\)$",
                     stdout, re.M), stdout
    assert re.search(r"max_rel_err: nan  tol: ", stdout), stdout
    assert stderr == "FAIL poisoned: trial 1: x rel_err=nan\n"


# --- exit codes ------------------------------------------------------------

def _config(tmp_path, text) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _malformed_header(memorize_run, tmp_path):
    bad = _tampered(memorize_run["out"] / "best.ckpt", tmp_path / "no_tensors.ckpt",
                    lambda header: header.pop("tensors"))
    return ["predict", str(_one_image(memorize_run)), "--checkpoint", str(bad)]


def _huge_input_size(memorize_run, tmp_path) -> str:
    """best.ckpt with a header `input_size` no image can be resized to; the
    model itself builds, since no weight depends on the input size."""
    return str(_tampered(memorize_run["out"] / "best.ckpt", tmp_path / "huge_size.ckpt",
                         lambda header: header["config"].update(input_size=10**20)))


def _not_a_pixmap(memorize_run, tmp_path):
    image = tmp_path / "photo.png"
    image.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(32))
    return ["predict", str(image), "--checkpoint", str(memorize_run["out"] / "best.ckpt")]


def _overflowing(memorize_run, tmp_path) -> str:
    """best.ckpt with its classifier weights at +-float32 max, alternating in
    sign: every tensor is finite, but the logits overflow."""
    loaded = checkpoint.load(memorize_run["out"] / "best.ckpt")
    weight = loaded.model.classifier.weight.data.reshape(-1)
    weight[...] = np.finfo(np.float32).max
    weight[1::2] *= -1
    path = tmp_path / "overflowing.ckpt"
    checkpoint.save(loaded.model, loaded.optimizer, loaded.scheduler, loaded.epoch, path,
                    rng_state=loaded.rng_state, best_metric=loaded.best_metric)
    return str(path)


def _regular_file(tmp_path) -> Path:
    path = tmp_path / "taken"
    path.write_text("not a directory\n", encoding="utf-8")
    return path


# Each row builds its argv from the fixtures its builder's parameters name.
# 0 success, 1 internal failure (a failed audit), 2 usage, data or divergence.
EXIT_CODES = [
    pytest.param(lambda memorize_run: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", str(memorize_run["out"] / "best.ckpt")],
        0, r"\A\Z", id="predict-ok"),
    pytest.param(lambda dir_fixture, tmp_path: [
        "train", "--config", str(dir_fixture["cfg"]), "--epochs", "4",
        "--lr", "1e30", "--out", str(tmp_path / "run")],
        2, r"\Aerror: epoch 1, batch \d+: non-finite training "
        r"loss \S+; no update was made from it \(lower the learning rate\)$",
        id="divergent-training"),
    pytest.param(lambda dir_fixture, tmp_path: [
        "train", "--config", str(dir_fixture["cfg"]), "--epochs", "4",
        "--lr", "1e4", "--batch-size", "4", "--out", str(tmp_path / "run")],
        2, r"\Aerror: epoch 1, batch \d+: non-finite batch-norm "
        r"statistic 'stem\.1\.bn\.running_var'; no update was made from it \(lower the "
        r"learning rate\)$", id="divergent-statistics"),
    pytest.param(lambda dir_fixture, tmp_path: [
        "train", "--config", str(dir_fixture["cfg"]), "--epochs", "4",
        "--lr", "1e4", "--out", str(tmp_path / "run")],
        2, r"\Aerror: epoch 1, held-out batch 1: non-finite "
        r"logits; the model has diverged \(lower the learning rate\)$",
        id="divergent-eval"),
    pytest.param(lambda memorize_run, tmp_path: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", _overflowing(memorize_run, tmp_path)],
        2, r"\Aerror: \S*\.ppm: non-finite logits; the model has diverged \(lower the "
        r"learning rate\)$", id="divergent-predict"),
    pytest.param(lambda memorize_run, tmp_path: [
        "eval", "--checkpoint", _overflowing(memorize_run, tmp_path),
        "--dataset", "dir", "--data-root", str(memorize_run["data"])],
        2, r"\Aerror: held-out batch 1: non-finite logits; the model has diverged \(lower "
        r"the learning rate\)$", id="divergent-eval-command"),
    pytest.param(lambda: ["train", "--bogus-flag", "1"],
                 2, r"unrecognized arguments: --bogus-flag", id="unknown-flag"),
    pytest.param(lambda tmp_path: [
        "train", "--dataset", "fer2013", "--data-root", str(tmp_path / "nope.csv")],
        2, r"nope\.csv", id="missing-dataset"),
    pytest.param(lambda tmp_path: ["train", "--config", _config(tmp_path, "epochs 3\n")],
                 2, r"run\.cfg: line 1: expected 'key = value'", id="config-parse-error"),
    pytest.param(lambda tmp_path: ["train", "--config", _config(tmp_path, "lr = nan\n")],
                 2, r"lr must be finite", id="non-finite-lr"),
    pytest.param(lambda tmp_path: [
        "train", "--config", _config(tmp_path, "stem_channels = 0,8,8\n"),
        "--dataset", "dir", "--data-root", str(tmp_path / "absent")],
        2, r"\Aerror: stem_channels must all be >= 1, got \(0, 8, 8\)$",
        id="zero-stem-width"),
    pytest.param(lambda tmp_path: [
        "train", "--config", _config(tmp_path, "input_channels = 2\n"),
        "--dataset", "dir", "--data-root", str(tmp_path / "absent")],
        2, r"\Aerror: input_channels must be 1 or 3, got 2$", id="two-input-channels"),
    pytest.param(_malformed_header, 2, r"'tensors' is missing", id="malformed-header"),
    pytest.param(lambda memorize_run, tmp_path: [
        "predict", str(_one_image(memorize_run)), "--checkpoint", str(_tampered(
            memorize_run["out"] / "best.ckpt", tmp_path / "huge_width.ckpt",
            lambda header: header["config"].update(
                stem_channels=[4, 8, 10**20], residual_channels=[[10**20, 8, 1]])))],
        2, r"\Aerror: \S*huge_width\.ckpt: header field 'config': cannot allocate the "
        r"model of ModelConfig\(", id="unallocatable-header-width"),
    pytest.param(lambda memorize_run, tmp_path: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", _huge_input_size(memorize_run, tmp_path)],
        2, r"\Aerror: \S*\.ppm: cannot resize to 10{20}x10{20}: ",
        id="unresizable-header-size-predict"),
    pytest.param(lambda memorize_run, tmp_path: [
        "eval", "--checkpoint", _huge_input_size(memorize_run, tmp_path),
        "--dataset", "dir", "--data-root", str(memorize_run["data"])],
        2, r"\Aerror: \S*\.ppm: cannot resize to 10{20}x10{20}: ",
        id="unresizable-header-size-eval"),
    pytest.param(lambda memorize_run, tmp_path: [
        "eval", "--checkpoint", str(_tampered(
            memorize_run["out"] / "best.ckpt", tmp_path / "huge_lr.ckpt",
            lambda header: header["optimizer"].update(lr=10**400)))],
        2, r"huge_lr\.ckpt: header field 'optimizer\.lr' must be finite",
        id="huge-header-lr"),
    pytest.param(lambda trained_run, tmp_path: [
        "train", "--config", _config(tmp_path, trained_run["cfg"].read_text()
                                     + "dtype = float64\n"),
        "--epochs", "3", "--checkpoint", str(trained_run["out"] / "last.ckpt"),
        "--out", str(tmp_path / "run")],
        2, r"\Aerror: \S*last\.ckpt: checkpoint holds float32 tensors but the run's "
        r"dtype is float64$", id="cross-type-resume"),
    pytest.param(lambda trained_run, tmp_path: [
        "train", "--config", str(trained_run["cfg"]), "--epochs", "2",
        "--checkpoint", str(trained_run["out"] / "last.ckpt"),
        "--out", str(tmp_path / "run")],
        2, r"\Aerror: epochs = 2 leaves nothing to run after \S*last\.ckpt, which ends "
        r"at epoch 2$", id="resume-with-no-epoch-left"),
    pytest.param(lambda memorize_run, tmp_path: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", str(tmp_path / "absent.ckpt")],
        2, r"cannot read checkpoint .*absent\.ckpt", id="missing-checkpoint"),
    pytest.param(_not_a_pixmap, 2, r"photo\.png: not a binary pixmap", id="not-a-pixmap"),
    pytest.param(lambda memorize_run: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", str(memorize_run["out"] / "best.ckpt"), "--logit-shift", "nan"],
        2, r"\Aerror: --logit-shift must be finite, got nan$", id="nan-logit-shift"),
    pytest.param(lambda memorize_run: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", str(memorize_run["out"] / "best.ckpt"), "--logit-shift", "inf"],
        2, r"\Aerror: --logit-shift must be finite, got inf$", id="inf-logit-shift"),
    pytest.param(lambda memorize_run: [
        "predict", str(_one_image(memorize_run)),
        "--checkpoint", str(memorize_run["out"] / "best.ckpt"), "--logit-shift", "1e17"],
        2, r"\Aerror: --logit-shift must be within \+-1e\+06, got 1e\+17$",
        id="huge-logit-shift"),
    pytest.param(lambda memorize_run: [
        "eval", "--checkpoint", str(memorize_run["out"] / "best.ckpt"), "--seed", "1"],
        2, r"unrecognized arguments: --seed 1", id="eval-seed"),
    pytest.param(lambda dir_fixture, tmp_path: [
        "train", "--config",
        _config(tmp_path, dir_fixture["cfg"].read_text() + "num_classes = 3\n"),
        "--epochs", "1", "--out", str(tmp_path / "run")],
        2, r"\Aerror: \S*data[/\\]train \(train split\): 3 samples of class 'Happy' "
        r"\(label 3\), which a 3-class model cannot output$", id="label-beyond-num-classes"),
    # refused before the absent data and checkpoint are read
    pytest.param(lambda dir_fixture, tmp_path: [
        "train", "--config", str(dir_fixture["cfg"]), "--epochs", "1",
        "--data-root", str(tmp_path / "absent"), "--out", str(_regular_file(tmp_path))],
        2, r"\Aerror: out_dir: cannot make a directory at \S*taken: ", id="train-out-is-a-file"),
    pytest.param(lambda memorize_run, tmp_path: [
        "eval", "--checkpoint", str(tmp_path / "absent.ckpt"), "--dataset", "dir",
        "--data-root", str(tmp_path / "absent"), "--out", str(_regular_file(tmp_path))],
        2, r"\Aerror: --out: cannot make a directory at \S*taken: ", id="eval-out-is-a-file"),
    pytest.param(lambda: ["gradcheck", "tiny", "--seed", "-1"],
                 2, r"\Aerror: seed must be >= 0, got -1$", id="gradcheck-negative-seed"),
    pytest.param(lambda: ["gradcheck", "tiny", "--inject-fault", "nosuchop"],
                 2, r"\Aerror: .*no op 'nosuchop'; it records .*max_pool2d",
                 id="gradcheck-unknown-op"),
]


@pytest.mark.parametrize("argv, code, stderr_pattern", EXIT_CODES)
def test_exit_code(argv, code, stderr_pattern, request, tmp_path):
    fixtures = {name: request.getfixturevalue(name)
                for name in inspect.signature(argv).parameters}
    got, stdout, stderr = run_cli(*argv(**fixtures))
    assert got == code, stderr
    assert re.search(stderr_pattern, stderr), stderr
    # no row gets as far as a finished epoch or leaves a checkpoint behind
    assert epoch_lines(stdout) == []
    assert not list((tmp_path / "run").glob("*.ckpt"))


@pytest.mark.parametrize("argv, code, stderr_pattern", [
    row for row in EXIT_CODES if row.id in ("divergent-predict", "divergent-eval-command")])
def test_overflowing_logits_print_nothing_on_stdout(argv, code, stderr_pattern, request,
                                                    tmp_path):
    # predict once printed nan for every class, two RuntimeWarnings and exit 0
    fixtures = {name: request.getfixturevalue(name)
                for name in inspect.signature(argv).parameters}
    got, stdout, stderr = run_cli(*argv(**fixtures))
    assert (got, stdout) == (code, "")
    assert "RuntimeWarning" not in stderr
