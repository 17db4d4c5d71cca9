"""`scripts/ab.py`'s summary of paired benchmark runs, on canned output."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _output(rss, setup, rate, failed=0, with_rate=True):
    """What `perfbench/run.py` prints: stray lines, the report, the result."""
    named = {"setup_s": {"value": setup, "unit": "s"},
             "peak_rss_mb": {"value": rss, "unit": "MB"}}
    if with_rate:
        named["train.samples_per_s"] = {"value": rate, "unit": "1/s"}
    report = {"report": {"workload": "train_default", "named": named}}
    result = {"correct": failed == 0, "attempted": 4, "failed": failed,
              "metrics": {"setup_s": {"value": setup, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "warming up\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def test_parse_run_reads_the_last_two_lines():
    run = ab.parse_run(_output(700.0, 1.5, 12.0, failed=1))
    assert run == {"failed": 1, "gated": ["peak_rss_mb", "setup_s"],
                   "values": {"setup_s": 1.5, "peak_rss_mb": 700.0,
                              "train.samples_per_s": 12.0},
                   "units": {"setup_s": "s", "peak_rss_mb": "MB",
                             "train.samples_per_s": "1/s"}}


def test_summary_has_each_sides_values_medians_and_failures():
    base = [(800.0, 1.0, 12.0), (796.0, 1.4, 13.0), (798.0, 1.2, 11.0), (797.0, 1.1, 12.5)]
    change = [(750.0, 1.1, 13.0), (745.0, 1.3, 13.5), (799.0, 1.2, 11.5), (746.0, 1.0, 12.0)]
    pairs = [{"base": ab.parse_run(_output(*b)),
              "change": ab.parse_run(_output(*c, failed=int(i == 2)))}
             for i, (b, c) in enumerate(zip(base, change))]
    summary = ab.summarize(pairs)
    assert summary["pairs"] == 4
    assert summary["failed"] == {"base": 0, "change": 1}
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["gated"] and rss["unit"] == "MB"
    assert rss["base"] == [800.0, 796.0, 798.0, 797.0]
    assert rss["change"] == [750.0, 745.0, 799.0, 746.0]
    assert rss["base_median"] == 797.5 and rss["change_median"] == 748.0
    assert rss["base_iqr"] == pytest.approx(798.5 - 796.75)
    assert rss["change_lower_in"] == 3
    rate = summary["metrics"]["train.samples_per_s"]
    assert not rate["gated"]
    assert rate["base_median"] == 12.25 and rate["change_median"] == 12.5
    assert rate["change_lower_in"] == 1


def test_a_metric_missing_from_any_run_is_left_out():
    pairs = [{"base": ab.parse_run(_output(1.0, 1.0, 1.0)),
              "change": ab.parse_run(_output(1.0, 1.0, 1.0, with_rate=False))}]
    summary = ab.summarize(pairs)
    assert sorted(summary["metrics"]) == ["peak_rss_mb", "setup_s"]
    assert summary["metrics"]["setup_s"]["base_iqr"] == 0.0


def test_a_failed_run_keeps_the_finished_pairs_and_names_its_command(monkeypatch, tmp_path,
                                                                      capsys):
    """The third run fails (the second pair's first side): the output holds
    the first workload's one finished pair, names the failed command, and
    ab exits 1."""
    calls = []

    def run_once(tree, workload, seed):
        calls.append((workload, seed))
        if len(calls) == 3:  # a tree without perfbench/run.py: python exits 2
            return real_run_once(tmp_path, workload, seed)
        return ab.parse_run(_output(700.0 + len(calls), 1.5, 12.0))

    real_run_once = ab.run_once
    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(ab, "export", lambda rev, into: "0" * 40)
    out = tmp_path / "ab.json"
    assert ab.main(["--base", "HEAD", "--pairs", "2", "--seed", "5", "--out", str(out)]) == 1
    summary = json.loads(out.read_text())
    first = calls[0][0]
    assert len(calls) == 3 and calls[2] == (first, 6)
    assert list(summary["workloads"]) == [first]
    done = summary["workloads"][first]
    assert done["pairs"] == 1
    assert done["metrics"]["peak_rss_mb"]["base"] == [701.0]
    assert done["metrics"]["peak_rss_mb"]["change"] == [702.0]
    failed = summary["failed_run"]
    assert failed.startswith(f"perfbench/run.py --workload {first} --seed 6 ")
    assert failed.endswith(f"in {tmp_path} exited 2")
    assert f"ab: {failed}:\n" in capsys.readouterr().err


def test_main_prints_the_summary_as_a_markdown_table(monkeypatch, tmp_path, capsys):
    """Three canned pairs per workload: after the JSON, stdout holds one
    table row per workload and metric, from the summary's own numbers."""
    base = iter([800.0, 796.0, 798.0] * 3)
    change = iter([750.0, 799.0, 746.0] * 3)

    def run_once(tree, workload, seed):
        rss = next(change if tree == ab.ROOT else base)
        return ab.parse_run(_output(rss, 1.5, 12.0))

    monkeypatch.setattr(ab, "run_once", run_once)
    monkeypatch.setattr(ab, "export", lambda rev, into: "0" * 40)
    out = tmp_path / "ab.json"
    assert ab.main(["--base", "HEAD", "--pairs", "3", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| workload | metric | base median | change median | base IQR "
                         "| change lower in |", "|---|---|---|---|---|---|"]
    workloads = list(summary["workloads"])
    assert len(lines) == 2 + 3 * len(workloads)
    for i, workload in enumerate(workloads):
        assert lines[2 + 3 * i:5 + 3 * i] == [
            f"| `{workload}` | `setup_s` | 1.50 | 1.50 | 0.00 | 0/3 |",
            f"| `{workload}` | `peak_rss_mb` | 798.00 | 750.00 | 2.00 | 2/3 |",
            f"| `{workload}` | `train.samples_per_s` (not gated) | 12.00 | 12.00 "
            f"| 0.00 | 0/3 |"]


#: a ``--steps`` worker with canned replies: the side is read off its tree
#: (the exported base is a temporary ``ab-base-*`` directory), and each
#: request is logged, in order, to the file $AB_STEP_LOG
CANNED_WORKER = """
import json, os, sys
from pathlib import Path
side = "base" if Path.cwd().name.startswith("ab-base-") else "change"
seconds = {"base": [1.0, 2.0, 1.0, 2.0], "change": [0.9, 2.2, 0.8, 1.0]}[side]
faults = {"base": [0, 10, 0, 0], "change": [4, 0, 0, 0]}[side]
base_kb = {"base": 358400, "change": 353280}[side]
stop = int(os.environ.get("AB_STOP_AFTER", 1 << 30))
nets = {"wide": {"batch": 16, "steps": 1}, "narrow": {"batch": 32, "steps": 2}}
print(json.dumps({"src": str(Path.cwd() / "src" / "resemotenet" / "__init__.py"),
                  "nets": nets}), flush=True)
for i, line in enumerate(sys.stdin):
    if i == stop:
        sys.exit(3)
    with open(os.environ["AB_STEP_LOG"], "a") as log:
        log.write(f"{side} {line.strip()}\\n")
    k = i % 4
    print(json.dumps({"s": seconds[k], "minflt": faults[k], "maxrss_kb": base_kb + 512 * i}),
          flush=True)
"""


@pytest.fixture
def canned_workers(monkeypatch, tmp_path):
    script = tmp_path / "worker.py"
    script.write_text(CANNED_WORKER)
    monkeypatch.setattr(ab, "worker_command", lambda seed: [ab.sys.executable, str(script)])
    monkeypatch.setattr(ab, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(ab, "PAUSE_S", 0.0)
    monkeypatch.setenv("AB_STEP_LOG", str(tmp_path / "steps.log"))
    return tmp_path / "steps.log"


def test_steps_alternate_the_first_side_and_summarize_each_net(canned_workers, tmp_path,
                                                               capsys):
    """Four rounds a net, net by net, of one step a side on `wide` and two
    on `narrow`: the side that steps first alternates from step to step
    and round to round.  The JSON and the table hold each net's ratios of
    its rounds' times, their median and IQR, the faults per step, and each
    worker's peak RSS at its last step of that net."""
    out = tmp_path / "steps.json"
    assert ab.main(["--base", "HEAD", "--steps", "4", "--seed", "7", "--out", str(out)]) == 0
    ab_ba = [("base", "change"), ("change", "base")]
    assert canned_workers.read_text().splitlines() == [
        f"{side} {net}" for net, steps in (("wide", 1), ("narrow", 2)) for i in range(4)
        for j in range(steps) for side in ab_ba[(i + j) % 2]]
    summary = json.loads(out.read_text())
    assert summary["mode"] == "steps" and summary["rounds"] == 4 and summary["seed"] == 7
    assert list(summary["nets"]) == ["wide", "narrow"]
    wide, narrow = summary["nets"]["wide"], summary["nets"]["narrow"]
    assert (wide["batch"], wide["steps"], narrow["batch"], narrow["steps"]) == (16, 1, 32, 2)
    assert wide["base_s"] == [[1.0], [2.0], [1.0], [2.0]]
    assert wide["change_s"] == [[0.9], [2.2], [0.8], [1.0]]
    assert wide["ratio"] == pytest.approx([0.9, 1.1, 0.8, 0.5])
    assert wide["ratio_median"] == pytest.approx(0.85)
    assert wide["ratio_iqr"] == pytest.approx(0.95 - 0.725)
    assert wide["change_faster_in"] == 3
    assert wide["base_median_s"] == 1.5 and wide["change_median_s"] == pytest.approx(0.95)
    assert wide["base_minflt"] == [0, 10, 0, 0] and wide["change_minflt"] == [4, 0, 0, 0]
    assert wide["base_faults_per_step"] == 2.5 and wide["change_faults_per_step"] == 1.0
    # each worker's 4th of 12 requests: its peak grows 512 KiB a request
    assert wide["base_peak_rss_mb"] == 351.5 and wide["change_peak_rss_mb"] == 346.5
    # each worker's canned replies run on from `wide` into `narrow`'s steps
    assert narrow["base_s"] == [[1.0, 2.0]] * 4
    assert narrow["change_s"] == [[0.9, 2.2], [0.8, 1.0]] * 2
    assert narrow["ratio"] == pytest.approx([3.1 / 3, 0.6] * 2)
    assert narrow["change_faster_in"] == 2
    assert narrow["base_minflt"] == [0, 10, 0, 0] * 2
    assert narrow["base_faults_per_step"] == 2.5 and narrow["change_faults_per_step"] == 1.0
    assert narrow["base_peak_rss_mb"] == 355.5 and narrow["change_peak_rss_mb"] == 350.5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| net | batch | steps a round | base median s |")
    assert lines[2:] == [
        "| `wide` | 16 | 1 | 1.5000 | 0.9500 | 0.850 | 0.225 | 3/4 | 2 | 1 | 351.5 | 346.5 |",
        "| `narrow` | 32 | 2 | 3.0000 | 2.4500 | 0.817 | 0.433 | 2/4 | 2 | 1 | 355.5 "
        "| 350.5 |"]


def test_a_worker_that_exits_early_ends_the_steps_with_exit_1(canned_workers, tmp_path,
                                                              monkeypatch, capsys):
    monkeypatch.setenv("AB_STOP_AFTER", "2")
    out = tmp_path / "steps.json"
    assert ab.main(["--base", "HEAD", "--steps", "4", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "ab: step worker in " in err and err.rstrip().endswith(" exited 3")
