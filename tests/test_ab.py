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
