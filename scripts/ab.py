#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a base revision against this checkout.

    python3 scripts/ab.py --base HEAD~1 --pairs 10 --out BENCH_<n>.json

Run from the root of a source checkout; its working tree is the change,
named in the output by its commit (``-dirty`` when it holds uncommitted
edits).  The base revision is exported with
``git archive`` into a temporary directory.  Each pair runs untraced
``perfbench/run.py`` once in each tree with the same seed (the first seed,
then one more per pair) and the spec's nominal ``--seconds 10``, for every
workload ``perfbench/spec.json`` lists; odd pairs run the base first, even
pairs this checkout first, so drift on the host falls on both sides alike.

The output JSON holds, per workload, the ``failed`` check counts of each
side and, per metric (the gated end-to-end metrics and every metric the
report line names), each side's per-pair values and median, the base's
interquartile range, and in how many pairs this checkout read lower.  After
writing it, ab prints that summary to stdout as a Markdown table, one row
per workload and metric.  It gates nothing.  A run that exits non-zero ends
the comparison: the output then holds the workloads and pairs finished
before it and names the failed command under ``failed_run``, its stderr
goes to stderr, and ab exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 10
SIDES = ("base", "change")


def parse_run(stdout: str) -> dict:
    """The metrics of one ``run.py`` output: its last line is the result,
    the line before it the report.  Returns ``{"failed", "gated", "values",
    "units"}``, the values by metric name."""
    report_line, result_line = stdout.strip().splitlines()[-2:]
    result, report = json.loads(result_line), json.loads(report_line)["report"]
    metrics = {**report["named"], **result["metrics"]}
    return {"failed": result["failed"], "gated": sorted(result["metrics"]),
            "values": {name: m["value"] for name, m in metrics.items()},
            "units": {name: m["unit"] for name, m in metrics.items()}}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list) -> dict:
    """One workload's summary from its pairs, each a {"base", "change"}
    dict of `parse_run` results."""
    runs = {side: [pair[side] for pair in pairs] for side in SIDES}
    first = runs["base"][0]
    metrics = {}
    for name, unit in first["units"].items():
        values = {side: [run["values"].get(name) for run in runs[side]] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue  # not measured in every run
        q1, q3 = _quartiles(values["base"])
        metrics[name] = {
            "unit": unit,
            "gated": name in first["gated"],
            **{side: values[side] for side in SIDES},
            **{f"{side}_median": statistics.median(values[side]) for side in SIDES},
            "base_iqr": q3 - q1,
            "change_lower_in": sum(c < b for b, c in zip(values["base"], values["change"])),
        }
    return {"pairs": len(pairs),
            "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
            "metrics": metrics}


def table(summary: dict) -> str:
    """The summary's workloads as a Markdown table: per metric the medians,
    the base's IQR and in how many pairs the change read lower."""
    rows = ["| workload | metric | base median | change median | base IQR "
            "| change lower in |",
            "|---|---|---|---|---|---|"]
    for workload, done in summary["workloads"].items():
        for name, m in done["metrics"].items():
            label = f"`{name}`" + ("" if m["gated"] else " (not gated)")
            rows.append(f"| `{workload}` | {label} | {m['base_median']:.2f} "
                        f"| {m['change_median']:.2f} | {m['base_iqr']:.2f} "
                        f"| {m['change_lower_in']}/{done['pairs']} |")
    return "\n".join(rows)


class RunFailed(Exception):
    """A ``run.py`` run exited non-zero; `command` names it and the tree
    it ran in."""

    def __init__(self, command: str, stderr: str):
        super().__init__(command)
        self.command, self.stderr = command, stderr


def run_once(tree: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(argv[1:])} in {tree} exited {proc.returncode}",
                        proc.stderr)
    return parse_run(proc.stdout)


def export(rev: str, into: Path) -> str:
    """Write the files of `rev` into `into`; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REV",
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, metavar="N")
    parser.add_argument("--seed", type=int, default=1, metavar="N", help="first pair's seed")
    parser.add_argument("--out", type=Path, required=True, metavar="PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    head = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    workloads = json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"]
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        base = export(args.base, trees["base"])
        summary = {"base": base, "change": head, "seconds": SECONDS,
                   "seeds": [args.seed + i for i in range(args.pairs)], "workloads": {}}
        failure = None
        for workload in workloads:
            pairs = []
            try:
                for i, seed in enumerate(summary["seeds"]):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    pairs.append({side: run_once(trees[side], workload, seed)
                                  for side in order})
                    print(f"ab: {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            except RunFailed as err:
                failure = err
            if pairs:
                summary["workloads"][workload] = summarize(pairs)
            if failure is not None:
                summary["failed_run"] = failure.command
                break
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(table(summary))
    if failure is not None:
        print(f"ab: {failure.command}:\n{failure.stderr}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
