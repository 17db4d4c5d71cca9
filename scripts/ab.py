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

    python3 scripts/ab.py --base HEAD~1 --steps 30 --out steps.json

``--steps N`` times training steps instead, interleaved in one pair of
processes: ab starts one worker on each tree's ``src/`` (``ab.py --worker
SEED``, run in that tree).  Each builds, for every net the benchmark trains
(``perfbench/workloads.py``'s ``PLANS``, at their batch sizes, with the
recipe's optimizer, in float32), one seeded model and one synthetic batch,
and takes one warm-up step on each.  Then, net by net, each of N rounds
takes one benchmark epoch's worth of steps (``train_rows // batch``; a
step is one ``train_one_epoch`` over the batch) on each worker, the two
stepping in turn, one at a time, with a pause after each step.  The side
that steps first alternates from step to step and from round to round (in
odd rounds the base takes the first step).  A worker reports each step's
wall time, ``ru_minflt`` count and ``ru_maxrss`` so far.  The output JSON
holds, per net, each side's step times and faults, the per-round
change/base ratio of the rounds' times, the ratio's median and
interquartile range, in how many rounds this checkout was faster, each
side's minor faults per step, and each worker's peak RSS once that net's
rounds end (``<side>_peak_rss_mb``, ``ru_maxrss / 1024``); stdout gets
them as a Markdown table.  A worker holds every net from its start, so
each net's peak RSS is the worker's: the largest net's (the default's).
Both workers take the same steps from the same state, and host drift, which
lands on perfbench pairs minutes apart, lands on both sides of a round
alike: use this mode for a step-time claim, and perfbench pairs for the
benchmark's end-to-end metrics (peak RSS, set-up time).  A worker that
exits early ends the run: ab names it and exits 1, writing no output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 10
SIDES = ("base", "change")
#: seconds the driver waits after each step: OpenBLAS's threads spin for a
#: while after their last call, and would take the cores from the next step
PAUSE_S = 0.15


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


def worker_command(seed: int) -> list:
    """The command that starts a ``--steps`` worker, run in its tree."""
    return [sys.executable, str(Path(__file__).resolve()), "--worker", str(seed)]


def worker(seed: int) -> int:
    """One side of ``--steps``: announce the nets on stdout as ``{"src",
    "nets": {name: {"batch", "steps"}}}``, then, for each net name read
    from stdin, take one step on it and print ``{"s", "minflt",
    "maxrss_kb"}``."""
    import dataclasses
    import functools
    import resource

    import numpy as np

    import resemotenet
    from resemotenet import autodiff, data, model, synthetic, training

    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    import workloads

    step, nets = {}, {}
    with autodiff.using_dtype(np.float32):
        for name, plan in workloads.PLANS.items():
            if not plan.trains:
                continue
            cfg = dataclasses.replace(plan.config, seed=seed)
            made = synthetic.make_synthetic_manifest(
                per_class=-(-plan.batch // len(data.CLASS_NAMES)), size=cfg.input_size,
                channels=cfg.input_channels, seed=seed)
            batch = data.DatasetManifest.from_samples(name, "train",
                                                      made.samples[:plan.batch])
            step[name] = functools.partial(
                training.train_one_epoch, model.build_model(cfg),
                workloads.recipe_optimizer(), batch, plan.batch,
                np.random.default_rng(seed), True)
            step[name]()  # warm-up: the velocity and the step's scratch
            nets[name] = {"batch": plan.batch, "steps": max(1, plan.train_rows // plan.batch)}
        print(json.dumps({"src": resemotenet.__file__, "nets": nets}), flush=True)
        for line in sys.stdin:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            step[line.strip()]()
            seconds = time.perf_counter() - start
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(json.dumps({"s": seconds, "minflt": usage.ru_minflt - faults,
                              "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


class Worker:
    """A running ``--steps`` worker on `tree`'s ``src/``."""

    def __init__(self, tree: Path, seed: int):
        path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
        self.tree = tree
        self.proc = subprocess.Popen(worker_command(seed), cwd=tree, text=True,
                                     env={**os.environ, "PYTHONPATH": path},
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        hello = self._reply()
        if not Path(hello["src"]).resolve().is_relative_to(tree.resolve()):
            self.close()
            raise RunFailed(f"step worker in {tree} imported {hello['src']}", "")
        self.nets = hello["nets"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailed(f"step worker in {self.tree} exited {self.proc.wait()}", "")
        return json.loads(line)

    def step(self, net: str) -> dict:
        self.proc.stdin.write(net + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def step_rounds(workers: dict, rounds: int) -> dict:
    """Per net, `rounds` rounds of its ``steps`` steps on each side, the two
    sides stepping in turn and the first to step alternating from one step
    to the next (the base first in a round's first step in odd rounds);
    returns each net's `summarize_steps`."""
    nets = workers["base"].nets
    if workers["change"].nets != nets:
        raise RunFailed(f"the trees train different nets: {nets} and "
                        f"{workers['change'].nets}", "")
    done = {}
    for net, shape in nets.items():
        replies = {side: [] for side in SIDES}
        for i in range(rounds):
            for side in SIDES:
                replies[side].append([])
            for j in range(shape["steps"]):
                for side in SIDES if (i + j) % 2 == 0 else SIDES[::-1]:
                    replies[side][-1].append(workers[side].step(net))
                    time.sleep(PAUSE_S)
        print(f"ab: {net} {rounds} rounds done", file=sys.stderr)
        done[net] = {**shape, **summarize_steps(replies)}
    return done


def summarize_steps(replies: dict) -> dict:
    """One net's summary from each side's replies, a list of step replies
    a round: a round's time is the sum of its steps', and a side's peak RSS
    its last reply's."""
    s = {side: [[r["s"] for r in steps] for steps in replies[side]] for side in SIDES}
    faults = {side: [r["minflt"] for steps in replies[side] for r in steps] for side in SIDES}
    rounds = {side: [sum(steps) for steps in s[side]] for side in SIDES}
    ratio = [c / b for b, c in zip(rounds["base"], rounds["change"])]
    q1, q3 = _quartiles(ratio)
    return {**{f"{side}_s": s[side] for side in SIDES},
            **{f"{side}_minflt": faults[side] for side in SIDES},
            **{f"{side}_median_s": statistics.median(rounds[side]) for side in SIDES},
            "ratio": ratio, "ratio_median": statistics.median(ratio), "ratio_iqr": q3 - q1,
            "change_faster_in": sum(r < 1 for r in ratio),
            **{f"{side}_faults_per_step": statistics.fmean(faults[side]) for side in SIDES},
            **{f"{side}_peak_rss_mb": replies[side][-1][-1]["maxrss_kb"] / 1024.0
               for side in SIDES}}


def step_table(summary: dict) -> str:
    """The ``--steps`` summary as a Markdown table, one row per net."""
    rows = ["| net | batch | steps a round | base median s | change median s "
            "| change/base median | ratio IQR | change faster in | base faults/step "
            "| change faults/step | base peak RSS MB | change peak RSS MB |",
            "|---|---|---|---|---|---|---|---|---|---|---|---|"]
    for net, m in summary["nets"].items():
        rows.append(f"| `{net}` | {m['batch']} | {m['steps']} | {m['base_median_s']:.4f} "
                    f"| {m['change_median_s']:.4f} | {m['ratio_median']:.3f} "
                    f"| {m['ratio_iqr']:.3f} | {m['change_faster_in']}/{summary['rounds']} "
                    f"| {m['base_faults_per_step']:.0f} | {m['change_faults_per_step']:.0f} "
                    f"| {m['base_peak_rss_mb']:.1f} | {m['change_peak_rss_mb']:.1f} |")
    return "\n".join(rows)


def compare_steps(trees: dict, summary: dict, out: Path) -> int:
    """``--steps``: fill `summary` from one worker per tree, write it to
    `out` and print its table."""
    workers = {}
    try:
        for side in SIDES:
            workers[side] = Worker(trees[side], summary["seed"])
        summary["nets"] = step_rounds(workers, summary["rounds"])
    except RunFailed as err:
        print(f"ab: {err.command}", file=sys.stderr)
        return 1
    finally:
        for running in workers.values():
            running.close()
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(step_table(summary))
    return 0


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
    parser.add_argument("--steps", type=int, metavar="N",
                        help="time N interleaved training-step rounds per net instead "
                             "(the seed is the models' and batches')")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be >= 1")
    head = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    workloads = json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"]
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        base = export(args.base, trees["base"])
        if args.steps is not None:
            summary = {"base": base, "change": head, "mode": "steps", "rounds": args.steps,
                       "seed": args.seed}
            return compare_steps(trees, summary, args.out)
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
    sys.exit(worker(int(sys.argv[2])) if sys.argv[1:2] == ["--worker"] else main())
