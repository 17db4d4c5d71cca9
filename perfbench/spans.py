"""Outside-in span tracer for the benchmark's traced runs.

`Tracer.install` replaces public entry points of the resemotenet modules
with timing wrappers; nothing under ``src/`` changes.  Each span records a
name, start, end, parent span and training-step id, and, while
``tracemalloc`` is tracing, the peak bytes allocated above the span's start.
Backward time is caught by wrapping the ``backward_fn`` of every tape node an
op, conv layer or model stage creates.  Spans stay in memory until
`Tracer.dump` writes them out at the end of the run.

Span names:

* ``autodiff.<op>.fwd`` / ``.bwd`` - every public autodiff op that records a
  tape node (found by their call to ``_finish``).
* ``layers.conv.<param prefix>.fwd`` / ``.bwd`` - each `Conv2dLayer`.
* ``model.<stage>.fwd`` / ``.bwd`` - the stage labels `model.forward` passes
  to ``_staged``; ``model.forward`` and ``model.build_model``.
* ``optim.cross_entropy.fwd`` / ``.bwd``, ``optim.sgd_step``.
* ``data.make_batches`` (one span per batch), ``data.load_fer_csv``,
  ``data.adapt_manifest``, ``data.load_single_image``.
* ``training.epoch``, ``training.step`` (from one batch request to the
  next), ``training.evaluate_model``, ``autodiff.backward``.
* ``checkpoint.save``, ``checkpoint.load``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import statistics
import threading
import time
import tracemalloc

from resemotenet import autodiff, checkpoint, data, layers, model, training

_clock = time.perf_counter
_MB = 1024.0 * 1024.0

#: ops reported on their own; every other autodiff op counts as "other"
KEY_OPS = ("conv2d", "max_pool2d", "batch_norm2d_train", "batch_norm2d_eval")

#: spans that do the work of a training step; the rest of the step is glue
_STEP_LEAVES = re.compile(
    r"^(autodiff\.\w+\.(fwd|bwd)|optim\.cross_entropy\.(fwd|bwd)|optim\.sgd_step"
    r"|data\.make_batches)$")


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "alloc", "work")

    def __init__(self, name: str, parent: int, step: int, work: float):
        self.name = name
        self.parent = parent
        self.step = step
        self.work = work      # FLOPs for convs, rows for loaders, bytes for saves
        self.alloc = -1       # peak bytes above the start; -1 when not tracing
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def stage_name(label: str) -> str:
    """Map a `model.forward` stage label to its metric name."""
    m = re.fullmatch(r"stem stage (\d+)( pool)?", label)
    if m:
        return f"stem.{m.group(1)}" + (".pool" if m.group(2) else "")
    m = re.fullmatch(r"residual block (\d+)", label)
    if m:
        return f"residual.{m.group(1)}"
    return {"channel gate": "se", "adaptive pool": "head", "classifier": "head"}.get(
        label, label.replace(" ", "_"))


def conv_flops(node) -> float:
    """Multiply-adds x2 of one conv2d forward, from its tape node's shapes."""
    return 2.0 * node.out.data.size * node.inputs[1].data[0].size


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[str, float, int]] = []   # (name, value, step)
        self.step = -1
        self._stack: list[int] = []
        self._frames: list[list[int] | None] = []      # [base bytes, carried peak]
        self._step_span: int | None = None
        self._in_epoch = False
        self.enabled = True      # False: wrappers pass calls straight through
        self.alternate = False   # True: training steps alternate traced/untraced
        self._patches: list[tuple[object, str, object]] = []
        self._conv_names: dict[int, str] = {}
        self._main = threading.get_ident()

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, work: float = 0.0) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, parent, self.step if self._step_span is not None else -1, work)
        self.spans.append(span)
        self._stack.append(index)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self._carry(peak)
            tracemalloc.reset_peak()
            self._frames.append([current, current])
        else:
            self._frames.append(None)
        span.start = _clock()
        return index

    def close(self, index: int) -> None:
        end = _clock()
        while self._stack:
            top = self._stack.pop()
            frame = self._frames.pop()
            span = self.spans[top]
            span.end = end
            if frame is not None and tracemalloc.is_tracing():
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                span.alloc = peak - frame[0]
                self._carry(peak)
            if top == index:
                return

    def _carry(self, peak: int) -> None:
        if self._frames and self._frames[-1] is not None:
            self._frames[-1][1] = max(self._frames[-1][1], peak)

    @contextlib.contextmanager
    def alternating(self):
        """Alternate traced and untraced training steps inside."""
        self.alternate = True
        try:
            yield
        finally:
            self.alternate = False
            self.enabled = True

    def step_ratios(self, first_step: int) -> list[tuple[float, float]]:
        """(traced step, mean of the untraced steps on either side) for every
        traced step from `first_step` on that has untraced neighbours."""
        seq = [(s.name == "training.step", s.seconds) for s in self.spans
               if s.name.startswith("training.step") and s.step >= first_step
               and s.alloc < 0]
        return [(t, (u1 + u2) / 2) for (a, u1), (b, t), (c, u2)
                in zip(seq, seq[1:], seq[2:]) if b and not a and not c]

    @contextlib.contextmanager
    def allocations(self):
        """Trace allocations (slower) for the spans opened inside."""
        if self._stack:
            raise RuntimeError("allocation tracing must start outside any span")
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

    # -- wrappers --------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span_call(self, name: str, work=None):
        """Wrap a function in one span; `work(result)`, when given, returns
        the span's work."""
        def make(fn):
            def traced(*args, **kwargs):
                if not self.enabled or threading.get_ident() != self._main:
                    return fn(*args, **kwargs)
                index = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if work is not None:
                    self.spans[index].work = work(result)
                return result
            return traced
        return make

    def _tape_call(self, name_of):
        """Wrap a tape-recording call: a ``.fwd`` span around the call and a
        ``.bwd`` span around the backward of every node it records."""
        def make(fn):
            def traced(*args, **kwargs):
                if not self.enabled or threading.get_ident() != self._main:
                    return fn(*args, **kwargs)
                name = name_of(*args)
                graph = autodiff.active_graph()
                mark = len(graph.nodes) if graph is not None else 0
                index = self.open(name + ".fwd")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(index)
                    if graph is not None:
                        self._wrap_nodes(graph.nodes[mark:], name + ".bwd", index)
            return traced
        return make

    def _wrap_nodes(self, nodes, name: str, fwd_index: int) -> None:
        flops = 0.0
        for node in nodes:
            work = 0.0
            if node.op == "conv2d":
                fwd = conv_flops(node)
                flops += fwd
                # weight gradient always, input gradient when the input needs one
                work = fwd * (2 if node.inputs[0].requires_grad else 1)
            node.backward_fn = self._timed(node.backward_fn, name, work)
        self.spans[fwd_index].work = flops

    def _timed(self, fn, name: str, work: float):
        def traced(gout):
            index = self.open(name, work)
            try:
                fn(gout)
            finally:
                self.close(index)
        return traced

    def _batches(self, fn):
        """make_batches yields lazily: time each batch request.  Inside a
        training epoch each request also starts a new ``training.step``; in
        alternating mode every other step runs untraced, recorded only as a
        ``training.step.untraced`` span."""
        def traced(*args, **kwargs):
            batches = fn(*args, **kwargs)
            steps = self._in_epoch
            while True:
                if steps:
                    self._end_step()
                    if self.alternate:
                        self.enabled = not self.enabled
                    self.step += 1
                    self._step_span = len(self.spans)
                    self.open("training.step" if self.enabled else "training.step.untraced")
                index = self.open("data.make_batches") if self.enabled else None
                item = next(batches, None)
                if index is not None:
                    self.close(index)
                if item is None:
                    if steps:
                        # the request that found the epoch over is no step
                        del self.spans[self._step_span:]
                        self._stack.pop()
                        self._frames.pop()
                        self._step_span = None
                        self.step -= 1
                        if self.alternate:
                            self.enabled = not self.enabled
                    return
                yield item
        return traced

    def _end_step(self) -> None:
        if self._step_span is not None:
            self.close(self._step_span)
            self._step_span = None

    def _epoch(self, fn):
        def traced(*args, **kwargs):
            index = self.open("training.epoch")
            self._in_epoch = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_epoch = False
                self._step_span = None
                self.close(index)
                if not self.alternate:
                    self.enabled = True
        return traced

    def _backward(self, fn):
        def traced(tensor):
            if not self.enabled:
                return fn(tensor)
            if tensor.node is not None:
                self.counts.append(("autodiff.tape_nodes", len(tensor.node.graph.nodes),
                                    self.step))
            index = self.open("autodiff.backward")
            try:
                return fn(tensor)
            finally:
                self.close(index)
        return traced

    def _register_convs(self, built) -> float:
        """Name each conv layer of a new model by its parameter prefix."""
        for name, tensor in built.named_parameters():
            if re.search(r"conv\w*\.weight$", name):
                self._conv_names[id(tensor)] = name[:-len(".weight")]
        return 0.0

    def install(self) -> None:
        if self._patches:
            return
        for name, fn in sorted(vars(autodiff).items()):
            if (callable(fn) and not name.startswith("_") and hasattr(fn, "__code__")
                    and "_finish" in fn.__code__.co_names):
                self._patch(autodiff, name, self._tape_call(
                    lambda *args, _n=f"autodiff.{name}": _n))
        self._patch(autodiff.Tensor, "backward", self._backward)
        self._patch(layers.Conv2dLayer, "forward", self._tape_call(
            lambda layer, *args: "layers.conv."
            + self._conv_names.get(id(layer.weight), "unnamed")))
        self._patch(model, "_staged", self._tape_call(
            lambda label, *args: "model." + stage_name(label)))
        self._patch(model.ResEmoteNetModel, "forward", self._span_call("model.forward"))
        for owner in (model, checkpoint):
            self._patch(owner, "build_model",
                        self._span_call("model.build_model", self._register_convs))
        self._patch(training, "cross_entropy", self._tape_call(
            lambda *args: "optim.cross_entropy"))
        self._patch(training, "sgd_step", self._span_call("optim.sgd_step"))
        self._patch(training, "make_batches", self._batches)
        self._patch(training, "train_one_epoch", self._epoch)
        self._patch(training, "evaluate_model", self._span_call("training.evaluate_model"))
        for fn in ("load_fer_csv", "adapt_manifest"):
            self._patch(data, fn, self._span_call(f"data.{fn}", len))
        self._patch(data, "load_single_image", self._span_call("data.load_single_image"))
        self._patch(checkpoint, "save", self._span_call("checkpoint.save"))
        self._patch(checkpoint, "load", self._span_call("checkpoint.load"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "step",
                                  "alloc_bytes", "work"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.step, s.alloc,
                                  s.work] for s in self.spans],
                       "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _gflops(work: float, seconds: float) -> float:
    return work / seconds / 1e9 if seconds > 0 else 0.0


def _add(totals: dict[str, float], key: str, value: float) -> None:
    totals[key] = totals.get(key, 0.0) + value


def step_totals(tracer: Tracer, first_step: int = 0,
                alloc: bool = False) -> dict[int, dict[str, float]]:
    """Per training step from `first_step` on: summed span seconds by metric
    key.  Steps that traced allocations (``alloc=True``) are kept apart from
    timing steps, because tracemalloc slows them."""
    steps: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        if (span.name == "training.step" and span.step >= first_step
                and (span.alloc >= 0) == alloc):
            steps[span.step] = {"step": span.seconds, "step.alloc": span.alloc}
    for span in tracer.spans:
        totals = steps.get(span.step)
        if totals is None or span.name == "training.step":
            continue
        name, sec = span.name, span.seconds
        parts = name.split(".")
        key = name
        if parts[0] == "autodiff" and len(parts) == 3:
            key = f"autodiff.{parts[1] if parts[1] in KEY_OPS else 'other'}.{parts[2]}"
        _add(totals, key, sec)
        if _STEP_LEAVES.match(name):
            _add(totals, "leaves", sec)
        if span.work and parts[0] in ("autodiff", "layers"):
            base = name.rsplit(".", 1)[0]
            _add(totals, base + ".flops", span.work)
            _add(totals, base + ".busy", sec)
        if name == "optim.sgd_step":
            totals["sgd.alloc"] = max(totals.get("sgd.alloc", -1), span.alloc)
    for name, value, step in tracer.counts:
        if step in steps:
            steps[step][name] = value
    return steps


def per_layer_metrics(tracer: Tracer, first_step: int = 0) -> dict[str, float]:
    """Every per-layer metric the spans give, by its benchmark name.  Step
    metrics are medians over the timing steps from `first_step` on."""
    out: dict[str, float] = {}
    names = {s.name for s in tracer.spans}
    conv_names = sorted({n[len("layers.conv."):-len(".fwd")] for n in names
                         if n.startswith("layers.conv.") and n.endswith(".fwd")})
    stage_names = sorted({n[len("model."):-len(".fwd")] for n in names
                          if n.startswith("model.") and n.endswith(".fwd")})
    timing = list(step_totals(tracer, first_step).values())
    allocs = list(step_totals(tracer, alloc=True).values())
    if len(allocs) > 1:
        allocs = allocs[1:]  # the first saw frees of memory allocated untraced

    def per_step(key, scale=1e3):
        return _median(t.get(key, 0.0) * scale for t in timing)

    for op in ("conv2d", "max_pool2d", "batch_norm2d_train", "other"):
        for part in ("fwd", "bwd"):
            out[f"autodiff.{op}.{part}_ms"] = per_step(f"autodiff.{op}.{part}")
    out["autodiff.conv2d.gflops"] = _median(
        _gflops(t.get("autodiff.conv2d.flops", 0.0), t.get("autodiff.conv2d.busy", 0.0))
        for t in timing)
    out["autodiff.backward_ms"] = per_step("autodiff.backward")
    out["autodiff.tape_nodes"] = per_step("autodiff.tape_nodes", 1)
    out["autodiff.glue_ms"] = _median((t["step"] - t.get("leaves", 0.0)) * 1e3
                                      for t in timing)
    for conv in conv_names:
        key = f"layers.conv.{conv}"
        out[f"{key}.fwd_ms"] = per_step(f"{key}.fwd")
        out[f"{key}.bwd_ms"] = per_step(f"{key}.bwd")
        out[f"{key}.gflops"] = _median(
            _gflops(t.get(f"{key}.flops", 0.0), t.get(f"{key}.busy", 0.0)) for t in timing)
    for stage in stage_names:
        out[f"model.{stage}.fwd_ms"] = per_step(f"model.{stage}.fwd")
        out[f"model.{stage}.bwd_ms"] = per_step(f"model.{stage}.bwd")
    out["optim.sgd_step_ms"] = per_step("optim.sgd_step")
    out["optim.cross_entropy_ms"] = _median(
        (t.get("optim.cross_entropy.fwd", 0.0) + t.get("optim.cross_entropy.bwd", 0.0)) * 1e3
        for t in timing)
    out["training.data_ms"] = per_step("data.make_batches")
    out["training.forward_ms"] = _median(
        (t.get("model.forward", 0.0) + t.get("optim.cross_entropy.fwd", 0.0)) * 1e3
        for t in timing)
    out["training.backward_ms"] = per_step("autodiff.backward")
    out["training.optimizer_ms"] = per_step("optim.sgd_step")
    out["training.step.alloc_mb"] = _median(t["step.alloc"] / _MB for t in allocs)
    out["optim.sgd_step.alloc_mb"] = _median(t.get("sgd.alloc", 0) / _MB for t in allocs)

    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def seconds(name):
        return [s.seconds for s in by_name.get(name, [])]

    evals = by_name.get("training.evaluate_model", [])
    bn_eval = sum(s.seconds for s in by_name.get("autodiff.batch_norm2d_eval.fwd", [])
                  if any(e.start <= s.start and s.end <= e.end for e in evals))
    out["autodiff.batch_norm2d_eval.fwd_ms"] = bn_eval * 1e3 / max(1, len(evals))
    out["training.evaluate_s"] = _median(seconds("training.evaluate_model"))
    out["model.build_model_s"] = _median(seconds("model.build_model"))
    for fn in ("load_fer_csv", "adapt_manifest"):
        rows = by_name.get(f"data.{fn}", [])
        busy = sum(s.seconds for s in rows)
        out[f"data.{fn}.rows_per_s"] = sum(s.work for s in rows) / busy if busy else 0.0
    out["data.make_batches.ms_per_batch"] = _median(
        s.seconds * 1e3 for s in by_name.get("data.make_batches", [])
        if s.step >= first_step and s.alloc < 0)
    out["data.load_single_image_ms"] = _median(
        s * 1e3 for s in seconds("data.load_single_image"))
    for fn in ("save", "load"):
        calls = by_name.get(f"checkpoint.{fn}", [])
        out[f"checkpoint.{fn}_s"] = _median(s.seconds for s in calls)
        out[f"checkpoint.{fn}.alloc_mb"] = _median(
            s.alloc / _MB for s in calls if s.alloc >= 0)
    return out
