"""N-dimensional tensors with reverse-mode differentiation over a recorded tape.

A :class:`Graph` is a single-use tape: while one is active (``with Graph():``),
every differentiable primitive appends a node holding the backward closure for
that operation.  ``Tensor.backward()`` walks the tape once in reverse insertion
order, accumulating gradients additively into every ``requires_grad`` tensor
reachable from the scalar loss and releasing each node as it goes.  With no
graph active the same primitives run as plain array code, which is how
eval-mode inference avoids recording.

A graph built as ``Graph(on_grad=fn)`` reports each leaf (a ``requires_grad``
tensor no recorded op produced) to ``fn`` as soon as its gradient is
final: right after the last node that takes it as an input has run its
backward.  Training passes the optimizer step here, so each parameter is
updated, and its gradient freed, while backward is still running.

Gradient ownership: each op hands ``_accumulate`` a writable array that
nothing else will read or write, which a first gradient adopts uncopied;
``add``, sending one array to both inputs, copies it for the second.  The
one exception is a conv weight's first gradient in a graph with
``on_grad``: ``conv2d`` stores it as a :class:`DeferredGrad`, the product
``go_t @ patches`` not yet computed.  The optimizer computes it row block
by row block and applies each block as it goes, so the whole gradient of
a large kernel is never held; any other reader of ``Tensor.grad`` gets the
full array, computed from the same blocks on first read.

Element type is a build-wide choice: float64 for verification (finite
differences are unreliable in float32), float32 permitted for training speed.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GraphError, ShapeError

_default_dtype = np.float64

GRADCHECK_EPSILON = 1e-5
GRADCHECK_TOL = 1e-4


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported element type {dtype}; use float32 or float64")
    _default_dtype = dtype.type


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the build-wide element type."""
    previous = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


class Tensor:
    """A shaped numeric buffer, optionally carrying a gradient and a tape node.

    ``data`` is a row-major numpy array; ``grad`` (same shape) is populated by
    ``backward`` and accumulates additively across multiple uses within one
    graph and across graphs until cleared.  Only leaves keep it: a recorded
    op's output drops its gradient once backward has pushed it to the inputs.
    ``_grad`` is the stored gradient: an array, None, or a
    :class:`DeferredGrad` that reading ``grad`` turns into its array.
    """

    __slots__ = ("data", "requires_grad", "_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _default_dtype)
        self.requires_grad = requires_grad
        self._grad: np.ndarray | DeferredGrad | None = None
        self.node: GraphNode | None = None

    @property
    def grad(self) -> np.ndarray | None:
        if isinstance(self._grad, DeferredGrad):
            self._grad = self._grad.materialize()
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self._grad = None

    def backward(self) -> None:
        """Reverse-mode pass from this scalar through its recorded graph."""
        if self.node is None:
            raise GraphError("backward requires a tensor recorded on an active graph")
        if self.size != 1:
            raise GraphError(f"loss must be scalar, got shape {self.shape}")
        graph = self.node.graph
        if graph.completed:
            raise GraphError("graph already backpropagated; graphs are single-use")
        graph.completed = True
        self.grad = np.ones_like(self.data)
        nodes = graph.nodes
        uses = _leaf_uses(graph) if graph.on_grad is not None else None
        while nodes:
            node = nodes.pop()
            out_grad = node.out.grad
            # the tape is single-use: release the node's saved buffers and its
            # output's gradient as soon as they have been consumed
            node.out._grad = None
            if out_grad is not None:  # else not reachable from the loss
                if _fault_op is not None and node.op == _fault_op:
                    out_grad = out_grad * 2.0  # debug fault: corrupt analytic path
                node.backward_fn(out_grad)
            inputs = node.inputs
            node.out = node.backward_fn = None
            node.inputs = ()
            if uses is not None:
                for t in inputs:
                    if id(t) in uses:
                        uses[id(t)] -= 1
                        # after its last consumer a leaf's gradient is final
                        if uses[id(t)] == 0 and t._grad is not None:
                            graph.on_grad(t)

    def dump(self) -> str:
        """Debug text form: `shape: d0 d1 ...` then row-major values,
        9 significant digits, one innermost row per line."""
        lines = ["shape: " + " ".join(str(d) for d in self.shape)]
        flat = self.data.reshape(-1)
        row = self.shape[-1] if self.shape else 1
        for start in range(0, flat.size, row):
            lines.append(" ".join(f"{v:.9g}" for v in flat[start:start + row]))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GraphNode:
    __slots__ = ("op", "inputs", "out", "backward_fn", "graph")

    def __init__(self, op: str, inputs: tuple, out: Tensor, backward_fn, graph: "Graph"):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn
        self.graph = graph


class Graph:
    """Append-only tape of operation records; insertion order is topological.

    Single-use: build one graph per forward pass, backpropagate once.  The
    tape is released during backward: each node is dropped, with its saved
    inputs, closure and output gradient, once its gradient has been pushed
    to its inputs, so a completed graph holds no nodes.

    ``on_grad``, when given, is called once per leaf that backward reaches
    (a ``requires_grad`` tensor no recorded op produced), with that leaf,
    right after the last node listing it as an input has run its backward:
    its ``.grad`` then holds the sum over every use.  No node reads the leaf
    after that, so the callback may update ``leaf.data`` in place and
    consume ``leaf.grad``.  A leaf the loss does not reach has no gradient
    and is not reported.  In such a graph a conv weight's only gradient
    reaches the callback deferred (``leaf._grad`` is a
    :class:`DeferredGrad`): ``sgd_step`` consumes it in row blocks, and
    reading ``leaf.grad`` computes it whole.
    """

    def __init__(self, on_grad: Callable[[Tensor], None] | None = None):
        self.nodes: list[GraphNode] = []
        self.completed = False
        self.on_grad = on_grad

    def __enter__(self) -> "Graph":
        _graph_stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _graph_stack.pop()


_graph_stack: list[Graph] = []
_fault_op: str | None = None


def active_graph() -> Graph | None:
    return _graph_stack[-1] if _graph_stack else None


@contextlib.contextmanager
def inject_gradient_fault(op: str):
    """Double the output gradient flowing through `op` during backward.

    Verification hook only: a correct checker must detect the corruption.
    """
    global _fault_op
    _fault_op = op
    try:
        yield
    finally:
        _fault_op = None


def _leaf_uses(graph: Graph) -> dict[int, int]:
    """For each leaf on the tape, by id: how many nodes list it as an input."""
    uses: dict[int, int] = {}
    for node in graph.nodes:
        for t in node.inputs:
            if t.requires_grad and t.node is None:
                uses[id(t)] = uses.get(id(t), 0) + 1
    return uses


def _adopted(grad: np.ndarray, dtype) -> np.ndarray:
    """`grad` as a first gradient of element type `dtype`: converted (a copy
    only when the dtype differs) and with -0.0 made +0.0, as in a zero
    buffer plus `grad`."""
    grad = grad.astype(dtype, copy=False)
    grad += 0.0
    return grad


def _accumulate(tensor: Tensor, grad: np.ndarray) -> None:
    """Add `grad` into ``tensor.grad``.

    The caller hands `grad` over: it must be a writable array that nothing
    else will read or write.  A first gradient is adopted as ``tensor.grad``
    (copied only to convert its dtype); later ones are added into it.
    """
    if not tensor.requires_grad:
        return
    if tensor._grad is None:
        tensor._grad = _adopted(grad, tensor.data.dtype)
    else:
        tensor.grad += grad  # a deferred first gradient is computed whole here


#: elements per row block of a deferred gradient (4 MiB in float32)
GRAD_BLOCK = 1 << 20


class DeferredGrad:
    """A weight gradient kept as the product ``go_t @ patches`` of a
    (rows, M) and an (M, cols) matrix, computed only when consumed.

    ``blocks`` computes it a few rows at a time into one block buffer, so a
    consumer that applies each block before taking the next never holds the
    whole gradient; ``materialize`` fills one full array from the same
    blocks, so both give the same bits.
    """

    __slots__ = ("go_t", "patches", "shape", "dtype")

    def __init__(self, go_t: np.ndarray, patches: np.ndarray, shape: tuple, dtype):
        self.go_t = go_t
        self.patches = patches
        self.shape = shape
        self.dtype = dtype

    def blocks(self):
        """(first flat index, flat block) pairs covering the gradient in
        order, each a first gradient of ``dtype``.  A block is overwritten
        when the next one is computed."""
        n_rows, cols = self.go_t.shape[0], self.patches.shape[1]
        rows = max(1, GRAD_BLOCK // cols)
        buf = np.empty((min(rows, n_rows), cols),
                       dtype=np.result_type(self.go_t, self.patches))
        for r0 in range(0, n_rows, rows):
            block = buf[:min(rows, n_rows - r0)]
            np.matmul(self.go_t[r0:r0 + rows], self.patches, out=block)
            yield r0 * cols, _adopted(block, self.dtype).reshape(-1)

    def materialize(self) -> np.ndarray:
        full = np.empty(self.shape, dtype=self.dtype)
        flat = full.reshape(-1)
        for start, block in self.blocks():
            flat[start:start + block.size] = block
        return full


def _finish(op: str, inputs: Sequence[Tensor], out: Tensor, backward_fn) -> Tensor:
    graph = active_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        node = GraphNode(op, tuple(inputs), out, backward_fn, graph)
        graph.nodes.append(node)
        out.node = node
    return out


# ---------------------------------------------------------------------------
# Convolution / pooling
# ---------------------------------------------------------------------------

def _conv_output_extent(in_size: int, k: int, stride: int, padding: int) -> int:
    return (in_size + 2 * padding - k) // stride + 1


def _windows(x_pad: np.ndarray, kh: int, kw: int, stride: int, out_h: int,
             out_w: int) -> np.ndarray:
    """Read-only (N, C, kh, kw, out_h, out_w) view of the padded input's
    kernel windows; reshaping it copies the patches once."""
    n, c, _, _ = x_pad.shape
    sn, sc, sh, sw = x_pad.strides
    return as_strided(
        x_pad,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def _col2im(cols: np.ndarray, x_pad_shape: tuple, kh: int, kw: int, stride: int,
            out_h: int, out_w: int) -> np.ndarray:
    """Scatter-add (N, C*kh*kw, L) columns back onto the padded input grid."""
    n, c, hp, wp = x_pad_shape
    grad = np.zeros(x_pad_shape, dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            grad[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += cols6[:, :, i, j]
    return grad


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-D cross-correlation with symmetric zero padding.

    x: (N, Cin, H, W); weight: (Cout, Cin, kh, kw); bias: (Cout,) or None.
    Output spatial extent is floor((in + 2*padding - k) / stride) + 1.

    The backward pass re-derives its patch matrix from ``x.data``, so the
    input buffer must not be mutated between forward and ``backward()`` (the
    same in-place contract every recorded op's saved views rely on).
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D (N,C,H,W), got rank {x.data.ndim}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4-D (Cout,Cin,kh,kw), got rank {weight.data.ndim}")
    n, cin, h, w = x.shape
    cout, wcin, kh, kw = weight.shape
    if cin != wcin:
        raise ShapeError(f"conv2d: input channels {cin} != weight input channels {wcin}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({cout},)")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"conv2d: padding must be >= 0, got {padding}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} exceeds padded input "
            f"{h + 2 * padding}x{w + 2 * padding}")
    out_h = _conv_output_extent(h, kh, stride, padding)
    out_w = _conv_output_extent(w, kw, stride, padding)

    def padded() -> np.ndarray:
        if padding == 0:
            return x.data
        x_pad = np.zeros((n, cin, h + 2 * padding, w + 2 * padding), dtype=x.data.dtype)
        x_pad[:, :, padding:padding + h, padding:padding + w] = x.data
        return x_pad

    x_pad_shape = (n, cin, h + 2 * padding, w + 2 * padding)
    cols = _windows(padded(), kh, kw, stride, out_h, out_w).reshape(
        n, -1, out_h * out_w)                                    # (N, CKK, L)
    w_mat = weight.data.reshape(cout, -1)                        # (Cout, CKK)
    out_data = np.matmul(w_mat, cols).reshape(n, cout, out_h, out_w)
    if bias is not None:
        out_data += bias.data[None, :, None, None]
    out = Tensor(out_data, dtype=out_data.dtype)
    # the patch matrix is large; rebuilding it from x at backward time keeps
    # the tape's footprint at the activations themselves
    del cols

    graph = active_graph()

    def backward_fn(gout: np.ndarray) -> None:
        go = gout.reshape(n, cout, out_h * out_w)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gout.sum(axis=(0, 2, 3)))
        # the input gradient first: its column matrix is freed before the
        # weight gradient's patches are built
        if x.requires_grad:
            grad_cols = np.matmul(w_mat.T, go)
            gx_pad = _col2im(grad_cols, x_pad_shape, kh, kw, stride, out_h, out_w)
            del grad_cols
            if padding > 0:
                # contiguous: its readers run faster on it than on the view (measured)
                gx_pad = np.ascontiguousarray(
                    gx_pad[:, :, padding:padding + h, padding:padding + w])
            _accumulate(x, gx_pad)
        if weight.requires_grad:
            # one GEMM over (batch, position): (Cout, N*L) @ (N*L, CKK)
            patches = _windows(padded(), kh, kw, stride, out_h, out_w).transpose(
                0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
            product = DeferredGrad(go.transpose(1, 0, 2).reshape(cout, -1), patches,
                                   weight.shape, weight.data.dtype)
            if graph.on_grad is not None and weight._grad is None:
                weight._grad = product  # the optimizer streams it in row blocks
            else:
                _accumulate(weight, product.materialize())

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finish("conv2d", inputs, out, backward_fn)


def max_pool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """k x k window maximum; gradient routes to each window's argmax
    (first index in row-major window order on ties)."""
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d: input must be 4-D, got rank {x.data.ndim}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"max_pool2d: window {k}x{k} larger than input {h}x{w}")
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    sn, sc, sh, sw = x.data.strides
    windows = as_strided(
        x.data,
        shape=(n, c, out_h, out_w, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    ).reshape(n, c, out_h, out_w, k * k)
    argmax = windows.argmax(axis=-1)
    out_data = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    # the tape keeps the window offset in the narrowest type that holds k*k - 1
    argmax = argmax.astype(np.min_scalar_type(k * k - 1))
    out = Tensor(out_data, dtype=out_data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if not x.requires_grad:
            return
        rows = (np.arange(out_h) * stride)[None, None, :, None] + argmax // k
        cols_ = (np.arange(out_w) * stride)[None, None, None, :] + argmax % k
        n_idx = np.arange(n)[:, None, None, None]
        c_idx = np.arange(c)[None, :, None, None]
        linear = ((n_idx * c + c_idx) * h + rows) * w + cols_
        gx = np.zeros(n * c * h * w, dtype=gout.dtype)
        np.add.at(gx, linear.reshape(-1), gout.reshape(-1))
        _accumulate(x, gx.reshape(n, c, h, w))

    return _finish("max_pool2d", (x,), out, backward_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: (N, C, H, W) -> (N, C)."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: input must be 4-D, got rank {x.data.ndim}")
    n, c, h, w = x.shape
    out = Tensor(x.data.mean(axis=(2, 3)), dtype=x.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(gout[:, :, None, None] / (h * w), x.shape).copy())

    return _finish("global_avg_pool", (x,), out, backward_fn)


def _pool_region(i: int, in_size: int, out_size: int) -> tuple[int, int]:
    # region [floor(i*in/out), ceil((i+1)*in/out))
    lo = (i * in_size) // out_size
    hi = -((-(i + 1) * in_size) // out_size)
    return lo, hi


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average variable-size input regions onto a fixed (out_h, out_w) grid."""
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool: input must be 4-D, got rank {x.data.ndim}")
    n, c, h, w = x.shape
    if out_h > h or out_w > w:
        raise ShapeError(
            f"adaptive_avg_pool: output {out_h}x{out_w} larger than input {h}x{w}")
    bounds_h = [_pool_region(i, h, out_h) for i in range(out_h)]
    bounds_w = [_pool_region(j, w, out_w) for j in range(out_w)]
    out_data = np.empty((n, c, out_h, out_w), dtype=x.data.dtype)
    for i, (h0, h1) in enumerate(bounds_h):
        for j, (w0, w1) in enumerate(bounds_w):
            out_data[:, :, i, j] = x.data[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    out = Tensor(out_data, dtype=out_data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        for i, (h0, h1) in enumerate(bounds_h):
            for j, (w0, w1) in enumerate(bounds_w):
                area = (h1 - h0) * (w1 - w0)
                gx[:, :, h0:h1, w0:w1] += gout[:, :, i, j][:, :, None, None] / area
        _accumulate(x, gx)

    return _finish("adaptive_avg_pool", (x,), out, backward_fn)


# ---------------------------------------------------------------------------
# Dense / elementwise
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight.T + bias with x: (N, Din), weight: (Dout, Din)."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(
            f"linear: expected 2-D input and weight, got ranks "
            f"{x.data.ndim} and {weight.data.ndim}")
    n, din = x.shape
    dout, wdin = weight.shape
    if din != wdin:
        raise ShapeError(f"linear: input features {din} != weight features {wdin}")
    if bias is not None and bias.shape != (dout,):
        raise ShapeError(f"linear: bias shape {bias.shape} != ({dout},)")
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data = out_data + bias.data
    out = Tensor(out_data, dtype=out_data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, gout @ weight.data)
        if weight.requires_grad:
            _accumulate(weight, gout.T @ x.data)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gout.sum(axis=0))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finish("linear", inputs, out, backward_fn)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), dtype=x.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, gout * (x.data > 0))

    return _finish("relu", (x,), out, backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # two-branch form avoids overflow in exp for large |z|
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(s, dtype=s.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, gout * s * (1.0 - s))

    return _finish("sigmoid", (x,), out, backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data, dtype=a.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        _accumulate(a, gout)
        if b.requires_grad:
            _accumulate(b, gout.copy())  # `a` may have adopted gout itself

    return _finish("add", (a, b), out, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data * b.data, dtype=a.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, gout * b.data)
        if b.requires_grad:
            _accumulate(b, gout * a.data)

    return _finish("mul", (a, b), out, backward_fn)


def mul_broadcast_channel(x: Tensor, s: Tensor) -> Tensor:
    """Scale every spatial element of channel c by s[:, c]: (N,C,H,W) * (N,C)."""
    if x.data.ndim != 4 or s.data.ndim != 2:
        raise ShapeError(
            f"mul_broadcast_channel: expected ranks 4 and 2, got "
            f"{x.data.ndim} and {s.data.ndim}")
    if x.shape[:2] != s.shape:
        raise ShapeError(
            f"mul_broadcast_channel: batch/channel {x.shape[:2]} != {s.shape}")
    s4 = s.data[:, :, None, None]
    out = Tensor(x.data * s4, dtype=x.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, gout * s4)
        if s.requires_grad:
            _accumulate(s, (gout * x.data).sum(axis=(2, 3)))

    return _finish("mul_broadcast_channel", (x, s), out, backward_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape), dtype=x.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, gout.reshape(x.shape))

    return _finish("reshape", (x,), out, backward_fn)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum(), dtype=x.data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(gout, x.shape).copy())

    return _finish("sum", (x,), out, backward_fn)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def batch_norm2d_train(x: Tensor, gamma: Tensor, beta: Tensor,
                       eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize per channel with batch statistics over (N, H, W).

    Returns (output, batch_mean, batch_var); variance is the biased estimate
    and zero-variance channels are guarded by eps.  The backward pass accounts
    for the dependence of the batch statistics on the input.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d: input must be 4-D, got rank {x.data.ndim}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm2d: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)")
    m = n * h * w
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]
    out = Tensor(out_data, dtype=out_data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if gamma.requires_grad:
            _accumulate(gamma, (gout * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            _accumulate(beta, gout.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            t = gout * gamma.data[None, :, None, None]
            t_mean = t.sum(axis=(0, 2, 3)) / m
            tx_mean = (t * x_hat).sum(axis=(0, 2, 3)) / m
            gx = inv_std[None, :, None, None] * (
                t - t_mean[None, :, None, None] - x_hat * tx_mean[None, :, None, None])
            _accumulate(x, gx)

    return _finish("batch_norm2d_train", (x, gamma, beta), out, backward_fn), mean, var


def batch_norm2d_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      eps: float) -> Tensor:
    """Per-channel affine normalization with fixed running statistics."""
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d: input must be 4-D, got rank {x.data.ndim}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm2d: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)")
    inv_std = 1.0 / np.sqrt(running_var + eps)
    x_hat = (x.data - running_mean[None, :, None, None]) * inv_std[None, :, None, None]
    out_data = gamma.data[None, :, None, None] * x_hat + beta.data[None, :, None, None]
    out = Tensor(out_data, dtype=out_data.dtype)

    def backward_fn(gout: np.ndarray) -> None:
        if gamma.requires_grad:
            _accumulate(gamma, (gout * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            _accumulate(beta, gout.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            _accumulate(x, gout * (gamma.data * inv_std)[None, :, None, None])

    return _finish("batch_norm2d_eval", (x, gamma, beta), out, backward_fn)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

class GradCheckEntry:
    __slots__ = ("name", "max_rel_err", "ok")

    def __init__(self, name: str, max_rel_err: float, ok: bool):
        self.name = name
        self.max_rel_err = max_rel_err
        self.ok = ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return f"{self.name}: max_rel_err={self.max_rel_err:.3e} {status}"


class GradCheckReport:
    def __init__(self, entries: list[GradCheckEntry]):
        self.entries = entries

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not e.ok]

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def __repr__(self) -> str:
        return "\n".join(repr(e) for e in self.entries)


def _relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def grad_check(f: Callable[..., Tensor], inputs) -> GradCheckReport:
    """Compare analytic gradients of scalar f(*tensors) with central differences.

    `inputs` is a sequence of tensors or (name, tensor) pairs; every tensor is
    perturbed elementwise by +-`GRADCHECK_EPSILON` in float64.  Relative error
    per element is |a - n| / max(1e-8, |a| + |n|); an input fails when its
    maximum exceeds `GRADCHECK_TOL`.  f must be deterministic.
    """
    named: list[tuple[str, Tensor]] = []
    for i, item in enumerate(inputs):
        if isinstance(item, Tensor):
            named.append((f"input{i}", item))
        else:
            named.append((item[0], item[1]))
    for name, t in named:
        if t.data.dtype != np.float64:
            raise ValueError(f"grad_check: '{name}' must be float64, got {t.data.dtype}")
        if not np.all(np.isfinite(t.data)):
            idx = int(np.flatnonzero(~np.isfinite(t.data.reshape(-1)))[0])
            raise ValueError(f"grad_check: non-finite value in '{name}' at flat index {idx}")

    tensors = [t for _, t in named]
    for t in tensors:
        t.grad = None
    with Graph():
        out = f(*tensors)
        if out.size != 1:
            raise GraphError(f"grad_check: f must return a scalar, got shape {out.shape}")
        if not np.isfinite(out.item()):
            raise ValueError("grad_check: f returned a non-finite value")
        out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]

    def evaluate() -> float:
        value = f(*tensors)
        v = value.item()
        if not np.isfinite(v):
            raise ValueError("grad_check: f returned a non-finite value during perturbation")
        return v

    entries = []
    for (name, t), a_grad in zip(named, analytic):
        flat = t.data.reshape(-1)
        a_flat = a_grad.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + GRADCHECK_EPSILON
            f_plus = evaluate()
            flat[i] = original - GRADCHECK_EPSILON
            f_minus = evaluate()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * GRADCHECK_EPSILON)
            worst = max(worst, _relative_error(float(a_flat[i]), numeric))
        entries.append(GradCheckEntry(name, worst, worst <= GRADCHECK_TOL))
    return GradCheckReport(entries)
