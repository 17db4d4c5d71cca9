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
``add``, sending one array to both inputs, copies it for the second.  A
conv weight's gradient is held in the smaller of two forms.  Where the
gradient, one per-sample product of its size and one sample's patches are
together smaller than the whole patch matrix, N*L patches of C*k*k
elements (2*Cout + L < N*L), ``conv2d`` sums it eagerly, one sample's
product at a time, from blocks of as many samples' patches as keep it so.  Otherwise its first
gradient is a :class:`DeferredGrad`, the product ``go_t @ patches`` not
yet computed: the optimizer computes it row block by row block and applies
each block as it goes, so the whole gradient of a large kernel is never
held, and any other reader of ``Tensor.grad`` gets the full array,
computed from the same blocks on first read.

Forward buffers follow the same rule.  A public op never writes into its
arguments' arrays (``verification.grad_check`` perturbs leaves and re-runs
``f``), except where a caller hands one over with ``out=``: ``relu`` and
``add`` then write their result there, ``batch_norm2d_train`` keeps its
normalized input x-hat there for its backward, and ``batch_norm2d_eval``
normalizes in place when no graph records it (its backward reads its input)
and the element type matches.  Only a caller that owns the array and knows
nothing reads it again passes ``out``: ``layers`` hands over a batch norm's
input (the conv output, which the conv's backward does not read) and output
(read by no backward: batch norm's reads x-hat or its input, and ``add``
reads no data), and ``model`` a stem max-pool's output to the ReLU after it
(max-pool's backward reads only its window offsets).  ``relu``'s backward
then reads its own output as its input, and ``relu(x) > 0`` holds exactly
where ``x > 0`` does.  A caller that owns an array which no backward reads
drops it (``Tensor.drop_data``) once the ops that read it have run:
``model`` drops each stem batch norm's output once its max-pool has the
window offsets, and ``layers`` a projected shortcut's once the residual
``add`` has read it, and stem 0's conv output (x-hat) once its batch norm
has run, which is then given a ``rebuild`` to remake x-hat in backward
(``_conv2d``, ``conv2d``'s kernel, which records no op).  The tensor
keeps its shape and element type, and still routes gradients.  Backward
buffers are bounded too: ``batch_norm2d_train``'s backward allocates
nothing the size of its input but a rebuilt x-hat, writing over x-hat and
the output gradient instead (with a single channel it takes one
whole-batch product, to keep numpy's summation order).

Windowed kernels reach a kernel tap one way: ``_windows`` gives, for each
tap (i, j) of a kh x kw window, the plain basic slice of an (N, C, H, W)
array that holds that tap of every window, in row-major tap order.  Reads
copy or compare through these slices (``conv2d``'s patches, ``max_pool2d``'s
running maximum).  Writes go through one tap at a time, so no numpy call
writes an element twice: the conv input gradient adds each tap's columns in
turn, and max-pool's gradient writes each tap's share where windows are
disjoint and adds it, last tap first, where they overlap.

Element type is a build-wide choice: float64 for verification (finite
differences are unreliable in float32), float32 permitted for training speed.
Every backward pass here is audited against central differences by
``verification``, which owns ``grad_check`` and its fault injection.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import GraphError, ShapeError

_default_dtype = np.float64


def default_dtype():
    return _default_dtype


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the build-wide element type (float32 or float64)."""
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported element type {dtype}; use float32 or float64")
    previous, _default_dtype = _default_dtype, dtype.type
    try:
        yield
    finally:
        _default_dtype = previous


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

    def drop_data(self) -> None:
        """Free the array, for a caller that owns it once no backward reads
        it (see the module docstring).  ``data`` becomes a read-only zero
        view of the same shape and element type."""
        self.data = np.broadcast_to(self.data.dtype.type(0), self.data.shape)

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
    and is not reported.  ``on_grad`` decides only when a gradient is
    consumed, not its form: a conv weight whose gradient is at least as
    large as its patches has it deferred in any graph (see
    :class:`DeferredGrad`), and ``sgd_step`` consumes it in row blocks.
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


def active_graph() -> Graph | None:
    return _graph_stack[-1] if _graph_stack else None


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


#: elements per row block of a deferred weight gradient (4 MiB in float32).
#: Each block re-reads the whole (N*L, CKK) patch matrix, so smaller blocks
#: mean more passes over it
GRAD_BLOCK = 1 << 20
#: patch elements per sample block of ``conv2d``: its forward, its input
#: gradient's columns and its patch unfolds (1 MiB in float32, half a core's
#: 2 MiB L2 cache, so a block stays cached between its unfold and its GEMM)
CONV_BLOCK = 1 << 18
#: rows of Wᵀ per GEMM of ``conv2d``'s input gradient, (CKK, Cout) @
#: (Cout, L).  OpenBLAS packs each thread's share of a GEMM's rows into a
#: buffer of its own that stays resident: 8.4 MiB a thread after the default
#: net's CKK = 9,216 product, 1.4 MiB in blocks of this many rows, which
#: also run faster.  Every block starts at a multiple of this power of two;
#: on the shipped nets' convs the blocks give the bits of one whole GEMM
GRAD_ROWS = 1 << 10


def live_taps(in_size: int, k: int, stride: int, padding: int) -> slice:
    """The taps [lo, hi) along one axis of a k-tap kernel, sliding with
    `stride` over `in_size` elements padded by `padding` on each side, that
    read an input element at some output position: tap i reads elements
    o*stride + i - padding.  Between the first and the last such tap a
    tap may read only padding (when stride > in_size); it stays in the
    span.  Where no tap reads the input, the span is every tap."""
    last = _conv_output_extent(in_size, k, stride, padding) - 1
    live = []
    for i in range(k):
        # the first output position whose tap i reads at or past element 0
        o = max(0, -(-(padding - i) // stride))
        if o <= last and o * stride + i - padding < in_size:
            live.append(i)
    return slice(live[0], live[-1] + 1) if live else slice(0, k)


class DeferredGrad:
    """A weight gradient kept as the product ``go_t @ patches`` of a
    (rows, M) and an (M, cols) matrix, computed only when consumed.
    ``conv2d`` defers a gradient only where summing it eagerly would hold
    no less than its whole patch matrix (2*Cout + L >= N*L); otherwise it
    sums it eagerly.

    ``go_t`` may also be a (rows, ...) array, a view included, whose rows
    each hold M elements: ``conv2d`` passes the (Cout, N, L) transposed view
    of its output gradient, and each row block is copied into (rows, M)
    form only when its product is computed.  ``patches`` may be a view
    too: ``conv2d`` passes the F-ordered transpose of its (CKK, N*L)
    patch matrix, which the GEMM reads in place.  ``blocks`` computes the
    product a few rows at a time into one block buffer, so a consumer that
    applies each block before taking the next never holds the whole
    gradient; ``materialize`` fills one full array from the same blocks, so
    both give the same bits.
    """

    __slots__ = ("go_t", "patches", "shape", "dtype")

    def __init__(self, go_t: np.ndarray, patches: np.ndarray, shape: tuple, dtype):
        self.go_t = go_t
        self.patches = patches
        self.shape = shape
        self.dtype = dtype

    def blocks(self):
        """(first flat index, flat block) pairs covering the gradient in
        order, each a first gradient of ``dtype`` and overwritten when the
        next one is computed.  A block's buffers (the product and its copy
        of ``go_t``'s rows) hold at most `GRAD_BLOCK` elements, or one
        row's worth."""
        n_rows, (m, cols) = len(self.go_t), self.patches.shape
        held = cols + (0 if self.go_t[:1].flags.c_contiguous else m)  # the reshape copies
        rows = max(1, GRAD_BLOCK // held)
        buf = np.empty((min(rows, n_rows), cols), dtype=np.result_type(self.go_t, self.patches))
        for r0 in range(0, n_rows, rows):
            block = buf[:min(rows, n_rows - r0)]
            np.matmul(self.go_t[r0:r0 + rows].reshape(len(block), m), self.patches, out=block)
            yield r0 * cols, _adopted(block, self.dtype).reshape(-1)

    def materialize(self) -> np.ndarray:
        full = np.empty(self.shape, dtype=self.dtype)
        flat = full.reshape(-1)
        for start, block in self.blocks():
            flat[start:start + block.size] = block
        return full


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over `inputs` is recorded on the active graph."""
    return active_graph() is not None and any(t.requires_grad for t in inputs)


def _finish(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward_fn) -> Tensor:
    """The op's output tensor over `out_data`, recorded on the active graph
    with `backward_fn` when any input requires a gradient."""
    out = Tensor(out_data, dtype=out_data.dtype)
    if _records(inputs):
        graph = active_graph()
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


def _windows(a: np.ndarray, kh: int, kw: int, stride: int, out_h: int,
             out_w: int) -> list[np.ndarray]:
    """The kh*kw (N, C, out_h, out_w) views of `a` holding tap (i, j) of
    every kernel window, in row-major tap order (i * kw + j): plain basic
    slices, so writing through one writes `a`."""
    span_h, span_w = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    return [a[:, :, i:i + span_h:stride, j:j + span_w:stride]
            for i in range(kh) for j in range(kw)]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-D cross-correlation with symmetric zero padding.

    x: (N, Cin, H, W); weight: (Cout, Cin, kh, kw); bias: (Cout,) or None.
    Output spatial extent is floor((in + 2*padding - k) / stride) + 1.

    Every patch array it builds, forward and backward, is laid out
    (Cin, kh*kw, out_h, out_w) per sample, the output positions contiguous:
    (b, Cin, kh*kw, out_h, out_w) for a block of b samples, and
    (Cin, kh*kw, N, out_h, out_w) for a deferred weight gradient's patches.
    The input gradient's columns, Wᵀ @ go per sample, are computed in row
    blocks of Wᵀ of at most `GRAD_ROWS` rows, each written into its slice
    of the block's columns, so OpenBLAS packs no more than that many rows
    a thread; a conv with at most `GRAD_ROWS` patch elements runs one GEMM.

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
    out_data, backward_fn = _conv2d(x, weight, bias, stride, padding)
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finish("conv2d", inputs, out_data, backward_fn)


def _conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int,
            padding: int):
    """`conv2d`'s kernel on checked arguments: its output array and its
    backward function, recorded on no graph."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    out_h = _conv_output_extent(h, kh, stride, padding)
    out_w = _conv_output_extent(w, kw, stride, padding)

    def padded(a: np.ndarray) -> np.ndarray:
        if padding == 0:
            return a
        a_pad = np.zeros((len(a), cin, h + 2 * padding, w + 2 * padding), dtype=a.dtype)
        a_pad[:, :, padding:padding + h, padding:padding + w] = a
        return a_pad

    def unfold(s0: int, patches: np.ndarray) -> None:
        """Copy the patches of samples s0, s0 + 1, ... into `patches`, a
        (b, Cin, kh*kw, out_h, out_w) array or view, one tap at a time."""
        block = padded(x.data[s0:s0 + len(patches)])
        np.stack(_windows(block, kh, kw, stride, out_h, out_w), axis=2, out=patches)

    w_mat = weight.data.reshape(cout, -1)                        # (Cout, CKK)
    ckk, positions, taps = w_mat.shape[1], out_h * out_w, kh * kw
    out_data = np.empty((n, cout, out_h, out_w), dtype=np.result_type(w_mat, x.data))
    out_rows = out_data.reshape(n, cout, positions)
    # the patches of a few samples at a time, at most CONV_BLOCK elements or
    # one sample's, each block one per-sample GEMM; backward rebuilds what it
    # needs from x, and builds the input gradient's columns in the same
    # sample blocks
    step = max(1, CONV_BLOCK // (ckk * positions))
    for s0 in range(0, n, step):
        cols = np.empty((min(step, n - s0), cin, taps, out_h, out_w), dtype=x.data.dtype)
        unfold(s0, cols)
        np.matmul(w_mat, cols.reshape(-1, ckk, positions), out=out_rows[s0:s0 + step])
        del cols  # before the next block is built
    if bias is not None:
        out_data += bias.data[None, :, None, None]

    def input_grad(go: np.ndarray) -> np.ndarray:
        """The (N, Cin, H, W) input gradient, its columns computed for the
        forward's sample blocks in turn, `GRAD_ROWS` rows of Wᵀ a GEMM, each
        block scattered onto its padded grid and cropped into one array."""
        gx = np.zeros(x.shape, dtype=go.dtype)
        for s0 in range(0, n, step):
            g_out = go[s0:s0 + step]
            cols = np.empty((len(g_out), ckk, positions), dtype=np.result_type(w_mat, go))
            for r0 in range(0, ckk, GRAD_ROWS):
                np.matmul(w_mat.T[r0:r0 + GRAD_ROWS], g_out, out=cols[:, r0:r0 + GRAD_ROWS])
            cols = cols.reshape(-1, cin, taps, out_h, out_w)  # (b, Cin, kh*kw, oh, ow)
            g = gx[s0:s0 + step]
            g_pad = g if padding == 0 else np.zeros(
                (len(g), cin, h + 2 * padding, w + 2 * padding), dtype=go.dtype)
            for t, tap in enumerate(_windows(g_pad, kh, kw, stride, out_h, out_w)):
                tap += cols[:, :, t]
            if padding > 0:
                g[...] = g_pad[:, :, padding:padding + h, padding:padding + w]
        return gx

    def backward_fn(gout: np.ndarray) -> None:
        go = gout.reshape(n, cout, out_h * out_w)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gout.sum(axis=(0, 2, 3)))
        # the input gradient first: its last column block is gone before the
        # weight gradient's patches are built
        if x.requires_grad:
            _accumulate(x, input_grad(go))
        if not weight.requires_grad:
            return
        # hold the smaller of what each way needs, counted in CKK-element
        # patches: eager, the (Cout, CKK) gradient, one product and a block of
        # `fit` samples' patches at most; deferred, all N*L patches, unfolded
        # in the forward's sample blocks
        fit = (n * positions - 2 * cout - 1) // positions
        if fit >= 1:
            # eager: each sample's (Cout, L) @ (L, CKK) product is added in
            # sample order, so the bits do not depend on the block size
            b = min(step, fit)
            dtype = np.result_type(go, x.data)
            gw, prod = np.zeros((cout, ckk), dtype=dtype), np.empty((cout, ckk), dtype=dtype)
            patches = np.empty((b, cin, taps, out_h, out_w), dtype=x.data.dtype)
            for s0 in range(0, n, b):
                block = patches[:min(b, n - s0)]
                unfold(s0, block)
                for i, cols in enumerate(block.reshape(-1, ckk, positions)):
                    np.matmul(go[s0 + i], cols.T, out=prod)
                    gw += prod
            _accumulate(weight, gw.reshape(weight.shape))
            return
        # deferred: one GEMM over (batch, position), (Cout, N*L) @ (N*L, CKK),
        # the output gradient kept as its (Cout, N, L) view and the patches as
        # the transpose of their (CKK, N*L) matrix
        patches = np.empty((cin, taps, n, out_h, out_w), dtype=x.data.dtype)
        for s0 in range(0, n, step):
            unfold(s0, patches.transpose(2, 0, 1, 3, 4)[s0:s0 + step])
        product = DeferredGrad(go.transpose(1, 0, 2), patches.reshape(ckk, n * positions).T,
                               weight.shape, weight.data.dtype)
        if weight._grad is None:
            weight._grad = product  # computed when consumed or read
        else:
            _accumulate(weight, product.materialize())

    return out_data, backward_fn


def max_pool2d(x: Tensor, k: int, stride: int) -> Tensor:
    """k x k window maximum; gradient routes to each window's first maximum
    in row-major window order (its first NaN, if it holds one)."""
    if x.data.ndim != 4:
        raise ShapeError(f"max_pool2d: input must be 4-D, got rank {x.data.ndim}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"max_pool2d: window {k}x{k} larger than input {h}x{w}")
    out_h = _conv_output_extent(h, k, stride, 0)
    out_w = _conv_output_extent(w, k, stride, 0)
    taps = _windows(x.data, k, k, stride, out_h, out_w)
    out_data = taps[0].copy()
    for tap in taps[1:]:
        # the running maximum as the second operand: on a tie of -0.0 and
        # +0.0 np.maximum returns it, so the first maximum's sign is kept (of
        # two NaNs it returns the first operand, so the last NaN's bits)
        np.maximum(tap, out_data, out=out_data)
    if _records((x,)):
        # each window's first tap holding its maximum, or its first NaN (the
        # maximum is then NaN and equals nothing), in the narrowest type that
        # holds k*k - 1; plain ufuncs only, as masked writes are far slower
        offset = np.zeros(out_data.shape, dtype=np.min_scalar_type(k * k - 1))
        found = np.zeros(out_data.shape, dtype=bool)
        for o, tap in enumerate(taps):
            hit = tap == out_data
            hit |= np.isnan(tap)
            hit &= ~found
            found |= hit
            offset += hit * offset.dtype.type(o)

    def backward_fn(gout: np.ndarray) -> None:
        # a tap's share of the gradient is gout where that tap was the
        # window's first maximum and +0.0 elsewhere, selected by masking
        # gout's bits so a NaN or inf stays in place.  Disjoint taps (stride
        # >= k) write their share; overlapping ones add it, last tap first,
        # so each element sums its windows in row-major window order
        bits = np.dtype(f"u{gout.itemsize}")
        keep = np.empty(gout.shape, dtype=bits)
        gx = np.zeros((n, c, h, w), dtype=gout.dtype)
        gx_taps = _windows(gx, k, k, stride, out_h, out_w)
        for o in reversed(range(k * k)):
            np.equal(offset, o, out=keep)
            np.negative(keep, out=keep)  # 1 -> all bits set
            if stride >= k:
                np.bitwise_and(gout.view(bits), keep, out=gx_taps[o].view(bits))
            else:
                np.bitwise_and(gout.view(bits), keep, out=keep)
                gx_taps[o] += keep.view(gout.dtype)
        _accumulate(x, gx)

    return _finish("max_pool2d", (x,), out_data, backward_fn)


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

    def backward_fn(gout: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        for i, (h0, h1) in enumerate(bounds_h):
            for j, (w0, w1) in enumerate(bounds_w):
                area = (h1 - h0) * (w1 - w0)
                gx[:, :, h0:h1, w0:w1] += gout[:, :, i, j][:, :, None, None] / area
        _accumulate(x, gx)

    return _finish("adaptive_avg_pool", (x,), out_data, backward_fn)


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

    def backward_fn(gout: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, gout @ weight.data)
        if weight.requires_grad:
            _accumulate(weight, gout.T @ x.data)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, gout.sum(axis=0))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _finish("linear", inputs, out_data, backward_fn)


def relu(x: Tensor, *, out: np.ndarray | None = None) -> Tensor:
    """max(x, 0), written into `out` when the caller hands over x's own
    array (see the module docstring); backward reads only where the result
    is positive, which is where x is."""

    def backward_fn(gout: np.ndarray) -> None:
        _accumulate(x, np.multiply(gout, x.data > 0, out=gout))

    return _finish("relu", (x,), np.maximum(x.data, 0, out=out), backward_fn)


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

    def backward_fn(gout: np.ndarray) -> None:
        _accumulate(x, gout * s * (1.0 - s))

    return _finish("sigmoid", (x,), s, backward_fn)


def add(a: Tensor, b: Tensor, *, out: np.ndarray | None = None) -> Tensor:
    """a + b, written into `out` when a caller hands one over; backward
    reads no data."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def backward_fn(gout: np.ndarray) -> None:
        _accumulate(a, gout)
        if b.requires_grad:
            _accumulate(b, gout.copy())  # `a` may have adopted gout itself

    return _finish("add", (a, b), np.add(a.data, b.data, out=out), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b elementwise, where `b` may broadcast: it has a's rank and each
    of its axes is a's extent or 1 (an (N, C, 1, 1) channel scale, say).
    b's gradient sums over the axes it is stretched along."""
    if b.data.ndim != a.data.ndim or any(m not in (n, 1) for n, m in zip(a.shape, b.shape)):
        raise ShapeError(f"mul: shape {b.shape} does not broadcast to {a.shape}")
    stretched = tuple(i for i, (n, m) in enumerate(zip(a.shape, b.shape)) if n != m)

    def backward_fn(gout: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, gout * b.data)
        if b.requires_grad:
            _accumulate(b, (gout * a.data).sum(axis=stretched, keepdims=True))

    return _finish("mul", (a, b), a.data * b.data, backward_fn)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward_fn(gout: np.ndarray) -> None:
        _accumulate(x, gout.reshape(x.shape))

    return _finish("reshape", (x,), x.data.reshape(shape), backward_fn)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def backward_fn(gout: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(gout, x.shape).copy())

    return _finish("sum", (x,), x.data.sum(), backward_fn)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def _normalized(x: np.ndarray, mean: np.ndarray, inv_std: np.ndarray,
                *affine: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per channel, ``(x - mean) * inv_std``, then times gamma plus beta when
    `affine` is (gamma, beta): one buffer, each op in place in that order,
    with the element type of the expression written out.  The buffer is
    `out` (x itself, say) when given in that type, else a new one."""
    dtype = np.result_type(x, mean, inv_std, *affine)
    if out is None or out.dtype != dtype:
        out = np.empty(x.shape, dtype=dtype)
    np.subtract(x, mean[None, :, None, None], out=out)
    out *= inv_std[None, :, None, None]
    if affine:
        gamma, beta = affine
        out *= gamma[None, :, None, None]
        out += beta[None, :, None, None]
    return out


def _check_batch_norm_inputs(x: Tensor, gamma: Tensor, beta: Tensor) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d: input must be 4-D, got rank {x.data.ndim}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm2d: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},)")


def batch_norm2d_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, *,
                       out: np.ndarray | None = None,
                       rebuild: Callable[[], np.ndarray] | None = None
                       ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Normalize per channel with batch statistics over (N, H, W).

    Returns (output, batch_mean, batch_var); variance is the biased estimate
    and zero-variance channels are guarded by eps.  The backward pass accounts
    for the dependence of the batch statistics on the input through two
    per-channel sums over the m = N*H*W elements (Ioffe & Szegedy, 2015):
    for the output gradient g, dbeta = sum(g), dgamma = sum(g * x_hat) and
    dx = gamma * inv_std * (g - sum(g) / m - x_hat * sum(g * x_hat) / m).
    The normalized input x_hat is kept for it: in `out` when a caller hands
    over ``x.data`` there (see the module docstring), else in a new array.
    With `rebuild`, a function that returns a new array holding x's data
    again, x_hat is not kept: backward normalizes rebuild()'s array with the
    forward's statistics, so a caller may drop x's array once this has run.
    The output is x_hat * gamma + beta in a new array.
    """
    _check_batch_norm_inputs(x, gamma, beta)
    n, c, h, w = x.shape
    m = n * h * w
    mean = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3), mean=mean[None, :, None, None])
    inv_std = 1.0 / np.sqrt(var + eps)
    kept = _normalized(x.data, mean, inv_std, out=out)
    out_data = kept * gamma.data[None, :, None, None]
    out_data += beta.data[None, :, None, None]
    if rebuild is not None:
        kept = None

    def backward_fn(gout: np.ndarray) -> None:
        # sum(g * x_hat) over sample blocks of at most CONV_BLOCK elements (or
        # one sample), x_hat normalized there first if rebuilt: each sample's
        # sum over (H, W) in a row, the rows added in sample order, which
        # with more than one channel are the bits of numpy's whole-array
        # sum.  One channel numpy sums as one pairwise run over N*H*W, so
        # then the block is the batch.  Then, block by block, x_hat *
        # sum(g * x_hat) / m over x_hat, which no backward reads again, and
        # dx in gout itself: no input-sized scratch
        x_hat = kept if rebuild is None else rebuild()
        step = n if c == 1 else max(1, CONV_BLOCK // x_hat[:1].size)
        blocks = [slice(s0, s0 + step) for s0 in range(0, n, step)]
        prod = np.empty((min(step, n), c, h, w), dtype=np.result_type(x_hat, gout))

        def products(b: slice) -> np.ndarray:
            if rebuild is not None:
                _normalized(x_hat[b], mean, inv_std, out=x_hat[b])
            return np.multiply(x_hat[b], gout[b], out=prod[:len(x_hat[b])])

        if c == 1:
            gx_sum = products(blocks[0]).sum(axis=(0, 2, 3))
        else:
            rows = np.empty((n, c), dtype=prod.dtype)
            for b in blocks:
                products(b).sum(axis=(2, 3), out=rows[b])
            gx_sum = rows.sum(axis=0)
        g_sum = gout.sum(axis=(0, 2, 3))
        if x.requires_grad:
            x_hat_scale = (gx_sum / m)[None, :, None, None]
            g_mean = (g_sum / m)[None, :, None, None]
            dx_scale = (gamma.data * inv_std)[None, :, None, None]
            for b in blocks:
                x_hat[b] *= x_hat_scale
                gout[b] -= g_mean
                gout[b] -= x_hat[b]
                gout[b] *= dx_scale
            _accumulate(x, gout)
        _accumulate(gamma, gx_sum)
        _accumulate(beta, g_sum)

    return _finish("batch_norm2d_train", (x, gamma, beta), out_data, backward_fn), mean, var


def batch_norm2d_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      eps: float, *, out: np.ndarray | None = None) -> Tensor:
    """Per-channel affine normalization with fixed running statistics.

    The backward pass recomputes the normalized input from ``x.data`` and
    the statistics as they were at the forward.  So a caller may hand over
    ``x.data`` as `out`, but it is written only when no graph records the
    op (eval and ``predict``) and already has the result's element type;
    otherwise the result is a new array."""
    _check_batch_norm_inputs(x, gamma, beta)
    mean = running_mean.copy()  # a train-mode forward updates the stats in place
    inv_std = 1.0 / np.sqrt(running_var + eps)
    inputs = (x, gamma, beta)
    out_data = _normalized(x.data, mean, inv_std, gamma.data, beta.data,
                           out=None if _records(inputs) else out)

    def backward_fn(gout: np.ndarray) -> None:
        if gamma.requires_grad:
            x_hat = _normalized(x.data, mean, inv_std)
            _accumulate(gamma, (gout * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            _accumulate(beta, gout.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            _accumulate(x, gout * (gamma.data * inv_std)[None, :, None, None])

    return _finish("batch_norm2d_eval", inputs, out_data, backward_fn)
