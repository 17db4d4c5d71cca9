"""Deliberately naive reference implementations used to cross-check the
vectorized library code.  Everything here is written as explicit Python loops
over the defining formulas — slow, obvious, and independent of the strided /
BLAS-backed routes in the package.  Gradients have one more oracle, central
differences: ``assert_gradients_match`` is the suite's one pass rule for
``grad_check``."""

import numpy as np

from resemotenet import autodiff as ad
from resemotenet.data import FER_HEADER, FER_NATIVE_REMAP, bilinear_resize
from resemotenet.errors import DataError
from resemotenet.verification import GRADCHECK_TOL, grad_check


def assert_gradients_match(f, named):
    """Fail unless every input's relative error is within `GRADCHECK_TOL`;
    a NaN error fails."""
    errors = grad_check(f, named)
    failing = {name: err for name, err in errors.items() if not err <= GRADCHECK_TOL}
    assert not failing, f"relative error above {GRADCHECK_TOL:g}: {failing}"


def poisoned(x, value):
    """x, recorded as an op whose backward writes `value` (NaN, inf) into
    the first element of the gradient it passes on: a wrong backward that
    the audit must catch."""
    def backward_fn(gout):
        grad = gout.copy()
        grad.reshape(-1)[0] = value
        ad._accumulate(x, grad)

    return ad._finish("poisoned", (x,), x.data.copy(), backward_fn)


def conv2d_loops(x, weight, bias=None, stride=1, padding=1):
    """Cross-correlation via the definition: quadruple loop over output
    positions and kernel taps."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, out_h, out_w), dtype=x.dtype)
    for b in range(n):
        for co in range(cout):
            for oi in range(out_h):
                for oj in range(out_w):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii = oi * stride + ki - padding
                                jj = oj * stride + kj - padding
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += x[b, ci, ii, jj] * weight[co, ci, ki, kj]
                    out[b, co, oi, oj] = acc
            if bias is not None:
                out[b, co] += bias[co]
    return out


def live_taps_loops(in_size, k, stride, padding):
    """For each tap of a k-tap kernel axis: whether any output position of
    the padded, strided slide reads a non-padding input element there."""
    out = (in_size + 2 * padding - k) // stride + 1
    return [any(0 <= o * stride + i - padding < in_size for o in range(out))
            for i in range(k)]


def held_he_normal_loops(seed, first_child, shape, window, chunk, dtype):
    """The values `draw_he_normal` gives a (Cout, Cin, kh, kw) conv weight
    held as its (rows, cols) `window` alone, flat, when its first declared
    element opens child stream `first_child` of ``SeedSequence(seed)``:
    for each run of `chunk` declared elements, the next child's first
    normals, one per held element of the run, times sqrt(2 / declared
    fan-in), cast to `dtype`."""
    held = np.zeros(shape, dtype=bool)
    held[(..., *window)] = True
    held = held.reshape(-1)
    starts = range(0, held.size, chunk)
    children = np.random.SeedSequence(seed).spawn(first_child + len(starts))
    scale = np.sqrt(2.0 / np.prod(shape[1:]))
    values = []
    for k, start in enumerate(starts):
        n = sum(1 for flag in held[start:start + chunk] if flag)
        normals = np.random.Generator(np.random.PCG64(children[first_child + k]))
        values.append((normals.standard_normal(n) * scale).astype(dtype))
    return np.concatenate(values)


def conv2d_backward_loops(x, weight, gout, stride=1, padding=1):
    """Input and weight gradients of `conv2d_loops` for the output gradient
    `gout`: each product x[..] * weight[..] of the forward sends
    gout * weight back to x and gout * x back to weight."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    _, _, out_h, out_w = gout.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(weight)
    for b in range(n):
        for co in range(cout):
            for oi in range(out_h):
                for oj in range(out_w):
                    g = gout[b, co, oi, oj]
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                ii = oi * stride + ki - padding
                                jj = oj * stride + kj - padding
                                if 0 <= ii < h and 0 <= jj < w:
                                    gx[b, ci, ii, jj] += g * weight[co, ci, ki, kj]
                                    gw[co, ci, ki, kj] += g * x[b, ci, ii, jj]
    return gx, gw


def max_pool2d_backward_loops(x, gout, k, stride):
    """The input gradient of a k x k max-pool: window by window, in
    row-major window order, its output gradient is added at the window's
    first maximum in row-major tap order, or at its first NaN if it holds
    one.  Accumulates in gout's element type."""
    n, c, _, _ = x.shape
    _, _, out_h, out_w = gout.shape
    gx = np.zeros(x.shape, dtype=gout.dtype)
    for b in range(n):
        for ci in range(c):
            for oi in range(out_h):
                for oj in range(out_w):
                    plane = x[b, ci]
                    taps = [(oi * stride + ki, oj * stride + kj)
                            for ki in range(k) for kj in range(k)]
                    nans = [tap for tap in taps if np.isnan(plane[tap])]
                    at = nans[0] if nans else taps[0]
                    if not nans:
                        for tap in taps[1:]:
                            if plane[tap] > plane[at]:  # strict: a tie keeps the first
                                at = tap
                    gx[b, ci][at] += gout[b, ci, oi, oj]
    return gx


def max_pool2d_loops(x, k, stride):
    n, c, h, w = x.shape
    out_h = (h - k) // stride + 1
    out_w = (w - k) // stride + 1
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for oi in range(out_h):
                for oj in range(out_w):
                    best = -np.inf
                    for ki in range(k):
                        for kj in range(k):
                            v = x[b, ci, oi * stride + ki, oj * stride + kj]
                            if v > best:
                                best = v
                    out[b, ci, oi, oj] = best
    return out


def adaptive_avg_pool_loops(x, out_h, out_w):
    """Region averaging with [floor(i*H/out), ceil((i+1)*H/out)) bounds."""
    n, c, h, w = x.shape
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    for b in range(n):
        for ci in range(c):
            for oi in range(out_h):
                h0 = (oi * h) // out_h
                h1 = int(np.ceil((oi + 1) * h / out_h))
                for oj in range(out_w):
                    w0 = (oj * w) // out_w
                    w1 = int(np.ceil((oj + 1) * w / out_w))
                    acc = 0.0
                    for ii in range(h0, h1):
                        for jj in range(w0, w1):
                            acc += x[b, ci, ii, jj]
                    out[b, ci, oi, oj] = acc / ((h1 - h0) * (w1 - w0))
    return out


def linear_loops(x, weight, bias=None):
    """y[i, o] = sum_k x[i, k] * weight[o, k] + bias[o], as a triple loop."""
    n, din = x.shape
    dout = weight.shape[0]
    out = np.zeros((n, dout), dtype=x.dtype)
    for i in range(n):
        for o in range(dout):
            acc = 0.0
            for kk in range(din):
                acc += x[i, kk] * weight[o, kk]
            out[i, o] = acc + (bias[o] if bias is not None else 0.0)
    return out


def batch_norm_loops(x, gamma, beta, eps):
    """Per-channel standardization with biased variance, all in loops."""
    n, c, h, w = x.shape
    m = n * h * w
    out = np.empty_like(x)
    for ci in range(c):
        s = 0.0
        for b in range(n):
            for ii in range(h):
                for jj in range(w):
                    s += x[b, ci, ii, jj]
        mean = s / m
        sq = 0.0
        for b in range(n):
            for ii in range(h):
                for jj in range(w):
                    sq += (x[b, ci, ii, jj] - mean) ** 2
        var = sq / m
        inv = 1.0 / np.sqrt(var + eps)
        for b in range(n):
            for ii in range(h):
                for jj in range(w):
                    out[b, ci, ii, jj] = gamma[ci] * (x[b, ci, ii, jj] - mean) * inv + beta[ci]
    return out


def batch_norm_train_backward_formula(x, gamma, gout, eps):
    """(x, gamma, beta) gradients of a train-mode batch norm for the output
    gradient `gout`, by the two-sum formula: each elementwise product in its
    own full-size temporary, each reduction over (N, H, W), as the backward
    computed them while it held a whole-size g * x-hat scratch array.  Not a
    loop oracle but a bitwise one: it fixes the order of every rounding."""
    n, c, h, w = x.shape
    m = n * h * w
    axes, per_channel = (0, 2, 3), (None, slice(None), None, None)
    mean = x.mean(axis=axes)
    inv_std = 1.0 / np.sqrt(x.var(axis=axes) + eps)
    x_hat = (x - mean[per_channel]) * inv_std[per_channel]
    g_beta = gout.sum(axis=axes)
    g_gamma = (x_hat * gout).sum(axis=axes)
    g_x = ((gout - (g_beta / m)[per_channel] - x_hat * (g_gamma / m)[per_channel])
           * (gamma * inv_std)[per_channel])
    return g_x, g_gamma, g_beta


def batch_norm_train_backward_loops(x, gamma, gout, eps):
    """(x, gamma, beta) gradients of a train-mode batch norm, element by
    element through the chain rule as Ioffe & Szegedy (2015) write it: the
    gradient of x-hat, then of the batch variance and mean, then of x."""
    n, c, h, w = x.shape
    m = n * h * w
    g_x, g_gamma, g_beta = np.empty(x.shape), np.zeros(c), np.zeros(c)
    for ci in range(c):
        xs = [(b, ii, jj) for b in range(n) for ii in range(h) for jj in range(w)]
        mean = sum(x[b, ci, ii, jj] for b, ii, jj in xs) / m
        var = sum((x[b, ci, ii, jj] - mean) ** 2 for b, ii, jj in xs) / m
        inv = 1.0 / np.sqrt(var + eps)
        d_var = d_mean = centred_sum = 0.0
        for b, ii, jj in xs:
            g, centred = gout[b, ci, ii, jj], x[b, ci, ii, jj] - mean
            g_beta[ci] += g
            g_gamma[ci] += g * centred * inv
            d_var += g * gamma[ci] * centred * -0.5 * inv ** 3
            d_mean -= g * gamma[ci] * inv
            centred_sum += centred
        d_mean += d_var * -2.0 * centred_sum / m
        for b, ii, jj in xs:
            centred = x[b, ci, ii, jj] - mean
            g_x[b, ci, ii, jj] = (gout[b, ci, ii, jj] * gamma[ci] * inv
                                  + d_var * 2.0 * centred / m + d_mean / m)
    return g_x, g_gamma, g_beta


def softmax_cross_entropy_loops(logits, labels):
    """Mean negative log-softmax probability of the true class."""
    n, k = logits.shape
    total = 0.0
    for i in range(n):
        mx = max(logits[i, j] for j in range(k))
        denom = sum(np.exp(logits[i, j] - mx) for j in range(k))
        total += -(logits[i, labels[i]] - mx - np.log(denom))
    return total / n


def bilinear_resize_loops(img, out_h, out_w):
    """Corner-aligned bilinear interpolation of an (H, W) image."""
    h, w = img.shape
    out = np.empty((out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        sy = i * (h - 1) / (out_h - 1) if out_h > 1 else (h - 1) / 2.0
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = j * (w - 1) / (out_w - 1) if out_w > 1 else (w - 1) / 2.0
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def fer_csv_text(manifests):
    """The CSV corpus text, one pixel at a time: each value is quantized
    as ``uint8(rint(p * 255))`` in the sample's own type and printed with
    ``str``."""
    usage_of = {"train": "Training", "test": "PublicTest"}
    native_of = {canon: native for native, canon in FER_NATIVE_REMAP.items()}
    lines = ["emotion,pixels,Usage"]
    for split, manifest in manifests.items():
        for sample in manifest.samples:
            values = []
            for p in sample.pixels[0].reshape(-1):
                values.append(str(np.uint8(np.rint(p * 255))))
            lines.append(f"{native_of[sample.label]},{' '.join(values)},{usage_of[split]}")
    return "\n".join(lines) + "\n"


def fer_csv_whole_file(path, split):
    """The CSV loader as a whole-file read with eager pixels: the text is
    decoded at once and split by `str.splitlines`, and each row of `split`
    is parsed in float64, scaled by ``1/255`` and cast to the default
    element type.  Returns (label, source id, (1, 48, 48) pixels) triples,
    or raises the loader's `DataError`."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read dataset file {path}: {err}") from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != FER_HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise DataError(f"{path}: line 1: expected header {FER_HEADER!r}, got {got!r}")
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{path}: line {ln}: expected 3 fields, got {len(parts)}")
        raw_label, pixel_field, usage = parts[0].strip(), parts[1], parts[2].strip()
        if usage not in ("Training", "PublicTest", "PrivateTest"):
            raise DataError(f"{path}: line {ln}: unknown usage value {usage!r}")
        if (usage == "Training") != (split == "train"):
            continue
        try:
            native = int(raw_label)
        except ValueError:
            raise DataError(f"{path}: line {ln}: label {raw_label!r} is not an integer")
        if native not in FER_NATIVE_REMAP:
            raise DataError(f"{path}: line {ln}: label {native} outside 0-6")
        try:
            values = np.array(pixel_field.split(), dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}: line {ln}: non-numeric pixel value")
        if values.size != 48 * 48:
            raise DataError(f"{path}: line {ln}: expected 2304 pixels, got {values.size}")
        if ((values < 0) | (values > 255)).any() or (values != np.floor(values)).any():
            raise DataError(f"{path}: line {ln}: pixels must be integers in 0-255")
        pixels = (values * (1.0 / 255.0)).astype(ad.default_dtype()).reshape(1, 48, 48)
        rows.append((FER_NATIVE_REMAP[native], f"{path.name}#L{ln}", pixels))
    return rows


def fer_eager_fit(pixels, size, channels):
    """One row's pixels fitted as an eager load did: the plane resized in
    float64 unless it fits, cast to the default element type, replicated
    to `channels`."""
    if size != 48:
        pixels = bilinear_resize(pixels[0].astype(np.float64), size, size)[None]
    return np.repeat(pixels.astype(ad.default_dtype()), channels, axis=0)
