"""Dense tensor values plus the reverse-mode differentiable primitives the
forecaster is built from. Arrays are numpy-backed; every op is pure, checks
shapes up front, and records its backward rule on the active GradTape."""

from __future__ import annotations

import itertools
import math

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Raised when operand shapes (or dtypes) are incompatible."""


# Source of `Tensor.key`: unlike `id()`, a key is never handed out again
# after its Tensor is freed, so the tape can route gradients by it.
_keys = itertools.count()


class Tensor:
    """Immutable dense array value.

    `data` is a row-major numpy array in float32 (training mode) or float64
    (gradient-check mode). `key` is an integer unique to this Tensor for the
    life of the process; the tape records it in place of the Tensor. Tensors
    are never mutated after construction; updates produce new Tensors.
    """

    __slots__ = ("data", "key")

    def __init__(self, data, dtype=None):
        if dtype is None:
            # float arrays keep their width; lists, ints, etc. get the default
            keep = isinstance(data, np.ndarray) and data.dtype in FLOAT_DTYPES
            dtype = data.dtype if keep else DEFAULT_DTYPE
        arr = np.array(data, dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "key", next(_keys))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Fast path for op outputs: takes ownership, no copy.
        t = object.__new__(cls)
        if arr.flags.writeable:
            arr.setflags(write=False)
        object.__setattr__(t, "data", arr)
        object.__setattr__(t, "key", next(_keys))
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------

_active: "GradTape | None" = None


def active_tape() -> "GradTape | None":
    return _active


class GradTape:
    """Ordered record of primitive applications for reverse-mode gradients.

    Use as a context manager around the forward computation, then call
    `gradients(loss, params)`. One tape per training step, and at most one
    active at a time. The tape holds keys and backward closures, never
    Tensors, so an intermediate lives only as long as the forward code or a
    closure that reads it holds its array.
    """

    def __init__(self):
        self._ops: list[tuple[int, tuple[int, ...], object]] = []

    def __enter__(self) -> "GradTape":
        global _active
        if _active is not None:
            raise RuntimeError("a GradTape is already active")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None
        return False

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward) -> None:
        """Append one primitive: `backward(grad_out)` must return one gradient
        array (or None) per input, each of the input's exact shape.

        Only the keys of `out` and `inputs` are kept. `backward` should
        capture the arrays and shapes it reads, not Tensors, or it keeps
        those Tensors alive until the tape is dropped."""
        self._ops.append((out.key, tuple(t.key for t in inputs), backward))

    def gradients(self, loss: Tensor, params: list[Tensor]) -> list[np.ndarray]:
        """Walk the tape backward from a scalar loss.

        Gradients are routed by `Tensor.key`. Returns one gradient per
        requested parameter, of identical shape; parameters the loss does
        not depend on get zeros.
        """
        if loss.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.shape}")
        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        for out, inputs, backward in reversed(self._ops):
            g = grads.pop(out, None)
            if g is None:
                continue
            in_grads = backward(g)
            for key, ig in zip(inputs, in_grads):
                if ig is None:
                    continue
                acc = grads.get(key)
                grads[key] = ig if acc is None else acc + ig
        return [grads[p.key] if p.key in grads else np.zeros_like(p.data) for p in params]


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    if _active is not None:
        _active.record(out, inputs, backward)
    return out


def _check_same_dtype(op: str, *tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ShapeError(f"{op}: mixed dtypes {sorted(d.name for d in dtypes)}")


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Elementwise and broadcast arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ: {a.shape} vs {b.shape}")
    _check_same_dtype("add", a, b)
    out = Tensor._wrap(a.data + b.data)

    def backward(g):
        return g, g

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ: {a.shape} vs {b.shape}")
    _check_same_dtype("mul", a, b)
    ad, bd = a.data, b.data
    out = Tensor._wrap(ad * bd)

    def backward(g):
        return g * bd, g * ad

    return _record(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar."""
    s = a.dtype.type(s)
    out = Tensor._wrap(a.data * s)

    def backward(g):
        return (g * s,)

    return _record(out, (a,), backward)


def broadcast_add(a: Tensor, b: Tensor) -> Tensor:
    """`a + b` where `b` broadcasts against `a` by numpy trailing-axis rules
    (bias vectors, positional embeddings). `a`'s shape is preserved."""
    _check_same_dtype("broadcast_add", a, b)
    try:
        out_shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"broadcast_add: incompatible shapes {a.shape} vs {b.shape}") from None
    if out_shape != a.shape:
        raise ShapeError(f"broadcast_add: {b.shape} does not broadcast into {a.shape}")
    out = Tensor._wrap(a.data + b.data)
    b_shape = b.shape

    def backward(g):
        return g, _unbroadcast(g, b_shape)

    return _record(out, (a, b), backward)


# ---------------------------------------------------------------------------
# Matrix product
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes.

    Supports 2-D x 2-D, stacked x stacked with identical leading extents,
    and stacked x 2-D (shared weight applied to every leading slot).
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ: {a.shape} x {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading extents differ: {a.shape} x {b.shape}")
    _check_same_dtype("matmul", a, b)
    ad, bd = a.data, b.data
    out = Tensor._wrap(ad @ bd)

    def backward(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        if bd.ndim == 2 and ad.ndim > 2:
            # Shared weight: reduce over the stacked slots.
            gb = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(ad, -1, -2) @ g
        return ga, gb

    return _record(out, (a, b), backward)


# ---------------------------------------------------------------------------
# Normalization and nonlinearities
# ---------------------------------------------------------------------------


# Added to each row's variance by `layer_norm`, so a constant row maps to beta.
_LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row zero-mean/unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    _check_same_dtype("layer_norm", x, gamma, beta)
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(_LAYER_NORM_EPS))
    xhat = xc * inv
    out = Tensor._wrap(xhat * gamma.data + beta.data)
    gd = gamma.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gd
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return _record(out, (x, gamma, beta), backward)


def softmax_last_axis(x: Tensor) -> Tensor:
    """Max-stabilized softmax over the last axis; rows sum to 1."""
    xd = x.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(p)

    def backward(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return _record(out, (x,), backward)


# Largest score block `attention` holds at once, in bytes (one slot may exceed it).
_ATTN_GROUP_BYTES = 512 * 1024
# log2(e): `attention` folds it into its query scale, so its exponentials are base 2
_LOG2E = 1.0 / math.log(2.0)


def _with_column(x: np.ndarray, col) -> np.ndarray:
    """`x` with one more entry on its last axis, filled from `col` (a scalar or
    an array with one entry on its last axis)."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,), dtype=x.dtype)
    out[..., :-1] = x
    out[..., -1:] = col
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, sink: list | None = None) -> Tensor:
    """Multi-head `softmax(q @ kᵀ / sqrt(dh)) @ v` over (B, N, d) tokens, as one tape node.

    q, k and v are viewed as `heads` heads of dh = d / heads columns each,
    (B, h, N, dh); the output and dq, dk, dv are (B, N, d) arrays written
    through the same view. A slot is one (batch, head) pair's N x N score
    block. The node walks runs of whole batches up to `_ATTN_GROUP_BYTES` of
    scores, or one slot at a time when one batch's slots exceed it; any walk
    gives the same bits. Each block is formed in one buffer reused across the
    walk. Per block it takes the base-2 scores S₂ = (q log2(e) / sqrt(dh)) @ kᵀ
    and their row max m, forms E = exp2(S₂ - m) in place, takes the row sums
    l = E @ 1 as a matrix-vector product, and divides E @ v by l, never
    normalising E itself. It keeps m, l and the output; its backward
    recomputes E from them, so no (B, h, N, N) array outlives a block. The
    backward folds each softmax shift into a matrix product through one extra
    operand column, S₂ - m from [q log2(e) / sqrt(dh) | -m] and [k | 1],
    dP - D from [dO | -D] and [v | 1], and writes E and dS into two buffers
    of its own, reused across its walk. The result agrees with the composed
    `matmul`, `transpose`, `scale`, `softmax_last_axis` and `matmul` chain to
    float rounding, not to the byte. When `sink` is a list, the full
    (B, h, N, N) P = E / l is appended to it. A zero B gives an empty output.
    """
    if (q.ndim != 3 or k.shape != q.shape or v.shape != q.shape or heads < 1
            or 0 in q.shape[1:] or q.shape[2] % heads):
        raise ShapeError(f"attention: q, k, v need one (B, N, d) shape with N, d > 0 and heads "
                         f">= 1 dividing d, got {q.shape}, {k.shape}, {v.shape}, heads={heads}")
    b, n, d = shape = q.shape
    _check_same_dtype("attention", q, k, v)
    h, dh = heads, d // heads

    def split(x):   # (B, N, d) -> (B, h, N, dh), a view
        return x.reshape(b, n, h, dh).transpose(0, 2, 1, 3)

    qd, kd, vd = split(q.data), split(k.data), split(v.data)
    s = q.dtype.type(1.0 / math.sqrt(dh))
    s2 = q.dtype.type(_LOG2E / math.sqrt(dh))
    batches = _ATTN_GROUP_BYTES // (h * n * n * q.dtype.itemsize)
    if batches:
        groups = [slice(i, i + batches) for i in range(0, b, batches)]
        block = (min(batches, b), h, n, n)
    else:
        groups = list(np.ndindex(b, h))
        block = (n, n)

    # a block's scores go to buf[:rows]: all of it for a slot, fewer rows for
    # a short last run of batches
    buf = np.empty(block, dtype=q.dtype)
    qs2 = qd * s2
    ones = np.ones((n, 1), dtype=q.dtype)
    result = np.empty(shape, dtype=q.dtype)
    out = split(result)
    m = np.empty((b, h, n, 1), dtype=q.dtype)
    l = np.empty((b, h, n, 1), dtype=q.dtype)
    p_all = None if sink is None else np.empty((b, h, n, n), dtype=q.dtype)
    for ix in groups:
        rows = len(kd[ix])
        e = np.matmul(qs2[ix], np.swapaxes(kd[ix], -1, -2), out=buf[:rows])
        np.max(e, axis=-1, keepdims=True, out=m[ix])
        e -= m[ix]
        np.exp2(e, out=e)
        np.matmul(e, ones, out=l[ix])
        np.matmul(e, vd[ix], out=out[ix])
        if p_all is not None:
            np.divide(e, l[ix], out=p_all[ix])
    out /= l
    if sink is not None:
        sink.append(p_all)

    def backward(g):
        # With P = E / l: dv = Pᵀ g, dS = P ∘ (g vᵀ - D) with D = rowsum(g ∘ out),
        # dq = s dS k and dk = s dSᵀ q. Each shift rides in an extra column:
        # [q s2 | -m] [k | 1]ᵀ = S₂ - m and [g | -D] [v | 1]ᵀ = g vᵀ - D. Each
        # 1/l is moved onto an (N, dh) operand.
        g = split(g)
        qm = _with_column(qd * s2, -m)
        k1 = _with_column(kd, 1)
        gd = _with_column(g, -(g * out).sum(axis=-1, keepdims=True))
        v1 = _with_column(vd, 1)
        gl = g / l
        qsl = qd * (s / l)
        e_buf = np.empty(block, dtype=g.dtype)
        ds_buf = np.empty(block, dtype=g.dtype)
        grads = [np.empty(shape, dtype=g.dtype) for _ in range(3)]
        dq, dk, dv = map(split, grads)
        for ix in groups:
            rows = len(kd[ix])
            e = np.matmul(qm[ix], np.swapaxes(k1[ix], -1, -2), out=e_buf[:rows])
            np.exp2(e, out=e)
            np.matmul(np.swapaxes(e, -1, -2), gl[ix], out=dv[ix])
            ds = np.matmul(gd[ix], np.swapaxes(v1[ix], -1, -2), out=ds_buf[:rows])
            ds *= e
            np.matmul(ds, kd[ix], out=dq[ix])
            np.matmul(np.swapaxes(ds, -1, -2), qsl[ix], out=dk[ix])
        dq *= s / l
        return grads

    return _record(Tensor._wrap(result), (q, k, v), backward)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 rational erf(u) ≈ u P(u²) / Q(u²) on u in [-4, 4] (the coefficients
# of Eigen's and XLA's float32 erf), highest power first
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))
# elements per chunk of `gelu`'s loop, so its float32 temporaries stay in L2
_GELU_CHUNK = 65536


def _horner(coeffs, z, out):
    np.multiply(z, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= z
        out += c
    return out


def gelu(x: Tensor) -> Tensor:
    """GELU, `x * phi(x)` with `phi` the standard normal CDF, 0.5 (1 + erf(x / √2)).

    Both dtypes run one loop over cache-sized chunks and differ only in how
    erf is formed. float32 takes a rational float32 erf; it agrees with the
    float64 formula to about 2.5e-7 max(1, |x|). float64, the gradient-check
    mode, takes `scipy.special.erf`, imported only for float64, so float32
    code never loads scipy. Under an active tape the derivative
    `phi + x * pdf` is written in the same loop and is the one array the
    backward keeps, so neither the input nor `phi` outlives the forward.
    Without a tape it is not computed."""
    xd = x.data
    f = xd.dtype.type
    if f is np.float64:
        from scipy.special import erf
    out = np.empty(xd.shape, dtype=f)
    dgelu = None if _active is None else np.empty(xd.shape, dtype=f)
    flat, out_flat = xd.reshape(-1), out.reshape(-1)
    d_flat = None if dgelu is None else dgelu.reshape(-1)
    bufs = [np.empty(min(flat.size, _GELU_CHUNK), dtype=f) for _ in range(4)]
    for i in range(0, flat.size, _GELU_CHUNK):
        xc = flat[i:i + _GELU_CHUNK]
        u, u2, phi, den = (buf[:xc.size] for buf in bufs)
        np.multiply(xc, f(_INV_SQRT2), out=u)
        if f is np.float64:
            erf(u, out=phi)
        else:
            np.clip(u, -4.0, 4.0, out=u)
            np.multiply(u, u, out=u2)
            _horner(_ERF_P, u2, phi)
            phi *= u
            phi /= _horner(_ERF_Q, u2, den)   # erf(x / √2)
        phi *= 0.5
        phi += 0.5
        if d_flat is not None:
            pdf = np.multiply(xc, xc, out=u2)
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf *= f(_INV_SQRT2PI)
            pdf *= xc
            np.add(phi, pdf, out=d_flat[i:i + xc.size])
        np.multiply(xc, phi, out=out_flat[i:i + xc.size])
    if dgelu is None:
        return Tensor._wrap(out)

    def backward(g):
        return (g * dgelu,)

    return _record(Tensor._wrap(out), (x,), backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot reshape {x.shape} into {shape}")
    in_shape = x.shape
    out = Tensor._wrap(x.data.reshape(shape))

    def backward(g):
        return (g.reshape(in_shape),)

    return _record(out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: axes {axes} is not a permutation for rank {x.ndim}")
    out = Tensor._wrap(np.transpose(x.data, axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.transpose(g, inverse),)

    return _record(out, (x,), backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis."""
    n = x.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice_axis: [{start}:{stop}) out of range for extent {n}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    in_shape = x.shape
    out = Tensor._wrap(x.data[idx])

    def backward(g):
        full = np.zeros(in_shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return _record(out, (x,), backward)


def conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """1x1 convolution over the channel axis of (..., C_in, H, W).

    Equivalent to a per-pixel matmul with `w` of shape (C_in, C_out) plus
    bias (C_out,); built from transpose/matmul/broadcast_add so the backward
    pass comes from the primitives.
    """
    if x.ndim < 3:
        raise ShapeError(f"conv1x1: input must be (..., C, H, W), got {x.shape}")
    c_in = x.shape[-3]
    if w.ndim != 2 or w.shape[0] != c_in:
        raise ShapeError(f"conv1x1: weight {w.shape} does not match input channels {c_in}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"conv1x1: bias {b.shape} does not match output channels {w.shape[1]}")
    n = x.ndim
    to_last = tuple(i for i in range(n) if i != n - 3) + (n - 3,)
    y = transpose(x, to_last)                    # (..., H, W, C_in)
    y = broadcast_add(matmul(y, w), b)           # (..., H, W, C_out)
    from_last = tuple(range(n - 3)) + (n - 1, n - 3, n - 2)
    return transpose(y, from_last)               # (..., C_out, H, W)
