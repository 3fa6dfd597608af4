import importlib.util
import json
import math
import re
import struct
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from mmstt import numerics as nm
from mmstt.numerics import GradTape, ShapeError, Tensor


def t64(arr):
    return Tensor(np.asarray(arr), dtype=np.float64)


def mean_all(x):
    """Mean over every element as a scalar tape node: the loss these tests
    reduce an op's output with, and an `OP_CASES` entry of its own."""
    out = Tensor(np.asarray(x.data.mean(), dtype=x.dtype))
    tape = nm.active_tape()
    if tape is not None:
        in_shape, inv_n = x.shape, 1.0 / x.size
        tape.record(out, (x,), lambda g: (np.full(in_shape, g * inv_n, dtype=g.dtype),))
    return out


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        eye = t64(np.eye(2))
        m = t64([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(nm.matmul(eye, m).data, m.data)

    def test_1x2_times_2x1(self):
        out = nm.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = nm.matmul(t64(a), t64(b)).data
        want = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for k in range(7):
                    want[i, j] += a[i, k] * b[k, j]
        assert np.allclose(got, want, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("m,k,n", [(2, 3, 4), (8, 16, 8), (32, 32, 32)])
    def test_oracle_various_extents(self, m, k, n):
        rng = np.random.default_rng(m * 100 + n)
        a, b = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        want = np.array([[sum(a[i, t] * b[t, j] for t in range(k)) for j in range(n)] for i in range(m)])
        assert np.allclose(nm.matmul(t64(a), t64(b)).data, want, rtol=1e-6)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        got = nm.matmul(t64(a), t64(b)).data
        for i in range(2):
            for j in range(3):
                assert np.allclose(got[i, j], a[i, j] @ b[i, j], rtol=1e-10)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.zeros((2, 2)), dtype=np.float32)
        with pytest.raises(ShapeError, match="dtype"):
            nm.matmul(a, t64(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# layer_norm / softmax / gelu
# ---------------------------------------------------------------------------


class TestLayerNorm:
    def test_constant_rows_map_to_zero(self):
        x = t64(np.full((4, 8), 3.7))
        out = nm.layer_norm(x, t64(np.ones(8)), t64(np.zeros(8)))
        assert np.allclose(out.data, 0.0)

    def test_two_point_symmetry(self):
        out = nm.layer_norm(t64([[1.0, 3.0]]), t64(np.ones(2)), t64(np.zeros(2)))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_output_statistics(self):
        rng = np.random.default_rng(11)
        x = t64(rng.normal(size=(6, 64)))
        out = nm.layer_norm(x, t64(np.ones(64)), t64(np.zeros(64))).data
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            nm.layer_norm(t64(np.zeros((2, 4))), t64(np.ones(3)), t64(np.zeros(3)))


class TestSoftmax:
    def test_uniform(self):
        out = nm.softmax_last_axis(t64([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, 1.0 / 3.0)

    def test_no_overflow_on_large_logits(self):
        out = nm.softmax_last_axis(t64([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = t64(rng.uniform(-1e4, 1e4, size=(50, 17)))
        sums = nm.softmax_last_axis(x).data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_gelu_matches_erf_formula():
    from scipy.special import erf

    from mmstt.numerics.tensor import _GELU_CHUNK

    rng = np.random.default_rng(5)
    # one short chunk, and more than two chunks with a short last one
    for x in (rng.normal(size=(3, 9)) * 2, np.linspace(-9.0, 9.0, 2 * _GELU_CHUNK + 1001)):
        phi = 0.5 * (1 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(nm.gelu(t64(x)).data, x * phi, rtol=0, atol=1e-12)
        y, dy = _gelu_with_derivative(x)
        np.testing.assert_allclose(y, x * phi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dy, phi + x * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi),
                                   rtol=0, atol=1e-12)
    # a 0-d input keeps working under and outside a tape
    with GradTape():
        y = nm.gelu(t64(0.5))
    assert np.isclose(y.item(), 0.5 * 0.5 * (1 + erf(0.5 / np.sqrt(2))), atol=1e-12)
    assert nm.gelu(t64(0.5)).item() == y.item()


def _gelu_with_derivative(x):
    """GELU values and elementwise derivative of a float array, through the tape."""
    xt = Tensor(x)
    with GradTape() as tape:
        y = nm.gelu(xt)
        loss = mean_all(y)
    (dy,) = tape.gradients(loss, [xt])
    return y.data, dy * x.size


def test_float32_gelu_is_close_to_the_float64_formula():
    from scipy.special import erf

    # 2**20 points, so mean_all's 1/n and the rescaled derivative are exact
    x = np.linspace(-12.0, 12.0, 2**20, dtype=np.float32)
    x64 = x.astype(np.float64)
    phi = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    y, dy = _gelu_with_derivative(x)
    assert y.dtype == dy.dtype == np.float32
    assert np.all(np.abs(y - x64 * phi) <= 1e-6 * np.maximum(1.0, np.abs(x64)))
    assert np.all(np.abs(dy - (phi + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi))) <= 1e-6)
    assert np.array_equal(nm.gelu(Tensor(x)).data, y)
    # a 0-d input keeps working under and outside a tape
    x0 = np.array(-0.75, dtype=np.float32)
    y0, _ = _gelu_with_derivative(x0)
    assert y0.shape == () and nm.gelu(Tensor(x0)).data.shape == ()
    assert nm.gelu(Tensor(x0)).item() == y0.item()
    assert abs(y0.item() - -0.75 * 0.5 * (1.0 + erf(-0.75 / np.sqrt(2.0)))) <= 1e-6
    # inf and NaN come out as the float64 (scipy) path gives them
    special = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
    with np.errstate(invalid="ignore"):
        got = _gelu_with_derivative(special)
        want = _gelu_with_derivative(special.astype(np.float64))
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.astype(np.float64), w)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _attention_runs(shape, dtype, attends):
    """(values, gradients) of each `attend(q, k, v, h, sink)` on one random
    input, with (b, h, n, dh) = `shape`: the output and the sink's P, then
    the gradients of the (B, N, h·dh) inputs and of the biases added to
    them, under a fixed linear loss."""
    b, h, n, dh = shape
    rng = np.random.default_rng(n)

    def leaf(*s):
        return Tensor(rng.normal(size=s), dtype=dtype)

    xs = [leaf(b, n, h * dh) for _ in range(3)]
    biases = [leaf(h * dh) for _ in range(3)]
    weight = leaf(b, n, h * dh)
    runs = []
    for attend in attends:
        sink = []
        with GradTape() as tape:
            q, k, v = (nm.broadcast_add(x, bias) for x, bias in zip(xs, biases))
            out = attend(q, k, v, h, sink)
            loss = mean_all(nm.mul(out, weight))
        grads = tape.gradients(loss, xs + biases)
        runs.append(([out.data, *sink], grads))
    return runs


def _fused(q, k, v, h, sink):
    return nm.attention(q, k, v, h, sink=sink)


# in float32, (2, 2, 16, 8) is one group and (3, 4, 160, 8) one batch per group;
# (2, 4, 200, 8) and (1, 2, 300, 8) are walked one (batch, head) slot at a time
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 2, 16, 8), (3, 4, 160, 8), (2, 4, 200, 8), (1, 2, 300, 8)])
def test_attention_is_close_to_the_composed_chain(shape, dtype):
    # attention normalises its (N, dh) output by the row sums rather than P,
    # so it agrees with the chain to rounding, not to the byte
    tol = 1e-5 if dtype == np.float32 else 1e-12
    scale = 1.0 / np.sqrt(shape[-1])   # inexact in float32 for dh = 8

    def chain(q, k, v, h, sink):
        # the head split and merge as reshape/transpose nodes around the chain
        b, n, d = q.shape
        q, k, v = (nm.transpose(nm.reshape(x, (b, n, h, d // h)), (0, 2, 1, 3)) for x in (q, k, v))
        p = nm.softmax_last_axis(nm.scale(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), scale))
        sink.append(p.data)
        return nm.reshape(nm.transpose(nm.matmul(p, v), (0, 2, 1, 3)), (b, n, d))

    (chain_values, chain_grads), (values, grads) = _attention_runs(shape, dtype, [chain, _fused])
    for old, new in zip(chain_values + chain_grads, values + grads):
        assert old.dtype == new.dtype == dtype
        assert old.shape == new.shape
    for old, new in zip(chain_values, values):
        assert np.abs(new - old).max() <= tol * np.abs(old).max()
    # one bound for all gradients: the k-bias gradient is 0 in exact
    # arithmetic (softmax is shift-invariant), so the chain's is rounding noise
    largest = max(np.abs(g).max() for g in chain_grads)
    for old, new in zip(chain_grads, grads):
        assert np.abs(new - old).max() <= tol * largest


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 4, 200, 8), (3, 4, 160, 8), (16, 2, 32, 4), (1, 2, 300, 8)])
def test_attention_walk_never_changes_a_bit(shape, dtype, monkeypatch):
    # _ATTN_GROUP_BYTES is a speed and memory policy: one (batch, head) slot
    # at a time (budget 1), runs of two batches and all slots in one group
    # must give the same bytes. Two batches over (3, 4, 160, 8) leave a short
    # last run, the one walk that fills only part of the reused score buffer.
    def walked(budget):
        def attend(q, k, v, h, sink):
            monkeypatch.setattr("mmstt.numerics.tensor._ATTN_GROUP_BYTES", budget)
            return _fused(q, k, v, h, sink)
        return attend

    _, h, n, _ = shape
    two_batches = 2 * h * n * n * np.dtype(dtype).itemsize
    (slot_values, slot_grads), *others = _attention_runs(
        shape, dtype, [walked(1), walked(two_batches), walked(2**40)])
    for values, grads in others:
        for one_slot, other in zip(slot_values + slot_grads, values + grads):
            assert one_slot.dtype == other.dtype == dtype
            assert one_slot.shape == other.shape
            assert one_slot.tobytes() == other.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_of_extreme_score_rows_stays_finite(dtype):
    # score rows spanning up to +-1e4, and one constant row: the forward's
    # exponentials peak at exactly 1, the backward's, from the shift folded
    # into a product, only at about 1; neither may overflow or warn. Column
    # j·dh is head j's first.
    b, h, n, dh = 1, 2, 16, 4
    rng = np.random.default_rng(6)
    q = np.zeros((b, n, h * dh))
    q[..., ::dh] = np.linspace(-2e4, 2e4, n)[:, None]
    q[0, 3, dh] = 0.0
    k = rng.normal(size=(b, n, h * dh))
    k[..., ::dh] = np.linspace(-1.0, 1.0, n)[:, None]
    by_head = [a.reshape(b, n, h, dh) for a in (q, k)]
    scores = np.einsum("bihc,bjhc->bhij", *by_head) / math.sqrt(dh)
    assert np.ptp(scores, axis=-1).max() == pytest.approx(2e4)
    assert np.ptp(scores[0, 1, 3]) == 0.0
    tensors = [Tensor(a, dtype=dtype) for a in (q, k, rng.normal(size=q.shape))]
    weight = Tensor(rng.normal(size=q.shape), dtype=dtype)
    sink = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with GradTape() as tape:
            out = nm.attention(*tensors, h, sink=sink)
            loss = mean_all(nm.mul(out, weight))
        grads = tape.gradients(loss, tensors)
    assert np.isfinite(out.data).all()
    assert all(np.isfinite(g).all() for g in grads)
    assert np.abs(sink[0].sum(axis=-1) - 1.0).max() <= 1e-6


def test_attention_without_sink_matches_and_rejects_bad_shapes():
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.normal(size=(1, 5, 8)), dtype=np.float32) for _ in range(3))
    sink = []
    assert np.array_equal(nm.attention(q, k, v, 2).data, nm.attention(q, k, v, 2, sink=sink).data)
    assert sink[0].shape == (1, 2, 5, 5)
    with pytest.raises(ShapeError, match="attention"):
        nm.attention(q, k, Tensor(np.zeros((1, 5, 6)), dtype=np.float32), 2)
    with pytest.raises(ShapeError, match="dtype"):
        nm.attention(q, k, Tensor(np.zeros((1, 5, 8))), 2)
    # a rank other than 3, fewer than one head, and d not a multiple of heads
    for shape, heads in [((1, 2, 5, 4), 2), ((5, 8), 2), ((1, 5, 8), 0), ((1, 5, 8), 3)]:
        x = Tensor(np.zeros(shape), dtype=np.float32)
        with pytest.raises(ShapeError, match=re.escape(f"{shape}") + ".*" + f"heads={heads}"):
            nm.attention(x, x, x, heads)


# a zero B with a zero N is still refused
@pytest.mark.parametrize("shape", [(0, 5, 8), (1, 0, 8), (1, 5, 0), (0, 0, 8)])
def test_attention_of_a_zero_extent(shape):
    q, k, v = (Tensor(np.zeros(shape), dtype=np.float32) for _ in range(3))
    if shape[0] == 0 and shape[1]:
        # an empty batch has an empty output and empty gradients
        with _ClosureRecorder() as tape:
            out = nm.attention(q, k, v, 2)
        assert out.shape == shape
        (backward,) = tape.backwards
        assert [g.shape for g in backward(np.zeros(shape, dtype=np.float32))] == [shape] * 3
        return
    message = f"with N, d > 0 and heads >= 1 dividing d, got {shape}, {shape}, {shape}, heads=2"
    with pytest.raises(ShapeError, match=re.escape(message)):
        nm.attention(q, k, v, 2)


# ---------------------------------------------------------------------------
# shape ops, reductions, conv1x1
# ---------------------------------------------------------------------------


def test_reshape_transpose_round_trips_bit_exact():
    rng = np.random.default_rng(9)
    x = t64(rng.normal(size=(2, 3, 4, 5)))
    back = nm.reshape(nm.reshape(x, (6, 20)), (2, 3, 4, 5))
    assert np.array_equal(back.data, x.data)
    perm = (2, 0, 3, 1)
    back = nm.transpose(nm.transpose(x, perm), tuple(np.argsort(perm)))
    assert np.array_equal(back.data, x.data)


def test_slice_recovers_concatenated_parts():
    rng = np.random.default_rng(13)
    parts = [rng.normal(size=(2, k, 3)) for k in (1, 4, 2)]
    whole = t64(np.concatenate(parts, axis=1))
    for part, start in zip(parts, (0, 1, 5)):
        stop = start + part.shape[1]
        assert np.array_equal(nm.slice_axis(whole, 1, start, stop).data, part)


def test_elementwise_and_broadcast_add_oracles():
    rng = np.random.default_rng(21)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    assert np.array_equal(nm.add(t64(a), t64(b)).data, a + b)
    assert np.array_equal(nm.mul(t64(a), t64(b)).data, a * b)
    bias = rng.normal(size=(5,))
    assert np.array_equal(nm.broadcast_add(t64(a), t64(bias)).data, a + bias)
    with pytest.raises(ShapeError):
        nm.add(t64(a), t64(bias))
    with pytest.raises(ShapeError):
        # broadcasting may not grow the left operand
        nm.broadcast_add(t64(bias), t64(a))


def test_mean_all():
    x = t64([[1.0, 2.0], [3.0, 4.0]])
    assert mean_all(x).item() == 2.5


def test_conv1x1_matches_per_pixel_loop():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, 6, 4, 4))
    w = rng.normal(size=(6, 2))
    b = rng.normal(size=(2,))
    got = nm.conv1x1(t64(x), t64(w), t64(b)).data
    want = np.zeros((2, 2, 4, 4))
    for n in range(2):
        for co in range(2):
            for i in range(4):
                for j in range(4):
                    want[n, co, i, j] = x[n, :, i, j] @ w[:, co] + b[co]
    assert np.allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# gradient checks: every differentiable primitive, >=3 random shapes each
# ---------------------------------------------------------------------------


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape), dtype=np.float64)


def _frozen_functional(rng, shape):
    # Fixed random linear functional so every output entry matters and f stays pure.
    w = Tensor(rng.normal(size=shape), dtype=np.float64)
    return lambda y: mean_all(nm.mul(y, w))


OP_CASES = {
    "add": (2, [((3,), (3,)), ((2, 4), (2, 4)), ((2, 3, 2), (2, 3, 2))], lambda ps: nm.add(*ps)),
    "mul": (2, [((5,), (5,)), ((3, 3), (3, 3)), ((2, 2, 2), (2, 2, 2))], lambda ps: nm.mul(*ps)),
    "broadcast_add": (
        2,
        [((2, 3), (3,)), ((2, 3, 4), (4,)), ((2, 5, 3), (5, 3))],
        lambda ps: nm.broadcast_add(*ps),
    ),
    "matmul": (
        2,
        [((3, 4), (4, 2)), ((2, 3, 4), (2, 4, 3)), ((2, 2, 3, 4), (4, 5))],
        lambda ps: nm.matmul(*ps),
    ),
    "layer_norm": (
        3,
        [((4, 6), (6,), (6,)), ((2, 3, 5), (5,), (5,)), ((7,), (7,), (7,))],
        lambda ps: nm.layer_norm(*ps),
    ),
    "softmax": (1, [((4,),), ((3, 5),), ((2, 2, 4),)], lambda ps: nm.softmax_last_axis(ps[0])),
    "gelu": (1, [((6,),), ((3, 4),), ((2, 3, 2),)], lambda ps: nm.gelu(ps[0])),
    "reshape": (1, [((6,),), ((3, 4),), ((2, 3, 2),)], lambda ps: nm.reshape(ps[0], (ps[0].size,))),
    "transpose": (
        1,
        [((3, 4),), ((2, 3, 4),), ((2, 2, 3, 2),)],
        lambda ps: nm.transpose(ps[0], tuple(reversed(range(ps[0].ndim)))),
    ),
    "slice": (
        1,
        [((6,),), ((4, 5),), ((2, 6, 3),)],
        lambda ps: nm.slice_axis(ps[0], min(1, ps[0].ndim - 1), 1, ps[0].shape[min(1, ps[0].ndim - 1)]),
    ),
    "mean_all": (1, [((5,),), ((3, 4),), ((2, 3, 2),)], lambda ps: mean_all(ps[0])),
    "scale": (1, [((4,),), ((2, 3),), ((2, 2, 2),)], lambda ps: nm.scale(ps[0], 1.7)),
    # heads by d: one of width 4, three of width 2, two of width 4; (2, 200, 8)
    # in float64 is walked one (batch, head) slot at a time, four slots
    "attention": (
        3,
        [((1, 3, 4),) * 3, ((2, 5, 6),) * 3, ((2, 200, 8),) * 3],
        lambda ps: nm.attention(*ps, {4: 1, 6: 3, 8: 2}[ps[0].shape[-1]]),
    ),
    "conv1x1": (
        3,
        [((2, 3, 4, 4), (3, 2), (2,)), ((1, 6, 2, 2), (6, 1), (1,)), ((2, 2, 4, 2, 3), (4, 3), (3,))],
        lambda ps: nm.conv1x1(ps[0], ps[1], ps[2]),
    ),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_primitive_gradients(name):
    n_in, shape_sets, apply_op = OP_CASES[name]
    assert len(shape_sets) >= 3
    for trial, shapes in enumerate(shape_sets):
        rng = np.random.default_rng(hash(name) % 2**32 + trial)
        params = [_rand(rng, s) for s in shapes]
        functional = _frozen_functional(rng, apply_op(params).shape)

        def f(ps, functional=functional):
            return functional(apply_op(ps))

        report = nm.grad_check(f, params, eps=1e-5, tol=1e-4)
        assert report.passed, f"{name} {shapes}: {report}"


def test_grad_check_quadratic_is_tight():
    rng = np.random.default_rng(0)
    w = _rand(rng, (10,))
    report = nm.grad_check(lambda ps: mean_all(nm.mul(ps[0], ps[0])), [w], eps=1e-5, tol=1e-7)
    # analytic gradient 2w/n; central differences are exact for quadratics
    assert report.passed
    assert report.max_rel_err < 1e-7


def test_grad_check_detects_corrupted_gradient():
    rng = np.random.default_rng(1)
    w = _rand(rng, (8,))

    def bad_identity(x):
        out = Tensor._wrap(x.data.copy())
        tape = nm.active_tape()
        if tape is not None:

            def backward(g):
                bad = g.copy()
                bad.flat[0] *= 2.0  # deliberate corruption
                return (bad,)

            tape.record(out, (x,), backward)
        return out

    report = nm.grad_check(
        lambda ps: mean_all(nm.mul(bad_identity(ps[0]), ps[0])), [w], eps=1e-5, tol=1e-4
    )
    assert not report.passed
    # only entry 0's gradient is corrupted, and the report says so
    assert (report.worst_param, report.worst_entry) == (0, 0)
    assert "param 0, entry 0:" in str(report)


def test_grad_check_rejects_float32():
    w = Tensor(np.zeros(3), dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        nm.grad_check(lambda ps: mean_all(ps[0]), [w])


def test_grad_check_errors_on_nonfinite_loss():
    w = t64([1.0])

    def f(ps):
        return mean_all(nm.scale(ps[0], float("inf")))

    with pytest.raises(FloatingPointError):
        nm.grad_check(f, [w])


def test_traced_bench_ops_resolve_in_numerics():
    # perfbench/spans.py wraps these ops and ~30 other mmstt functions by name;
    # a missing one breaks `--trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from mmstt.numerics import tensor

    assert [op for op in spans.NUMERIC_OPS if not callable(getattr(tensor, op, None))] == []
    # installing looks up every other function it wraps by name as well; a
    # failed install leaves its patches in place, so undo them here
    tracer = spans.Tracer()
    try:
        with tracer.installed():
            pass
    finally:
        for owner, attr, original in reversed(tracer._patches):
            setattr(owner, attr, original)


def test_unused_param_gets_zero_gradient_of_same_shape():
    a, b = t64(np.ones((2, 3))), t64(np.ones((4,)))
    with GradTape() as tape:
        loss = mean_all(a)
    ga, gb = tape.gradients(loss, [a, b])
    assert ga.shape == (2, 3)
    assert gb.shape == (4,)
    assert np.all(gb == 0)


# ---------------------------------------------------------------------------
# what the tape keeps alive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("consumer", ["broadcast_add", "gelu"])
def test_an_intermediate_no_backward_reads_is_freed_under_a_live_tape(consumer):
    # broadcast_add's backward reads only the bias shape, gelu's only its own
    # derivative: neither needs the matmul output it consumes
    rng = np.random.default_rng(5)
    x, w, b = (_rand(rng, s) for s in ((3, 4), (4, 5), (5,)))
    with GradTape() as tape:
        y = nm.matmul(x, w)
        freed = weakref.ref(y.data)
        out = nm.broadcast_add(y, b) if consumer == "broadcast_add" else nm.gelu(y)
        del y
        assert freed() is None
        loss = mean_all(out)
    assert all(g.shape == p.shape for g, p in zip(tape.gradients(loss, [x, w, b]), (x, w, b)))


def test_gradient_routing_survives_id_reuse():
    # Each step's product is dropped once the next step has used it, so
    # CPython can hand its id to a later step's fresh leaf (as it would to a
    # dropout mask). A tape keyed by id() would then add that leaf's gradient
    # to the dropped product's.
    x = t64(np.arange(1.0, 5.0))
    steps = 40
    dropped, reused = set(), 0
    with GradTape() as tape:
        h = x
        for _ in range(steps):
            leaf = t64(np.full(4, 1.01))
            reused += id(leaf) in dropped
            prev = id(h)
            h = nm.mul(h, leaf)
            dropped.add(prev)
        loss = mean_all(h)
    assert reused > 0
    (gx,) = tape.gradients(loss, [x])
    # d/dx mean(x * 1.01**steps) = 1.01**steps / 4
    np.testing.assert_allclose(gx, np.full(4, 1.01**steps / 4), rtol=1e-12)


class _ClosureRecorder(GradTape):
    def __init__(self):
        super().__init__()
        self.backwards = []

    def record(self, out, inputs, backward):
        self.backwards.append(backward)
        super().record(out, inputs, backward)


def _captured(fn, kind):
    """Instances of `kind` held by `fn`'s closure cells, following nested functions."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, kind):
            found.append(value)
        elif isinstance(value, types.FunctionType):
            found += _captured(value, kind)
    return found


@pytest.mark.parametrize("name", sorted(OP_CASES) + ["smooth_l1"])
def test_no_backward_closure_captures_a_tensor(name):
    # a captured Tensor pins its activation for as long as the tape lives
    from mmstt.train import smooth_l1

    rng = np.random.default_rng(9)
    if name == "smooth_l1":
        params = [_rand(rng, (3, 4)), _rand(rng, (3, 4))]
        apply_op = lambda ps: smooth_l1(ps[0], ps[1])
    else:
        _, shape_sets, apply_op = OP_CASES[name]
        params = [_rand(rng, s) for s in shape_sets[0]]
    with _ClosureRecorder() as tape:
        apply_op(params)
    assert tape.backwards
    for backward in tape.backwards:
        assert _captured(backward, Tensor) == [], f"{name}: {backward.__qualname__}"


def test_attention_backward_keeps_only_q_k_v_the_output_and_row_stats():
    # the scaled query and the backward's (B, h, N, dh + 1) operands are
    # rebuilt per call: one captured would stay pinned, per layer, for as
    # long as the tape lives. q, k, v and the output are kept as per-head
    # views, so they are told apart by the memory they share.
    rng = np.random.default_rng(4)
    q, k, v = (_rand(rng, (2, 5, 12)) for _ in range(3))
    with _ClosureRecorder() as tape:
        out = nm.attention(q, k, v, 3)
    (backward,) = tape.backwards
    kept = _captured(backward, np.ndarray)
    others = [a.shape for a in kept
              if not any(np.shares_memory(a, t.data) for t in (q, k, v, out))]
    assert others == [(2, 3, 5, 1)] * 2   # the row max m and row sum l


# ---------------------------------------------------------------------------
# tensor file format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_file_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(4)
    t = Tensor(rng.normal(size=(3, 1, 5)), dtype=dtype)
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, t)
    back = nm.load_tensor(path)
    assert back.dtype == np.dtype(dtype)
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_empty_tensor_file_round_trip(tmp_path):
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor(np.zeros((0, 3)), dtype=np.float32))
    back = nm.load_tensor(path)
    assert back.dtype == np.float32
    assert back.shape == (0, 3)


def test_loaded_tensor_is_read_only(tmp_path):
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64))
    data = nm.load_tensor(path).data
    assert not data.flags.writeable
    with pytest.raises(ValueError):
        data.setflags(write=True)
    with pytest.raises(ValueError, match="read-only"):
        data[0, 0] = 1.0


def test_interrupted_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64))
    old = path.read_bytes()

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("mmstt.numerics.tensorfile.os.replace", crash)
    with pytest.raises(OSError, match="disk full"):
        nm.save_tensor(path, Tensor(np.ones((4, 4)), dtype=np.float32))
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert np.array_equal(nm.load_tensor(path).data, np.arange(6.0).reshape(2, 3))
    assert [p.name for p in tmp_path.iterdir()] == ["t.mmst"]


def test_save_tensor_and_json_leaves_no_json_after_either_failed_write(tmp_path, monkeypatch):
    tensor, meta = tmp_path / "t.mmst", tmp_path / "t.mmst.json"
    old, new = np.arange(6.0).reshape(2, 3), -np.ones((4, 4))

    def full_disk(*args):
        raise OSError(28, "No space left on device")

    # a failed tensor write: the old tensor stays, and its JSON is already gone
    nm.save_tensor_and_json(tensor, Tensor(old, dtype=np.float64), meta, {"v": 1})
    assert nm.load_json(meta, "meta") == {"v": 1}
    monkeypatch.setattr("mmstt.numerics.tensorfile.save_tensor", full_disk)
    with pytest.raises(OSError):
        nm.save_tensor_and_json(tensor, Tensor(new, dtype=np.float64), meta, {"v": 2})
    monkeypatch.undo()
    assert np.array_equal(nm.load_tensor(tensor).data, old)
    assert not meta.exists()

    # a failed JSON write: the new tensor is in place, with no JSON beside it
    nm.save_tensor_and_json(tensor, Tensor(old, dtype=np.float64), meta, {"v": 1})
    monkeypatch.setattr("mmstt.numerics.tensorfile.save_json", full_disk)
    with pytest.raises(OSError):
        nm.save_tensor_and_json(tensor, Tensor(new, dtype=np.float64), meta, {"v": 2})
    assert np.array_equal(nm.load_tensor(tensor).data, new)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.mmst"]


def test_save_over_a_loaded_tensor_keeps_the_loaded_values(tmp_path):
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64))
    old = nm.load_tensor(path).data
    nm.save_tensor(path, Tensor(-np.arange(6.0).reshape(2, 3), dtype=np.float64))
    assert np.array_equal(old, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(nm.load_tensor(path).data, -np.arange(6.0).reshape(2, 3))


def test_tensor_file_header(tmp_path):
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor(np.zeros((2, 2)), dtype=np.float32))
    raw = path.read_bytes()
    assert raw[:4] == b"MMST"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # f32
    assert raw[6] == 2  # rank

    bad = b"XXXX" + raw[4:]
    (tmp_path / "bad.mmst").write_bytes(bad)
    with pytest.raises(nm.TensorFileError, match="magic"):
        nm.load_tensor(tmp_path / "bad.mmst")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_file_bytes_match_header_and_payload(tmp_path, dtype):
    rng = np.random.default_rng(5)
    view = rng.normal(size=(3, 4, 5)).astype(dtype)[:, ::2].T  # not C-contiguous
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor._wrap(view))
    code = {np.float32: 0, np.float64: 1}[dtype]
    header = b"MMST" + struct.pack("<BBB3I", 1, code, 3, *view.shape)
    payload = view.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
    assert path.read_bytes() == header + payload


@pytest.mark.parametrize("change", ["short", "long"])
def test_tensor_file_payload_off_by_one_byte_is_refused(tmp_path, change):
    path = tmp_path / "t.mmst"
    nm.save_tensor(path, Tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64))
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] if change == "short" else raw + b"\0")
    with pytest.raises(nm.TensorFileError, match="payload size"):
        nm.load_tensor(path)


def test_save_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "a.json"
    nm.save_json(path, {"b": [1.5, math.nan, (math.inf, 2)], "a": {"x": -math.inf, "y": None}})
    expected = {"a": {"x": None, "y": None}, "b": [1.5, None, [None, 2]]}
    assert path.read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_save_csv_writes_each_float_as_its_repr(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16, -1.7976931348623157e308]
    floats += np.random.default_rng(3).normal(scale=1e3, size=200).tolist()
    path = tmp_path / "t.csv"
    nm.save_csv(path, ["i", "x"], ([i, x] for i, x in enumerate(floats)))
    lines = path.read_bytes().decode("utf-8").split("\r\n")
    assert lines[0] == "i,x" and lines[-1] == ""
    assert lines[1:-1] == [f"{i},{x!r}" for i, x in enumerate(floats)]
