import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from mmstt import numerics as nm
from mmstt.numerics import GradTape, ShapeError, Tensor


def t64(arr):
    return Tensor(np.asarray(arr), dtype=np.float64)


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
        out = nm.layer_norm(t64([[1.0, 3.0]]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_output_statistics(self):
        rng = np.random.default_rng(11)
        x = t64(rng.normal(size=(6, 64)))
        out = nm.layer_norm(x, t64(np.ones(64)), t64(np.zeros(64)), eps=1e-5).data
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

    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 9)) * 2
    got = nm.gelu(t64(x)).data
    want = 0.5 * x * (1 + erf(x / np.sqrt(2)))
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def _split_heads(x, bias, h):
    # the model's head split: bias add, (B, N, D) -> (B, h, N, D/h) view
    b, n, d = x.shape
    y = nm.broadcast_add(x, bias)
    return nm.transpose(nm.reshape(y, (b, n, h, d // h)), (0, 2, 1, 3))


# (2, 2, 16, 8) is one group; (3, 4, 160, 8) is one batch per group; (2, 4, 200, 8)
# and (1, 2, 300, 8) split each batch's heads into runs of 3 + 1 and 1 + 1
@pytest.mark.parametrize("shape", [(2, 2, 16, 8), (3, 4, 160, 8), (2, 4, 200, 8), (1, 2, 300, 8)])
def test_attention_is_byte_equal_to_the_composed_chain(shape):
    b, h, n, dh = shape
    scale = 1.0 / np.sqrt(dh)   # inexact in float32 for dh = 8
    rng = np.random.default_rng(n)

    def leaf(*s):
        return Tensor(rng.normal(size=s), dtype=np.float32)

    xs = [leaf(b, n, h * dh) for _ in range(3)]
    biases = [leaf(h * dh) for _ in range(3)]
    weight = leaf(b, h, n, dh)
    runs = []
    for fused in (False, True):
        sink = []
        with GradTape() as tape:
            q, k, v = (_split_heads(x, bias, h) for x, bias in zip(xs, biases))
            if fused:
                out = nm.attention(q, k, v, scale, sink=sink)
            else:
                p = nm.softmax_last_axis(nm.scale(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), scale))
                sink.append(p.data)
                out = nm.matmul(p, v)
            loss = nm.mean_all(nm.mul(out, weight))
        grads = tape.gradients(loss, xs + biases)
        runs.append([out.data, *sink] + grads)
    for old, new in zip(*runs):
        assert old.dtype == new.dtype == np.float32
        assert old.shape == new.shape
        assert old.tobytes() == new.tobytes()


def test_attention_without_sink_matches_and_rejects_bad_shapes():
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.normal(size=(1, 2, 5, 4)), dtype=np.float32) for _ in range(3))
    sink = []
    assert np.array_equal(nm.attention(q, k, v, 0.5).data, nm.attention(q, k, v, 0.5, sink=sink).data)
    assert sink[0].shape == (1, 2, 5, 5)
    with pytest.raises(ShapeError, match="attention"):
        nm.attention(q, k, Tensor(np.zeros((1, 2, 5, 3)), dtype=np.float32), 0.5)
    with pytest.raises(ShapeError, match="dtype"):
        nm.attention(q, k, Tensor(np.zeros((1, 2, 5, 4))), 0.5)


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
    assert nm.mean_all(x).item() == 2.5


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
    return lambda y: nm.mean_all(nm.mul(y, w))


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
        lambda ps: nm.layer_norm(ps[0], ps[1], ps[2], eps=1e-5),
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
    "mean_all": (1, [((5,),), ((3, 4),), ((2, 3, 2),)], lambda ps: nm.mean_all(ps[0])),
    "scale": (1, [((4,),), ((2, 3),), ((2, 2, 2),)], lambda ps: nm.scale(ps[0], 1.7)),
    # (2, 2, 200, 4) in float64 is four groups of one slot
    "attention": (
        3,
        [((1, 1, 3, 4),) * 3, ((2, 3, 5, 2),) * 3, ((2, 2, 200, 4),) * 3],
        lambda ps: nm.attention(ps[0], ps[1], ps[2], 0.7),
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
    report = nm.grad_check(lambda ps: nm.mean_all(nm.mul(ps[0], ps[0])), [w], eps=1e-5, tol=1e-7)
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
        lambda ps: nm.mean_all(nm.mul(bad_identity(ps[0]), ps[0])), [w], eps=1e-5, tol=1e-4
    )
    assert not report.passed


def test_grad_check_rejects_float32():
    w = Tensor(np.zeros(3), dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        nm.grad_check(lambda ps: nm.mean_all(ps[0]), [w])


def test_grad_check_errors_on_nonfinite_loss():
    w = t64([1.0])

    def f(ps):
        return nm.mean_all(nm.scale(ps[0], float("inf")))

    with pytest.raises(FloatingPointError):
        nm.grad_check(f, [w])


def test_traced_bench_ops_resolve_in_numerics():
    # perfbench/spans.py wraps each of these by name; a missing one breaks `--trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from mmstt.numerics import tensor

    assert [op for op in spans.NUMERIC_OPS if not callable(getattr(tensor, op, None))] == []


def test_unused_param_gets_zero_gradient_of_same_shape():
    a, b = t64(np.ones((2, 3))), t64(np.ones((4,)))
    with GradTape() as tape:
        loss = nm.mean_all(a)
    ga, gb = tape.gradients(loss, [a, b])
    assert ga.shape == (2, 3)
    assert gb.shape == (4,)
    assert np.all(gb == 0)


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
