import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill.autodiff as ad


def finite_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def grad_of(build, x):
    leaf = ad.Tensor(x, requires_grad=True)
    out = ad.mean(build(leaf))
    out.backward()
    return leaf.grad


OPS = {
    "silu": ad.silu,
    "sigmoid": ad.sigmoid,
    "square": ad.square,
    "neg": ad.neg,
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_unary_op_gradients(name):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5))
    op = OPS[name]
    g = grad_of(op, x)
    ref = finite_diff(lambda v: float(np.mean(op(ad.Tensor(v)).data)), x)
    assert np.allclose(g, ref, rtol=1e-6, atol=1e-9)


def test_log_gradient():
    rng = np.random.default_rng(4)
    x = rng.random((3, 4)) + 0.5
    g = grad_of(ad.log, x)
    ref = finite_diff(lambda v: float(np.mean(np.log(v))), x)
    assert np.allclose(g, ref, rtol=1e-6)


def test_matmul_gradients_both_sides():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    ga = grad_of(lambda t: ad.matmul(t, b), a)
    gb = grad_of(lambda t: ad.matmul(ad.Tensor(a), t), b)
    ref_a = finite_diff(lambda v: float(np.mean(v @ b)), a)
    ref_b = finite_diff(lambda v: float(np.mean(a @ v)), b)
    assert np.allclose(ga, ref_a, rtol=1e-6)
    assert np.allclose(gb, ref_b, rtol=1e-6)


def test_resblock_matches_composed_ops():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((6, 4))
    w1, b1 = rng.standard_normal((4, 4)), rng.standard_normal(4)
    w2, b2 = rng.standard_normal((4, 4)), rng.standard_normal(4)
    fused = ad.resblock(h, w1, b1, w2, b2)
    composed = ad.add(
        ad.Tensor(h),
        ad.add(ad.matmul(ad.silu(ad.add(ad.matmul(ad.Tensor(h), w1), b1)), w2), b2),
    )
    assert np.allclose(fused.data, composed.data, rtol=0, atol=0)


def test_resblock_gradients_all_inputs():
    rng = np.random.default_rng(8)
    arrays = {
        "h": rng.standard_normal((5, 3)),
        "w1": rng.standard_normal((3, 3)),
        "b1": rng.standard_normal(3),
        "w2": rng.standard_normal((3, 3)),
        "b2": rng.standard_normal(3),
    }

    def value(**kw):
        return float(np.mean(ad.resblock(*(kw[k] for k in ("h", "w1", "b1", "w2", "b2"))).data))

    for name in arrays:
        leaves = {k: ad.Tensor(v, requires_grad=(k == name)) for k, v in arrays.items()}
        out = ad.mean(ad.resblock(*(leaves[k] for k in ("h", "w1", "b1", "w2", "b2"))))
        out.backward()

        def vary(v):
            subst = dict(arrays)
            subst[name] = v
            return value(**subst)

        ref = finite_diff(vary, arrays[name])
        assert np.allclose(leaves[name].grad, ref, rtol=1e-5, atol=1e-8), name


def test_clip_gradient_masks_outside():
    x = np.array([-2.0, -0.5, 0.3, 0.9, 5.0])
    leaf = ad.Tensor(x, requires_grad=True)
    out = ad.mean(ad.clip(leaf, -1.0, 1.0))
    out.backward()
    assert np.array_equal(leaf.grad, np.array([0.0, 1.0, 1.0, 1.0, 0.0]) / 5)


def test_concat_splits_gradient():
    a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    b = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    out = ad.mean(ad.concat([a, b], axis=1))
    out.backward()
    assert a.grad.shape == (2, 2) and b.grad.shape == (2, 3)
    assert np.allclose(a.grad, 0.1) and np.allclose(b.grad, 0.1)


def test_broadcast_add_accumulates_bias_gradient():
    # 8 rows of 1/32 each sum to 1/4 exactly
    x = ad.Tensor(np.zeros((8, 4)))
    b = ad.Tensor(np.zeros(4), requires_grad=True)
    out = ad.mean(ad.add(x, b))
    out.backward()
    assert np.array_equal(b.grad, np.full(4, 0.25))


def test_diamond_graph_accumulates():
    # y = x*x + x*x reuses the same node twice
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    sq = ad.mul(x, x)
    out = ad.mean(ad.add(sq, sq))
    out.backward()
    assert np.allclose(x.grad, [12.0])


def test_backward_requires_scalar():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(x, x).backward()


def test_constant_graph_builds_no_tape():
    a = ad.Tensor(np.ones((2, 2)))
    out = ad.silu(ad.matmul(a, a))
    assert out._vjp is None and out._parents == ()
    assert not out.requires_grad


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_mean_and_sum_gradients_any_shape(rows, cols, seed):
    x = np.random.default_rng(seed).standard_normal((rows, cols))
    leaf = ad.Tensor(x, requires_grad=True)
    ad.mean(leaf).backward()
    assert np.allclose(leaf.grad, 1.0 / (rows * cols))
    leaf2 = ad.Tensor(x, requires_grad=True)
    ad.mul(ad.mean(leaf2), float(rows * cols)).backward()  # the sum, as size times the mean
    assert np.allclose(leaf2.grad, 1.0)


def test_sigmoid_extreme_inputs_saturate_cleanly():
    x = np.array([-1e4, -40.0, 0.0, 40.0, 1e4])
    out = ad.sigmoid(ad.Tensor(x))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == 0.0 and out.data[-1] == 1.0 and out.data[2] == 0.5
