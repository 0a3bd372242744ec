"""The explicit layer VJPs the training loops use, against the autodiff
tape they replaced: identical arithmetic in the same order, so every
loss, gradient and activation must be equal bit for bit."""

import numpy as np
import pytest

import flowdistill as fd
import flowdistill.autodiff as ad
from flowdistill.distill import _traj_regression, traj_loss_node
from flowdistill.errors import NumericsError
from flowdistill.flow import _fm_regression, fm_loss_node
from flowdistill.nn import check_grads, forward_velocity, mlp_forward, velocity_mse

from helpers import adv_step, rand_head, rand_model
from oracles import adv_step_tape

H, R = 32, 3


def _assert_same(explicit, tape):
    (loss_e, grads_e), (loss_t, grads_t) = explicit, tape
    assert loss_e == loss_t
    assert grads_e.names == grads_t.names
    assert np.array_equal(grads_e.flat, grads_t.flat)


@pytest.mark.parametrize("B", [1, 128, 2048])
def test_forward_matches_tape(B):
    model = rand_model(d=2, H=H, R=R, seed=1)
    rng = np.random.default_rng(B)
    X, t = rng.standard_normal((B, 2)), rng.random(B)
    tape_out, hidden = forward_velocity(model.params, X, t, R, want_hidden=True)
    assert np.array_equal(mlp_forward(model.params, X, t, R), tape_out.data)
    for block in range(R + 1):
        assert np.array_equal(mlp_forward(model.params, X, t, R, stop=block),
                              hidden[block].data)


def test_fm_loss_gradient_at_b2048_with_per_row_t():
    model = rand_model(H=H, R=R, seed=2)
    rng = np.random.default_rng(0)
    batch = (3 * rng.standard_normal((2048, 1)), rng.standard_normal((2048, 1)),
             rng.random(2048))
    _assert_same(velocity_mse(model.params, *_fm_regression(*batch), R),
                 fd.value_and_grad(lambda ps: fm_loss_node(ps, batch, R), model.params))


@pytest.mark.parametrize("k", range(5))
def test_traj_loss_gradient_at_b128(k):
    model = rand_model(H=H, R=R, seed=3)
    key_grid = fd.TimeGrid.uniform(5)
    keys = 2 * np.random.default_rng(k).standard_normal((128, 6, 1))
    _assert_same(
        velocity_mse(model.params, *_traj_regression(keys, key_grid, k), R),
        fd.value_and_grad(lambda ps: traj_loss_node(ps, keys, key_grid, k, R),
                          model.params))


@pytest.mark.parametrize("B", [256, 100])
def test_kd_loss_gradient(B):
    model = rand_model(H=H, R=R, seed=4)
    rng = np.random.default_rng(1)
    bx, bt, bv = rng.standard_normal((B, 1)), rng.random(B), rng.standard_normal((B, 1))

    def tape_loss(ps):
        return ad.mean(ad.square(ad.sub(forward_velocity(ps, bx, bt, R), bv)))

    _assert_same(velocity_mse(model.params, bx, bt, bv, R),
                 fd.value_and_grad(tape_loss, model.params))


@pytest.mark.parametrize("heads", ["per_timestep", "single"])
@pytest.mark.parametrize("batch", [1, 5, 32])
@pytest.mark.parametrize("taps", ["default"])  # the one feature tap
@pytest.mark.parametrize("loss", ["non_saturating"])  # the one generator loss
def test_adversarial_step_matches_tape(loss, taps, batch, heads):
    # k = 0 lands on t = 0 and so reads the clean tap
    teacher = rand_model(H=H, R=R, seed=6)
    student = rand_model(H=H, R=R, seed=7).params
    key_grid = fd.TimeGrid.uniform(5)
    rng = np.random.default_rng(batch)
    for k in range(key_grid.n):
        head = rand_head(H, seed=10 + k)
        l_prev = rng.standard_normal((batch, 1))
        real_keys = rng.standard_normal((batch, 6, 1))
        explicit = adv_step(teacher, student, head, l_prev, real_keys, k, key_grid,
                            scale=0.1, heads=heads)
        tape = adv_step_tape(teacher, student, head, l_prev, real_keys[:, k, :],
                             key_grid.times[k + 1], key_grid.times[k], 0.1)
        assert explicit[:2] == tape[:2], k
        for got, want in zip(explicit[2:], tape[2:]):
            assert np.array_equal(getattr(got, "flat", got), getattr(want, "flat", want)), k


def test_non_finite_loss_and_gradient_are_named():
    model = rand_model(seed=10)
    with pytest.raises(NumericsError, match="loss is non-finite"):
        velocity_mse(model.params, np.zeros((2, 1)), 0.5, np.full((2, 1), np.nan), model.R)
    grads = model.params.copy()
    grads.tensors[4][0, 0] = np.inf
    with pytest.raises(NumericsError,
                       match=f"non-finite gradient in tensor '{grads.names[4]}'"):
        check_grads(grads)
