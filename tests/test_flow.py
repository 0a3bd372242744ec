import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
from flowdistill import flow
from flowdistill.analysis import KDConfig, ModelScore
from flowdistill.errors import ConfigError, NumericsError
from flowdistill.flow import _fm_regression, fm_loss_node
from flowdistill.nn import optimizer_step, velocity_mse

from helpers import constant_model, rand_model
from oracles import euler_reference, max_grad_rel_error

finite = st.floats(-1e6, 1e6, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)


class TestInterpolate:
    def test_left_endpoint(self):
        assert fd.interpolate(np.array([-3.0]), np.array([0.5]), 0.0) == -3.0

    def test_right_endpoint(self):
        assert fd.interpolate(np.array([-3.0]), np.array([0.5]), 1.0) == 0.5

    def test_midpoint(self):
        assert fd.interpolate(np.array([3.0]), np.array([-1.0]), 0.5) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(finite, finite, unit)
    def test_endpoint_identities_exact(self, x0, x1, t):
        a, b = np.array([x0]), np.array([x1])
        assert fd.interpolate(a, b, 0.0)[0] == x0
        assert fd.interpolate(a, b, 1.0)[0] == x1
        mid = fd.interpolate(a, b, t)[0]
        assert min(x0, x1) - 1e-6 <= mid <= max(x0, x1) + 1e-6 or np.isclose(
            mid, (1 - t) * x0 + t * x1
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fd.interpolate(np.array([1.0, 2.0]), np.array([1.0]), 0.5)

    def test_time_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fd.interpolate(np.array([1.0]), np.array([1.0]), 1.2)


class TestTimeGrid:
    def test_uniform_grid_endpoints_exact(self):
        grid = fd.TimeGrid.uniform(50)
        assert grid.times[0] == 0.0 and grid.times[-1] == 1.0 and grid.n == 50

    def test_bad_step_count_rejected(self):
        for n in (0, 2.5):
            with pytest.raises(ConfigError, match="step count must be a positive integer"):
                fd.TimeGrid.uniform(n)

    def test_grids_compare_by_step_count(self):
        assert fd.TimeGrid.uniform(5) == fd.TimeGrid.uniform(5) != fd.TimeGrid.uniform(4)
        assert hash(fd.TimeGrid.uniform(5)) == hash(fd.TimeGrid.uniform(5))
        # value types holding arrays compare by identity, without raising
        data = fd.ToyDataset(np.array([-3.0, 3.0]))
        score = ModelScore(np.zeros((2, 1)), 0.0, 1)
        for value, twin in ((data, fd.ToyDataset(data.support)),
                            (score, ModelScore(score.samples, 0.0, 1))):
            assert value == value and value != twin
            assert isinstance(hash(value), int)


def fm_mse(model, batch):
    """Flow-matching loss of `model` on an (x0, x1, t) batch."""
    return velocity_mse(model.params, *_fm_regression(*batch), model.R)[0]


class TestFmLoss:
    def test_perfect_prediction_gives_zero(self):
        # output layer forced so the model returns exactly x1 - x0 == 0
        model = fd.build_velocity_model(1, 8, 1, seed=0)
        batch = (np.array([[2.0]]), np.array([[2.0]]), np.array([0.3]))
        assert fm_mse(model, batch) == 0.0

    def test_zero_model_single_element(self):
        model = fd.build_velocity_model(1, 8, 1, seed=0)
        for t in (0.0, 0.4, 1.0):
            batch = (np.array([[3.0]]), np.array([[1.0]]), np.array([t]))
            assert fm_mse(model, batch) == pytest.approx(4.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the mean of no rows
    def test_empty_batch_rejected(self):
        model = fd.build_velocity_model(1, 8, 1, seed=0)
        with pytest.raises(NumericsError):
            fm_mse(model, (np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0)))

    def test_non_negative_and_zero_iff_match(self):
        model = rand_model(seed=21)
        rng = np.random.default_rng(0)
        batch = (rng.standard_normal((16, 1)), rng.standard_normal((16, 1)), rng.random(16))
        assert fm_mse(model, batch) > 0.0

    def test_gradient_vs_finite_differences(self):
        model = rand_model(seed=22)
        rng = np.random.default_rng(1)
        batch = (3 * rng.standard_normal((8, 1)), rng.standard_normal((8, 1)), rng.random(8))
        _, grads = fd.value_and_grad(
            lambda ps: fm_loss_node(ps, batch, model.R), model.params
        )
        coords = rng.integers(0, model.params.size, 32)
        assert max_grad_rel_error(
            lambda ps: fm_mse(model.with_params(ps), batch),
            model.params, grads, coords,
        ) < 1e-4


def euler_step(model, X, grid, j):
    """One explicit Euler step of a (B, d) batch from grid step j to j - 1."""
    return fd.integrate(model, X, grid, j, j - 1)[-1]


class TestEulerStep:
    def test_constant_field(self):
        model = constant_model(2.0)
        out = euler_step(model, np.array([[0.0]]), fd.TimeGrid(2), 2)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("j_from,j_to", [(3, 4), (8, 0), (2, -1)])
    def test_steps_off_the_grid_rejected(self, j_from, j_to):
        with pytest.raises(ValueError, match="0 <= j_to <= j_from <= 7"):
            fd.integrate(rand_model(seed=23), np.array([[0.7]]), fd.TimeGrid(7), j_from, j_to)

    def test_single_datum_field_lands_exactly(self):
        # v(x, t) = (x - a) / t carries any x to a in one step t -> 0
        a = 1.25
        for x, t in [(4.0, 0.8), (-2.0, 0.31), (a, 0.999)]:
            v = (x - a) / t
            assert x + (0.0 - t) * v == pytest.approx(a, abs=1e-12)

    def test_step_matches_eval_velocity(self):
        model = rand_model(seed=24)
        X, grid = np.array([[4.0]]), fd.TimeGrid(5)
        v = fd.eval_velocity(model, X, grid.times[4])
        dt = grid.times[3] - grid.times[4]
        assert np.array_equal(euler_step(model, X, grid, 4), X + dt * v)


class TestDenoise:
    def test_single_step_grid_equals_euler_step(self, quick_teacher):
        Z = np.array([[0.45]])
        states = fd.denoise_batch(quick_teacher, Z, fd.TimeGrid.uniform(1))
        direct = euler_step(quick_teacher, Z, fd.TimeGrid(1), 1)
        assert np.array_equal(states[0], direct)

    def test_constant_field_telescopes(self):
        model = constant_model(1.5)
        Z = np.array([[2.0]])
        for n in (1, 4, 10):
            states = fd.denoise_batch(model, Z, fd.TimeGrid.uniform(n))
            assert states[0, 0, 0] == pytest.approx(2.0 - 1.5, abs=1e-12)

    def test_stores_every_state_and_counts_evals(self, quick_teacher):
        grid = fd.TimeGrid.uniform(10)
        before = quick_teacher.eval_count
        states = fd.denoise_batch(quick_teacher, np.array([[-0.3]]), grid)
        assert quick_teacher.eval_count - before == 10
        assert states.shape == (11, 1, 1)

    def test_euler_recurrence_exact_on_trajectory(self, quick_teacher):
        grid = fd.TimeGrid.uniform(10)
        states = fd.denoise_batch(quick_teacher, np.array([[1.2]]), grid)
        for j in range(10, 0, -1):
            v = fd.eval_velocity(quick_teacher, states[j], grid.times[j])
            dt = grid.times[j - 1] - grid.times[j]
            assert np.allclose(states[j - 1] - states[j], dt * v, rtol=0, atol=1e-12)

    def test_batch_matches_recurrence_tolerance(self, quick_teacher):
        grid = fd.TimeGrid.uniform(10)
        Z = np.random.default_rng(3).standard_normal((5, 1))
        states = fd.denoise_batch(quick_teacher, Z, grid)
        errors = fd.recurrence_errors(quick_teacher, states.swapaxes(0, 1))
        assert errors.shape == (5,) and np.all(errors <= 1e-9)


GRID = fd.TimeGrid.uniform(7)
KEY_GRID = fd.TimeGrid.uniform(5)
Z = np.random.default_rng(7).standard_normal((5, 2))
# every public entry point to the Euler integrator, at a full batch and,
# for a single draw, at a one-row batch: (call, reference, steps)
INTEGRATOR_CALLS = {
    "denoise": (lambda m: fd.denoise_batch(m, Z[:1], GRID)[:, 0],
                lambda m: euler_reference(m, Z[:1], GRID.times[::-1])[::-1, 0], 7),
    "denoise_batch": (lambda m: fd.denoise_batch(m, Z, GRID),
                      lambda m: euler_reference(m, Z, GRID.times[::-1])[::-1], 7),
    # `flowdistill sample`: seeded noise through uniform Euler steps
    "sample_model": (lambda m: fd.denoise_batch(
                         m, np.random.default_rng(7).standard_normal((5, 2)),
                         fd.TimeGrid.uniform(4))[0],
                     lambda m: euler_reference(m, Z, GRID.uniform(4).times[::-1])[-1], 4),
    # few-step student sampling: the Euler walk over the key grid
    "sample_student": (lambda m: fd.denoise_batch(m, Z[:1], KEY_GRID)[0, 0],
                       lambda m: euler_reference(m, Z[:1], KEY_GRID.times[::-1])[-1, 0], 5),
    "sample_student_batch": (lambda m: fd.denoise_batch(m, Z, KEY_GRID)[0],
                             lambda m: euler_reference(m, Z, KEY_GRID.times[::-1])[-1], 5),
    "euler_step": (lambda m: fd.integrate(m, Z[:1], GRID, 4, 3)[-1],
                   lambda m: euler_reference(m, Z[:1], GRID.times[4:2:-1])[-1], 1),
    "partial_window": (lambda m: fd.integrate(m, Z, GRID, 5, 2),
                       lambda m: euler_reference(m, Z, GRID.times[5:1:-1]), 3),
}


@pytest.mark.parametrize("call", list(INTEGRATOR_CALLS))
def test_integrator_matches_reference_loop(call):
    run, reference, steps = INTEGRATOR_CALLS[call]
    model = rand_model(d=2, seed=25)
    before = model.eval_count
    got = run(model)
    assert model.eval_count - before == steps
    assert np.array_equal(got, reference(model))


class TestTrainTeacher:
    @pytest.mark.parametrize("stage", ["teacher training", "KD training"])
    def test_adam_failure_names_stage_and_iteration(self, monkeypatch, two_point_data,
                                                    quick_teacher, stage):
        calls = []

        def third_step_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NumericsError("Adam step produced a non-finite second moment")
            return optimizer_step(*args)

        monkeypatch.setattr(flow, "optimizer_step", third_step_fails)
        with pytest.raises(NumericsError, match=f"^{stage} diverged at iteration 2: Adam"):
            if stage == "teacher training":
                fd.train_teacher(two_point_data, 5, 8, 1e-3, seed=0, H=8, R=1)
            else:
                fd.kd_baseline_distill(quick_teacher, two_point_data,
                                       KDConfig(windows=2, iterations=5, pool_size=32),
                                       grid=fd.TimeGrid(10))

    def test_zero_iterations_rejected(self, two_point_data):
        with pytest.raises(ConfigError):
            fd.train_teacher(two_point_data, iterations=0, batch_size=8, lr=1e-3, seed=0)

    @pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan")])
    def test_nonpositive_learning_rate_rejected(self, two_point_data, lr):
        with pytest.raises(ConfigError, match="learning rate"):
            fd.train_teacher(two_point_data, iterations=1, batch_size=8, lr=lr, seed=0)

    def test_equal_seeds_identical_params(self, two_point_data):
        a, la = fd.train_teacher(two_point_data, 20, 16, 1e-3, seed=9, H=8, R=1)
        b, lb = fd.train_teacher(two_point_data, 20, 16, 1e-3, seed=9, H=8, R=1)
        assert a.params.equal(b.params)
        assert np.array_equal(la, lb)

    def test_different_seeds_differ(self, two_point_data):
        a, _ = fd.train_teacher(two_point_data, 20, 16, 1e-3, seed=9, H=8, R=1)
        b, _ = fd.train_teacher(two_point_data, 20, 16, 1e-3, seed=10, H=8, R=1)
        assert not a.params.equal(b.params)

    def test_loss_history_length_matches_iterations(self, two_point_data):
        _, losses = fd.train_teacher(two_point_data, 25, 16, 1e-3, seed=0, H=8, R=1)
        assert losses.shape == (25,)
        assert np.all(np.isfinite(losses))

    def test_training_reduces_loss(self, two_point_data):
        _, losses = fd.train_teacher(two_point_data, 300, 128, 1e-3, seed=1, H=16, R=2)
        assert losses[-50:].mean() < losses[:50].mean()

    def test_single_point_dataset_one_step_landing(self):
        # with a one-point dataset the conditional velocity at t=1 is
        # x - a, so a single Euler step from any noise draw lands on a
        data = fd.ToyDataset(np.array([2.0]))
        teacher, _ = fd.train_teacher(data, 1200, 256, 1e-3, seed=4, H=16, R=2)
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((256, 1))
        landed = Z + (0.0 - 1.0) * fd.eval_velocity(teacher, Z, 1.0)
        assert np.mean(np.abs(landed - 2.0)) < 0.25
