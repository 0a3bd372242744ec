import importlib

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.distill import _adv_gradients, _traj_regression, init_state
from flowdistill.errors import ConfigError, NumericsError
from flowdistill.nn import init_optimizer, optimizer_step, value_and_grad, velocity_mse, \
    velocity_mse_node
from flowdistill.seeds import derive_seed

from helpers import constant_model, rand_model
from oracles import max_grad_rel_error


def traj_mse(model, keys, key_grid, k):
    """Trajectory-regression loss of `model` on (B, m+1, d) keys."""
    return velocity_mse(model.params, *_traj_regression(keys, key_grid, k))[0]


class TestTrajLoss:
    def test_zero_when_student_matches_target(self, quick_store):
        key_grid = fd.TimeGrid.uniform(5)
        keys = fd.key_points(quick_store, key_grid)[:1]
        for k in range(key_grid.n):
            target = (keys[0, k] - keys[0, k + 1]) / (
                key_grid.times[k] - key_grid.times[k + 1])
            rigged = constant_model(float(target[0]))
            assert traj_mse(rigged, keys, key_grid, k) == pytest.approx(0.0, abs=1e-24)

    def test_direct_value_with_zero_student(self):
        # keys for the interval [0, 0.2]: latent 0.5 at t=0.2, 3 at t=0
        key_grid = fd.TimeGrid.uniform(5)
        keys = np.zeros((1, 6, 1))
        keys[0, 1, 0] = 0.5  # t' = 0.2
        keys[0, 0, 0] = 3.0  # t' = 0
        student = fd.build_velocity_model(1, 8, 1, seed=0)  # zero output
        assert traj_mse(student, keys, key_grid, 0) == pytest.approx(156.25)

    def test_k_out_of_range_rejected(self, quick_teacher):
        key_grid = fd.TimeGrid.uniform(5)
        keys = np.zeros((1, 6, 1))
        with pytest.raises(ValueError):
            traj_mse(quick_teacher, keys, key_grid, 5)
        with pytest.raises(ValueError):
            traj_mse(quick_teacher, keys, key_grid, -1)

    def test_gradient_vs_finite_differences(self):
        model = rand_model(seed=31)
        key_grid = fd.TimeGrid.uniform(5)
        rng = np.random.default_rng(2)
        keys = rng.standard_normal((1, 6, 1)) * 2
        k = 2
        inputs = _traj_regression(keys, key_grid, k)
        _, grads = fd.value_and_grad(lambda ps: velocity_mse_node(ps, *inputs),
                                     model.params)
        coords = rng.integers(0, model.params.size, 32)
        assert max_grad_rel_error(
            lambda ps: traj_mse(model.with_params(ps), keys, key_grid, k),
            model.params, grads, coords,
        ) < 1e-4

    def test_batched_equals_mean_of_singles(self):
        # the batched loss equals the mean of the one-row losses
        model = rand_model(seed=32)
        key_grid = fd.TimeGrid.uniform(5)
        rng = np.random.default_rng(3)
        keys_b = rng.standard_normal((7, 6, 1))
        batched = float(velocity_mse_node(model.params,
                                          *_traj_regression(keys_b, key_grid, 1)).data)
        singles = [traj_mse(model, keys_b[i:i + 1], key_grid, 1) for i in range(7)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)

    def test_unbatched_keys_rejected(self):
        key_grid = fd.TimeGrid.uniform(5)
        with pytest.raises(ValueError, match="keys must be"):
            _traj_regression(np.zeros((6, 1)), key_grid, 0)


class TestDistill:
    def test_lambda_zero_equals_pure_regression(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, lambda_adv=0.0, iterations=4,
                               batch_size=8, seed=21)
        result = fd.distill(quick_teacher, quick_store, cfg)

        # hand-rolled loop: trajectory regression only, same rng stream
        key_grid = fd.TimeGrid.uniform(cfg.m)
        keys_all = fd.key_points(quick_store, key_grid)
        params = quick_teacher.params.copy()
        opt = init_optimizer(params)
        rng = np.random.default_rng(derive_seed(cfg.seed, "trajectory-batches"))
        for _ in range(cfg.iterations):
            for k in range(cfg.m - 1, -1, -1):
                idx = rng.integers(0, quick_store.N, size=cfg.batch_size)
                inputs = _traj_regression(keys_all[idx], key_grid, k)
                _, grads = value_and_grad(
                    lambda ps: velocity_mse_node(ps, *inputs), params)
                params, opt = optimizer_step(params, grads, opt, cfg.student_lr)
        assert result.student.params.equal(params)

    def test_teacher_frozen_through_distillation(self, quick_teacher, quick_store):
        before = quick_teacher.fingerprint()
        cfg = fd.DistillConfig(m=5, iterations=3, batch_size=4, seed=2)
        fd.distill(quick_teacher, quick_store, cfg)
        assert quick_teacher.fingerprint() == before

    def test_initial_traj_loss_is_teachers_own_mismatch(self, quick_teacher, quick_store):
        # student initialized from the teacher: before any update the loss
        # equals the teacher's finite-difference mismatch, strictly positive
        key_grid = fd.TimeGrid.uniform(5)
        keys = fd.key_points(quick_store, key_grid)[:1]
        for k in range(5):
            loss = traj_mse(quick_teacher, keys, key_grid, k)
            assert loss > 0.0

    def test_first_metric_row_matches_recomputed_loss(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, lambda_adv=0.0, iterations=1,
                               batch_size=8, seed=5)
        result = fd.distill(quick_teacher, quick_store, cfg)
        assert result.metrics.shape == (1, 5, 3)
        loss, d_loss, g_loss = result.metrics[0, 4]
        key_grid = fd.TimeGrid.uniform(5)
        keys_all = fd.key_points(quick_store, key_grid)
        rng = np.random.default_rng(derive_seed(cfg.seed, "trajectory-batches"))
        idx = rng.integers(0, quick_store.N, size=cfg.batch_size)
        expected = float(velocity_mse_node(quick_teacher.params,
                                           *_traj_regression(keys_all[idx], key_grid, 4)).data)
        assert loss == expected
        assert np.isnan(d_loss) and np.isnan(g_loss)

    def test_determinism_across_runs(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, iterations=3, batch_size=4, seed=7)
        a = fd.distill(quick_teacher, quick_store, cfg)
        b = fd.distill(quick_teacher, quick_store, cfg)
        assert a.student.params.equal(b.student.params)
        assert np.array_equal(a.metrics, b.metrics)
        assert a.heads.equal(b.heads)

    def test_single_head_mode_uses_one_head(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, iterations=2, batch_size=4, seed=8,
                               heads="single")
        result = fd.distill(quick_teacher, quick_store, cfg)
        assert result.heads.shapes[0][0] == 1

    def test_grid_mismatch_rejected(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=3, iterations=1, batch_size=4)  # the store has n=10
        with pytest.raises(ConfigError, match="n=10, which m=3 does not divide"):
            fd.distill(quick_teacher, quick_store, cfg)

    # round 0 steps Adam for the trajectory at k = 4 .. 0, then for the adversary
    @pytest.mark.parametrize("failing,where", [(1, "traj phase, k=4, round=0"),
                                               (6, "adv update, round=0")])
    def test_adam_failure_names_phase_and_round(self, quick_teacher, quick_store,
                                                monkeypatch, failing, where):
        calls = []

        def step(*args):
            calls.append(args)
            if len(calls) == failing:
                raise NumericsError("Adam step produced a non-finite second moment")
            return optimizer_step(*args)

        monkeypatch.setattr(importlib.import_module("flowdistill.distill"), "optimizer_step",
                            step)
        cfg = fd.DistillConfig(m=5, iterations=1, batch_size=4, seed=8)
        with pytest.raises(NumericsError, match=rf"^distillation diverged \({where}\): Adam"):
            fd.distill(quick_teacher, quick_store, cfg)

    def test_metrics_have_row_per_iteration_and_k(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, iterations=3, batch_size=4, seed=9)
        result = fd.distill(quick_teacher, quick_store, cfg)
        assert result.metrics.shape == (3, 5, 3)
        assert result.metrics.dtype == np.float64
        assert np.all(np.isfinite(result.metrics))

    def test_adversarial_round_has_finite_losses_after_warmup(self, quick_teacher,
                                                              quick_store):
        cfg = fd.DistillConfig(m=5, iterations=2, batch_size=4, seed=10)
        result = fd.distill(quick_teacher, quick_store, cfg)
        assert np.any(np.isfinite(result.metrics[..., 1]))

    def test_resume_reproduces_uninterrupted_run(self, quick_teacher, quick_store,
                                                 tmp_path):
        ckpt = tmp_path / "ckpt.json"
        cfg = fd.DistillConfig(m=5, iterations=8, batch_size=4, seed=11,
                               checkpoint_interval=3)
        full = fd.distill(quick_teacher, quick_store, cfg, checkpoint_path=ckpt)
        # the file on disk is the round-6 snapshot; resuming replays 6..8
        resumed = fd.distill(quick_teacher, quick_store, cfg, checkpoint_path=ckpt,
                             resume=True)
        assert resumed.student.params.equal(full.student.params)
        assert np.array_equal(resumed.metrics, full.metrics)
        assert resumed.heads.equal(full.heads)


class TestPassCount:
    def test_adversarial_round_makes_four_forwards_per_key(self, quick_teacher,
                                                           quick_store, monkeypatch):
        # per k: the trajectory pass, the student step of the generated
        # latents, and two teacher passes (fake, real) that stop at the tap
        import sys

        from flowdistill import nn

        calls, forward = [], nn.mlp_forward

        def counted(params, X, t, stop=None, want_cache=False):
            calls.append((params is quick_teacher.params, stop))
            return forward(params, X, t, stop, want_cache)

        for name, module in list(sys.modules.items()):
            if name.startswith("flowdistill") and getattr(module, "mlp_forward", None) is forward:
                monkeypatch.setattr(module, "mlp_forward", counted)
        cfg = fd.DistillConfig(m=5, iterations=1, batch_size=4, seed=14)
        fd.distill(quick_teacher, quick_store, cfg)
        R = quick_teacher.R
        teacher_stops = [stop for frozen, stop in calls if frozen]
        assert len(calls) == 20
        assert sorted(teacher_stops) == sorted([R] * 8 + [max(1, R // 2)] * 2)
        assert [stop for frozen, stop in calls if not frozen] == [None] * 10


class TestHeadIsolation:
    def test_update_for_one_k_leaves_other_heads_identical(self, quick_teacher,
                                                           quick_store, monkeypatch):
        cfg = fd.DistillConfig(m=5, iterations=1, batch_size=4, seed=12)
        key_grid = fd.TimeGrid.uniform(5)
        state = init_state(quick_teacher, quick_store, cfg)
        before, student_before = state.heads.copy(), state.student.copy()
        keys = fd.key_points(quick_store, key_grid)[:1]
        one_head = fd.ParamSet(state.heads.names, fd.head_of(state.heads, 2))
        _adv_gradients(quick_teacher, state.student, fd.head_of(state.heads, 2),
                       np.array([[0.3]]), keys[:, 2], key_grid.times[3], key_grid.times[2],
                       cfg.lambda_adv, state.student.copy(), one_head.copy(), one_head.copy())
        # computing the gradients moves nothing; the round-end update does
        assert state.student.equal(student_before)
        assert state.heads.equal(before)

        # a round whose only nonzero head gradient is key 2's moves head 2 alone:
        # Adam leaves a parameter with zero gradient and zero moments where it is
        def only_key_2(*args):
            out = _adv_gradients(*args)
            t_lo, h_grads = args[6], args[-2]
            if t_lo != key_grid.times[2]:
                h_grads.flat.fill(0.0)
            return out

        monkeypatch.setattr(importlib.import_module("flowdistill.distill"), "_adv_gradients",
                            only_key_2)
        after = fd.distill(quick_teacher, quick_store, cfg).heads
        for k in range(5):
            same = all(np.array_equal(a, b)
                       for a, b in zip(fd.head_of(after, k), fd.head_of(before, k)))
            assert same == (k != 2), k


class TestSampling:
    """Few-step sampling is `denoise_batch` on the key grid; the model
    counts its evaluations, and `score_model` returns them as the NFE."""

    def test_nfe_equals_m(self, quick_teacher):
        before = quick_teacher.eval_count
        fd.denoise_batch(quick_teacher, np.array([[0.5]]), fd.TimeGrid.uniform(5))
        assert quick_teacher.eval_count - before == 5

    def test_single_step_constant_field(self):
        model = constant_model(2.5)
        x = fd.denoise_batch(model, np.array([[1.0]]), fd.TimeGrid.uniform(1))[0]
        assert model.eval_count == 1
        assert x[0, 0] == pytest.approx(1.0 - 2.5, abs=1e-12)

    def test_batch_matches_single(self, quick_teacher):
        # one-row batches agree with the full batch to rounding
        key_grid = fd.TimeGrid.uniform(5)
        Z = np.random.default_rng(5).standard_normal((4, 1))
        before = quick_teacher.eval_count
        batch = fd.denoise_batch(quick_teacher, Z, key_grid)[0]
        assert quick_teacher.eval_count - before == 5
        singles = np.concatenate([fd.denoise_batch(quick_teacher, Z[i:i + 1], key_grid)[0]
                                  for i in range(4)])
        assert np.allclose(batch, singles, rtol=0, atol=1e-12)

    def test_step_ratio_teacher_to_student(self, quick_teacher):
        Z = np.array([[0.1]])
        start = quick_teacher.eval_count
        fd.denoise_batch(quick_teacher, Z, fd.TimeGrid.uniform(50))
        teacher_evals = quick_teacher.eval_count - start
        start = quick_teacher.eval_count
        fd.denoise_batch(quick_teacher, Z, fd.TimeGrid.uniform(5))
        student_evals = quick_teacher.eval_count - start
        assert teacher_evals == 50 and student_evals == 5
        assert teacher_evals // student_evals == 10
