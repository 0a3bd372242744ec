import json

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.distill import traj_loss_node, _DistillState, _adv_gradients, \
    _apply_adv_updates, _traj_regression
from flowdistill.errors import ConfigError, QueueEmpty
from flowdistill.nn import init_optimizer, optimizer_step, value_and_grad, velocity_mse
from flowdistill.seeds import derive_seed

from helpers import rand_model
from oracles import max_grad_rel_error


class TestKeySchedule:
    def test_uniform_5_of_50(self):
        schedule = fd.make_key_schedule(50, 5)
        assert np.array_equal(schedule.times, [1.0, 0.8, 0.6, 0.4, 0.2, 0.0])
        assert schedule.m == 5

    def test_single_interval(self):
        schedule = fd.make_key_schedule(50, 1)
        assert np.array_equal(schedule.times, [1.0, 0.0])

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            fd.make_key_schedule(50, 3)

    def test_time_accessor_counts_from_clean_end(self):
        schedule = fd.make_key_schedule(50, 5)
        assert schedule.time(0) == 0.0
        assert schedule.time(5) == 1.0
        assert schedule.time(1) == pytest.approx(0.2)

    def test_keys_lie_on_grid(self):
        grid = fd.TimeGrid.uniform(50)
        for t in fd.make_key_schedule(50, 5).times:
            grid.index_of(t)  # raises if off-grid


def traj_mse(model, keys, schedule, k):
    """Trajectory-regression loss of `model` on (B, m+1, d) keys."""
    return velocity_mse(model.params, *_traj_regression(keys, schedule, k), model.R)[0]


class TestTrajLoss:
    def test_zero_when_student_matches_target(self, quick_store):
        schedule = fd.make_key_schedule(10, 5)
        keys = fd.key_points(quick_store, schedule)[:1]
        m = schedule.m
        for k in range(m):
            target = (keys[0, m - k] - keys[0, m - k - 1]) / (
                schedule.time(k) - schedule.time(k + 1))
            rigged = _constant_model(float(target[0]))
            assert traj_mse(rigged, keys, schedule, k) == pytest.approx(0.0, abs=1e-24)

    def test_direct_value_with_zero_student(self):
        # keys for the interval [0, 0.2]: latent 0.5 at t=0.2, 3 at t=0
        schedule = fd.make_key_schedule(50, 5)
        keys = np.zeros((1, 6, 1))
        keys[0, 4, 0] = 0.5  # t' = 0.2
        keys[0, 5, 0] = 3.0  # t' = 0
        student = fd.build_velocity_model(1, 8, 1, seed=0)  # zero output
        assert traj_mse(student, keys, schedule, 0) == pytest.approx(156.25)

    def test_k_out_of_range_rejected(self, quick_teacher):
        schedule = fd.make_key_schedule(10, 5)
        keys = np.zeros((1, 6, 1))
        with pytest.raises(ValueError):
            traj_mse(quick_teacher, keys, schedule, 5)
        with pytest.raises(ValueError):
            traj_mse(quick_teacher, keys, schedule, -1)

    def test_gradient_vs_finite_differences(self):
        model = rand_model(seed=31)
        schedule = fd.make_key_schedule(10, 5)
        rng = np.random.default_rng(2)
        keys = rng.standard_normal((1, 6, 1)) * 2
        k = 2
        _, grads = fd.value_and_grad(
            lambda ps: traj_loss_node(ps, keys, schedule, k, model.R), model.params
        )
        coords = rng.integers(0, model.params.size, 32)
        assert max_grad_rel_error(
            lambda ps: traj_mse(model.with_params(ps), keys, schedule, k),
            model.params, grads, coords,
        ) < 1e-4

    def test_batched_equals_mean_of_singles(self):
        # the batched loss equals the mean of the one-row losses
        model = rand_model(seed=32)
        schedule = fd.make_key_schedule(10, 5)
        rng = np.random.default_rng(3)
        keys_b = rng.standard_normal((7, 6, 1))
        batched = float(traj_loss_node(model.params, keys_b, schedule, 1, model.R).data)
        singles = [traj_mse(model, keys_b[i:i + 1], schedule, 1) for i in range(7)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)

    def test_unbatched_keys_rejected(self):
        schedule = fd.make_key_schedule(10, 5)
        with pytest.raises(ValueError, match="keys must be"):
            _traj_regression(np.zeros((6, 1)), schedule, 0)


class TestQueues:
    def test_fifo_order(self):
        queues = fd.LatentQueues(m=2, capacity=4)
        a = _entry(0.1, key_index=1)
        b = _entry(0.2, key_index=1)
        queues.push(1, a)
        queues.push(1, b)
        assert queues.pop(1) is a
        assert queues.pop(1) is b

    def test_pop_empty_signals_warmup_skip(self):
        queues = fd.LatentQueues(m=2, capacity=4)
        with pytest.raises(QueueEmpty):
            queues.pop(0)

    def test_capacity_evicts_oldest(self):
        queues = fd.LatentQueues(m=1, capacity=2)
        entries = [_entry(float(i), key_index=0) for i in range(3)]
        for e in entries:
            queues.push(0, e)
        assert queues.size(0) == 2
        assert queues.pop(0) is entries[1]

    def test_mistagged_entry_rejected(self):
        queues = fd.LatentQueues(m=2, capacity=4)
        with pytest.raises(ValueError):
            queues.push(2, _entry(0.0, key_index=1))


class TestDistill:
    def test_lambda_zero_equals_pure_regression(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, n=10, lambda_adv=0.0, iterations=4,
                               batch_size=8, seed=21)
        result = fd.distill(quick_teacher, quick_store, cfg)

        # hand-rolled loop: trajectory regression only, same rng stream
        schedule = fd.make_key_schedule(cfg.n, cfg.m)
        keys_all = fd.key_points(quick_store, schedule)
        params = quick_teacher.params.copy()
        opt = init_optimizer(params, cfg.student_lr)
        rng = np.random.default_rng(derive_seed(cfg.seed, "trajectory-batches"))
        for _ in range(cfg.iterations):
            for k in range(cfg.m - 1, -1, -1):
                idx = rng.integers(0, quick_store.N, size=cfg.batch_size)
                _, grads = value_and_grad(
                    lambda ps: traj_loss_node(ps, keys_all[idx], schedule, k,
                                              quick_teacher.R),
                    params,
                )
                params, opt = optimizer_step(params, grads, opt)
        assert result.student.params.equal(params)

    def test_teacher_frozen_through_distillation(self, quick_teacher, quick_store):
        before = quick_teacher.fingerprint()
        cfg = fd.DistillConfig(m=5, n=10, iterations=3, batch_size=4, seed=2)
        fd.distill(quick_teacher, quick_store, cfg)
        assert quick_teacher.fingerprint() == before

    def test_initial_traj_loss_is_teachers_own_mismatch(self, quick_teacher, quick_store):
        # student initialized from the teacher: before any update the loss
        # equals the teacher's finite-difference mismatch, strictly positive
        schedule = fd.make_key_schedule(10, 5)
        keys = fd.key_points(quick_store, schedule)[:1]
        for k in range(5):
            loss = traj_mse(quick_teacher, keys, schedule, k)
            assert loss > 0.0

    def test_first_metric_row_matches_recomputed_loss(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, n=10, lambda_adv=0.0, iterations=1,
                               batch_size=8, seed=5)
        result = fd.distill(quick_teacher, quick_store, cfg)
        rnd, k, loss, d_loss, g_loss, sizes = result.metrics[0]
        assert (rnd, k) == (0, 4)
        schedule = fd.make_key_schedule(10, 5)
        keys_all = fd.key_points(quick_store, schedule)
        rng = np.random.default_rng(derive_seed(cfg.seed, "trajectory-batches"))
        idx = rng.integers(0, quick_store.N, size=cfg.batch_size)
        expected = float(traj_loss_node(quick_teacher.params, keys_all[idx], schedule,
                                        4, quick_teacher.R).data)
        assert loss == expected
        assert np.isnan(d_loss) and np.isnan(g_loss)

    def test_determinism_across_runs(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, n=10, iterations=3, batch_size=4, seed=7)
        a = fd.distill(quick_teacher, quick_store, cfg)
        b = fd.distill(quick_teacher, quick_store, cfg)
        assert a.student.params.equal(b.student.params)
        assert a.metrics == b.metrics
        for ha, hb in zip(a.heads, b.heads):
            assert ha.params.equal(hb.params)

    def test_single_head_mode_uses_one_head(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, n=10, iterations=2, batch_size=4, seed=8,
                               heads="single")
        result = fd.distill(quick_teacher, quick_store, cfg)
        assert len(result.heads) == 1

    def test_grid_mismatch_rejected(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, n=50, iterations=1, batch_size=4)
        with pytest.raises(ConfigError):
            fd.distill(quick_teacher, quick_store, cfg)

    def test_metrics_have_row_per_iteration_and_k(self, quick_teacher, quick_store):
        cfg = fd.DistillConfig(m=5, n=10, iterations=3, batch_size=4, seed=9)
        result = fd.distill(quick_teacher, quick_store, cfg)
        assert len(result.metrics) == 3 * 5
        assert [(r[0], r[1]) for r in result.metrics[:5]] == [
            (0, 4), (0, 3), (0, 2), (0, 1), (0, 0)
        ]

    def test_adversarial_round_has_finite_losses_after_warmup(self, quick_teacher,
                                                              quick_store):
        cfg = fd.DistillConfig(m=5, n=10, iterations=2, batch_size=4, seed=10)
        result = fd.distill(quick_teacher, quick_store, cfg)
        d_losses = [r[3] for r in result.metrics]
        assert any(np.isfinite(v) for v in d_losses)

    def test_queue_sizes_stay_bounded(self, quick_teacher, quick_store):
        capacity = 3
        cfg = fd.DistillConfig(m=5, n=10, iterations=12, batch_size=4, seed=13,
                               queue_capacity=capacity)
        result = fd.distill(quick_teacher, quick_store, cfg)
        for row in result.metrics:
            sizes = [int(s) for s in row[5].split("|")]
            assert len(sizes) == 6
            assert all(s <= capacity for s in sizes)
            assert sum(sizes) <= 6 * capacity

    def test_resume_reproduces_uninterrupted_run(self, quick_teacher, quick_store,
                                                 tmp_path):
        ckpt = tmp_path / "ckpt.json"
        cfg = fd.DistillConfig(m=5, n=10, iterations=8, batch_size=4, seed=11,
                               checkpoint_interval=3)
        full = fd.distill(quick_teacher, quick_store, cfg, checkpoint_path=ckpt)
        # the file on disk is the round-6 snapshot; resuming replays 6..8
        resumed = fd.distill(quick_teacher, quick_store, cfg, checkpoint_path=ckpt,
                             resume=True)
        assert resumed.student.params.equal(full.student.params)
        assert resumed.metrics == full.metrics
        for ha, hb in zip(resumed.heads, full.heads):
            assert ha.params.equal(hb.params)

    def test_resume_reads_unbatched_one_row_entries(self, quick_teacher, quick_store,
                                                    tmp_path):
        # checkpoints written before entries were always batched hold a
        # 1-row entry as a (d,) latent, (m+1, d) keys and an int index
        ckpt = tmp_path / "ckpt.json"
        cfg = fd.DistillConfig(m=5, n=10, iterations=5, batch_size=4, seed=11,
                               adv_batch=1, checkpoint_interval=3)
        full = fd.distill(quick_teacher, quick_store, cfg, checkpoint_path=ckpt)
        payload = json.loads(ckpt.read_text())
        entries = [e for queue in payload["queues"] for e in queue]
        assert entries
        for e in entries:
            e["latent"], e["real_keys"], e["traj_index"] = \
                e["latent"][0], e["real_keys"][0], e["traj_index"][0]
        ckpt.write_text(json.dumps(payload))
        resumed = fd.distill(quick_teacher, quick_store, cfg, checkpoint_path=ckpt,
                             resume=True)
        assert resumed.student.params.equal(full.student.params)
        assert resumed.metrics == full.metrics


class TestPassCount:
    def test_adversarial_round_makes_four_forwards_per_key(self, quick_teacher,
                                                           quick_store, monkeypatch):
        # per k: the trajectory pass, the student step of the popped
        # latents, and two teacher passes (fake, real) that stop at the tap
        import sys

        from flowdistill import nn

        calls, forward = [], nn.mlp_forward

        def counted(params, X, t, R, stop=None, want_cache=False):
            calls.append((params is quick_teacher.params, stop))
            return forward(params, X, t, R, stop, want_cache)

        for name, module in list(sys.modules.items()):
            if name.startswith("flowdistill") and getattr(module, "mlp_forward", None) is forward:
                monkeypatch.setattr(module, "mlp_forward", counted)
        cfg = fd.DistillConfig(m=5, n=10, iterations=1, batch_size=4, seed=14)
        fd.distill(quick_teacher, quick_store, cfg)
        taps = fd.default_taps(quick_teacher)
        teacher_stops = [stop for frozen, stop in calls if frozen]
        assert len(calls) == 20
        assert sorted(teacher_stops) == sorted(
            [taps.noisy_block] * 8 + [taps.clean_block] * 2)
        assert [stop for frozen, stop in calls if not frozen] == [None] * 10


class TestHeadIsolation:
    def test_update_for_one_k_leaves_other_heads_identical(self, quick_teacher,
                                                           quick_store):
        cfg = fd.DistillConfig(m=5, n=10, iterations=1, batch_size=4, seed=12)
        schedule = fd.make_key_schedule(10, 5)
        state = _DistillState(quick_teacher, cfg)
        before = [h.params.copy() for h in state.heads]
        student_before = state.student_params.copy()
        taps = fd.default_taps(quick_teacher)
        keys = fd.key_points(quick_store, schedule)[:1]
        entry = fd.QueueEntry(np.array([[0.3]]), keys, np.array([0]), 3)
        *_, s_grads, h_grads = _adv_gradients(quick_teacher, taps, schedule, cfg, state,
                                              2, entry)
        # computing the gradients moves nothing; the round-end update does
        assert state.student_params.equal(student_before)
        assert all(h.params.equal(b) for h, b in zip(state.heads, before))
        _apply_adv_updates(state, [s_grads], [[], [], [h_grads], [], []])
        assert not state.heads[2].params.equal(before[2])
        for k in (0, 1, 3, 4):
            assert state.heads[k].params.equal(before[k])


class TestSampling:
    def test_nfe_equals_m(self, quick_teacher):
        schedule = fd.make_key_schedule(10, 5)
        before = quick_teacher.eval_count
        x, nfe = fd.sample_student_batch(quick_teacher, schedule, np.array([[0.5]]))
        assert nfe == 5
        assert quick_teacher.eval_count - before == 5

    def test_single_step_constant_field(self):
        model = _constant_model(2.5)
        schedule = fd.make_key_schedule(10, 1)
        x, nfe = fd.sample_student_batch(model, schedule, np.array([[1.0]]))
        assert nfe == 1
        assert x[0, 0] == pytest.approx(1.0 - 2.5, abs=1e-12)

    def test_batch_matches_single(self, quick_teacher):
        # one-row batches agree with the full batch to rounding
        schedule = fd.make_key_schedule(10, 5)
        Z = np.random.default_rng(5).standard_normal((4, 1))
        batch, nfe = fd.sample_student_batch(quick_teacher, schedule, Z)
        assert nfe == 5
        singles = np.concatenate([fd.sample_student_batch(quick_teacher, schedule,
                                                          Z[i:i + 1])[0]
                                  for i in range(4)])
        assert np.allclose(batch, singles, rtol=0, atol=1e-12)

    def test_step_ratio_teacher_to_student(self, quick_teacher):
        grid = fd.TimeGrid.uniform(50)
        schedule = fd.make_key_schedule(50, 5)
        Z = np.array([[0.1]])
        start = quick_teacher.eval_count
        fd.denoise_batch(quick_teacher, Z, grid)
        teacher_evals = quick_teacher.eval_count - start
        start = quick_teacher.eval_count
        fd.sample_student_batch(quick_teacher, schedule, Z)
        student_evals = quick_teacher.eval_count - start
        assert teacher_evals == 50 and student_evals == 5
        assert teacher_evals // student_evals == 10


def _entry(value, key_index):
    return fd.QueueEntry(np.array([[value]]), np.zeros((1, 3, 1)), np.array([0]),
                         key_index)


def _constant_model(c):
    model = fd.build_velocity_model(1, 8, 1, seed=0)
    tensors = list(model.params.tensors)
    tensors[-1] = np.array([c])
    return model.with_params(fd.ParamSet(model.params.names, tuple(tensors)))
