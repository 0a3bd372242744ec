import json

import numpy as np
import pytest

import flowdistill as fd
import flowdistill.autodiff as ad
from flowdistill.errors import ConfigError, NumericsError, StoreFormatError
from flowdistill.nn import forward_velocity

from helpers import rand_model
from oracles import adam_reference, max_grad_rel_error


class TestBuild:
    def test_same_seed_same_params(self):
        a = fd.build_velocity_model(1, 64, 4, seed=7)
        b = fd.build_velocity_model(1, 64, 4, seed=7)
        assert a.params.equal(b.params)

    def test_different_seed_differs(self):
        a = fd.build_velocity_model(1, 64, 4, seed=7)
        b = fd.build_velocity_model(1, 64, 4, seed=8)
        assert not a.params.equal(b.params)

    def test_output_dimension_matches_d(self):
        model = fd.build_velocity_model(2, 16, 2, seed=0)
        out = fd.eval_velocity(model, np.array([[0.1, -0.2]]), 0.3)
        assert out.shape == (1, 2)

    @pytest.mark.parametrize("d,H,R", [(0, 8, 1), (1, 0, 1), (1, 8, 0), (-3, 8, 2)])
    def test_invalid_dimensions_rejected(self, d, H, R):
        with pytest.raises(ConfigError):
            fd.build_velocity_model(d, H, R, seed=0)

    def test_tensor_sizes_match_shapes(self):
        model = fd.build_velocity_model(3, 10, 2, seed=1)
        for t in model.params:
            assert t.size == int(np.prod(t.shape))


class TestEval:
    def test_zero_initialized_output_layer_gives_zero_field(self):
        model = fd.build_velocity_model(1, 32, 3, seed=5)
        for x, t in [(0.0, 0.0), (-3.0, 1.0), (17.5, 0.25)]:
            assert fd.eval_velocity(model, np.array([[x]]), t) == 0.0

    def test_repeated_eval_identical(self):
        model = rand_model(seed=2)
        a = fd.eval_velocity(model, np.array([[0.3]]), 0.5)
        b = fd.eval_velocity(model, np.array([[0.3]]), 0.5)
        assert np.array_equal(a, b)

    def test_eval_does_not_mutate_params(self):
        model = rand_model(seed=3)
        before = model.params.copy()
        fd.eval_velocity(model, np.array([[1.0]]), 0.7)
        assert model.params.equal(before)

    def test_batched_eval_matches_single(self):
        # one-row batches agree with the full batch to rounding
        model = rand_model(seed=4)
        X = np.array([[0.1], [-2.0], [3.5]])
        t = np.array([0.2, 0.9, 0.0])
        batched = fd.eval_velocity(model, X, t)
        singles = np.concatenate([fd.eval_velocity(model, X[i:i + 1], t[i])
                                  for i in range(3)])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = fd.build_velocity_model(2, 8, 1, seed=0)
        with pytest.raises(ValueError):
            fd.eval_velocity(model, np.array([[1.0]]), 0.5)

    def test_single_vector_state_rejected(self):
        model = fd.build_velocity_model(2, 8, 1, seed=0)
        with pytest.raises(ValueError):
            fd.eval_velocity(model, np.array([1.0, 2.0]), 0.5)

    def test_time_out_of_range_rejected(self):
        model = fd.build_velocity_model(1, 8, 1, seed=0)
        with pytest.raises(ValueError):
            fd.eval_velocity(model, np.array([[0.0]]), 1.5)

    def test_eval_counter_increments_per_call(self):
        model = rand_model(seed=5)
        start = model.eval_count
        fd.eval_velocity(model, np.array([[0.0]]), 0.5)
        fd.eval_velocity(model, np.zeros((4, 1)), 0.5)
        assert model.eval_count == start + 2


class TestGrad:
    def test_sum_of_squares_gradient(self):
        model = rand_model(seed=6)
        params = model.params

        def loss(ps):
            total = None
            for t in ps.tensors:
                term = ad.tsum(ad.square(t))
                total = term if total is None else ad.add(total, term)
            return total

        _, grads = fd.value_and_grad(loss, params)
        for g, p in zip(grads.tensors, params.tensors):
            assert np.allclose(g, 2.0 * p, rtol=0, atol=1e-12)

    def test_constant_loss_gives_zero_gradient(self):
        model = rand_model(seed=7)
        _, grads = fd.value_and_grad(lambda ps: ad.mean(ad.Tensor(np.array([4.2]))),
                                     model.params)
        for g in grads.tensors:
            assert np.all(g == 0.0)

    def test_forward_gradient_vs_finite_differences(self):
        model = rand_model(seed=8)
        x = np.array([[0.37], [-1.4]])
        t = np.array([0.25, 0.8])

        def node(ps):
            return ad.mean(ad.square(forward_velocity(ps, x, t, model.R)))

        loss, grads = fd.value_and_grad(node, model.params)

        def loss_at(ps):
            return float(ad.mean(ad.square(forward_velocity(ps, x, t, model.R))).data)

        coords = np.random.default_rng(0).integers(0, model.params.size, 32)
        assert max_grad_rel_error(loss_at, model.params, grads, coords) < 1e-4

    def test_non_finite_loss_reported(self):
        model = rand_model(seed=9)
        with pytest.raises(NumericsError):
            fd.value_and_grad(lambda ps: ad.log(ad.Tensor(np.array(-1.0))), model.params)

    def test_eval_perturbation_consistent_with_gradient(self):
        # first-order check of d(output)/d(param) via the loss output[0]
        model = rand_model(seed=10)
        x, t = np.array([[0.3]]), 0.5

        def out0(ps):
            return ad.mean(forward_velocity(ps, x, t, model.R))

        _, grads = fd.value_and_grad(out0, model.params)
        coord = 17
        delta = 1e-6
        bumped = model.params.with_flat(coord, model.params.get_flat(coord) + delta)
        before = fd.eval_velocity(model, x, t)[0, 0]
        after = fd.eval_velocity(model.with_params(bumped), x, t)[0, 0]
        assert (after - before) / delta == pytest.approx(grads.get_flat(coord), rel=1e-4)


class TestOptimizer:
    def test_zero_gradient_leaves_params_unchanged(self):
        model = rand_model(seed=11)
        state = fd.init_optimizer(model.params, lr=1e-3)
        zero = model.params.map(np.zeros_like)
        new_params, new_state = fd.optimizer_step(model.params, zero, state)
        assert new_params.equal(model.params)
        assert new_state.step == 1

    def test_first_step_direction_is_sign_of_gradient(self):
        model = rand_model(seed=13)
        rng = np.random.default_rng(0)
        grads = model.params.map(lambda t: rng.standard_normal(t.shape))
        state = fd.init_optimizer(model.params, lr=1e-3)
        new_params, _ = fd.optimizer_step(model.params, grads, state)
        for new, old, g in zip(new_params.tensors, model.params.tensors, grads.tensors):
            moved = new - old
            nz = np.abs(g) > 1e-12
            assert np.all(np.sign(moved[nz]) == -np.sign(g[nz]))

    def test_step_counter_strictly_increases(self):
        model = rand_model(seed=14)
        state = fd.init_optimizer(model.params, lr=1e-3)
        params = model.params
        for expected in (1, 2, 3):
            params, state = fd.optimizer_step(
                params, params.map(np.ones_like), state
            )
            assert state.step == expected

    def test_quadratic_descent_monotone_after_burn_in(self):
        target = np.array([1.5, -2.0, 0.5])
        params = fd.ParamSet(("p",), (np.zeros(3),))
        state = fd.init_optimizer(params, lr=0.05)
        losses = []
        for _ in range(100):
            diff = params.tensors[0] - target
            losses.append(float(np.sum(diff * diff)))
            grads = fd.ParamSet(("p",), (2.0 * diff,))
            params, state = fd.optimizer_step(params, grads, state)
        tail = losses[10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < losses[0] * 0.1

    def test_flat_step_equals_per_tensor_reference(self):
        model = rand_model(seed=20)
        rng = np.random.default_rng(1)
        params = model.params
        state = fd.init_optimizer(params, lr=1e-2)
        ref = (list(params.tensors), list(state.m.tensors), list(state.v.tensors))
        for step in (1, 2, 3):
            grads = params.map(lambda t: rng.standard_normal(t.shape))
            params, state = fd.optimizer_step(params, grads, state)
            ref = adam_reference(*ref[:1], grads.tensors, *ref[1:], step, 1e-2)
            for got, want in zip((params, state.m, state.v), ref):
                assert all(np.array_equal(a, b) for a, b in zip(got.tensors, want))

    def test_shape_mismatch_rejected(self):
        model = rand_model(seed=15)
        other = fd.build_velocity_model(1, 6, 1, seed=0)
        state = fd.init_optimizer(model.params, lr=1e-3)
        with pytest.raises(ValueError):
            fd.optimizer_step(model.params, other.params, state)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = rand_model(seed=16)
        path = tmp_path / "model.json"
        fd.save_model(path, model)
        loaded = fd.load_model(path)
        assert loaded.params.equal(model.params)
        assert loaded.arch == model.arch
        assert loaded.fingerprint() == model.fingerprint()

    def test_double_round_trip_identical_bytes(self, tmp_path):
        model = rand_model(seed=17)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        fd.save_model(p1, model)
        fd.save_model(p2, fd.load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StoreFormatError):
            fd.load_model(path)

    def test_wrong_kind_rejected(self, tmp_path):
        model = rand_model(seed=18)
        path = tmp_path / "head.json"
        fd.save_paramset(path, model.params, {"kind": "projection_head", "index": 0})
        with pytest.raises(StoreFormatError):
            fd.load_model(path)

    @pytest.mark.parametrize("data", [[[0.5, 0.5]], [[0.5], [0.5, 0.5]], "x"])
    def test_tensor_data_must_match_its_shape(self, tmp_path, data):
        model = rand_model(seed=20)
        path = tmp_path / "model.json"
        fd.save_model(path, model)
        payload = json.loads(path.read_text())
        name = payload["tensors"][0]["name"]
        payload["tensors"][0]["data"] = data
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreFormatError, match=f"{path}: tensor '{name}'"):
            fd.load_model(path)

    def test_paramset_roundtrip_preserves_order(self, tmp_path):
        model = rand_model(seed=19)
        path = tmp_path / "params.json"
        fd.save_paramset(path, model.params, {"kind": "raw"})
        params, meta = fd.load_paramset(path)
        assert params.names == model.params.names
        assert meta == {"kind": "raw"}
