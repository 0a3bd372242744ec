import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import flowdistill as fd
import flowdistill.autodiff as ad
from flowdistill.errors import ConfigError, NumericsError, StoreFormatError
from flowdistill.nn import forward_velocity

from helpers import json_leaves, rand_model, tensor_data, with_leaf
from oracles import adam_reference, max_grad_rel_error

SRC = Path(__file__).resolve().parent.parent / "src"


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
        for t in model.params.tensors:
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
            for t in ps:  # each sum of squares as size times the mean
                term = ad.mul(ad.mean(ad.square(t)), float(t.data.size))
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
            return ad.mean(ad.square(forward_velocity(ps, x, t)))

        loss, grads = fd.value_and_grad(node, model.params)

        def loss_at(ps):
            return float(ad.mean(ad.square(forward_velocity(ps, x, t))).data)

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
            return ad.mean(forward_velocity(ps, x, t))

        _, grads = fd.value_and_grad(out0, model.params)
        coord = 17
        delta = 1e-6
        bumped = model.params.copy()
        bumped.flat[coord] += delta
        before = fd.eval_velocity(model, x, t)[0, 0]
        after = fd.eval_velocity(model.with_params(bumped), x, t)[0, 0]
        assert (after - before) / delta == pytest.approx(grads.flat[coord], rel=1e-4)


class TestOptimizer:
    """`optimizer_step` updates its params and moments in place, so each
    test steps a copy and compares it with the original."""

    def test_zero_gradient_leaves_params_unchanged(self):
        model = rand_model(seed=11)
        state = fd.init_optimizer(model.params)
        zero = model.params.like(np.zeros(model.params.size))
        new_params, new_state = fd.optimizer_step(model.params.copy(), zero, state, 1e-3)
        assert new_params.equal(model.params)
        assert new_state.step == 1

    def test_steps_in_place(self):
        params = fd.ParamSet(("p",), (np.zeros(3),))
        state = fd.init_optimizer(params)
        views = [ps.tensors[0] for ps in (params, state.m, state.v)]
        new_params, new_state = fd.optimizer_step(
            params, fd.ParamSet(("p",), (np.ones(3),)), state, 1e-3)
        assert new_params is params and new_state.m is state.m and new_state.v is state.v
        assert all(np.all(t != 0.0) for t in views)

    def test_first_step_direction_is_sign_of_gradient(self):
        model = rand_model(seed=13)
        rng = np.random.default_rng(0)
        grads = model.params.like(rng.standard_normal(model.params.size))
        state = fd.init_optimizer(model.params)
        new_params, _ = fd.optimizer_step(model.params.copy(), grads, state, 1e-3)
        for new, old, g in zip(new_params.tensors, model.params.tensors, grads.tensors):
            moved = new - old
            nz = np.abs(g) > 1e-12
            assert np.all(np.sign(moved[nz]) == -np.sign(g[nz]))

    def test_step_counter_strictly_increases(self):
        model = rand_model(seed=14)
        state = fd.init_optimizer(model.params)
        params = model.params
        for expected in (1, 2, 3):
            params, state = fd.optimizer_step(
                params, params.like(np.ones(params.size)), state, 1e-3
            )
            assert state.step == expected

    def test_quadratic_descent_monotone_after_burn_in(self):
        target = np.array([1.5, -2.0, 0.5])
        params = fd.ParamSet(("p",), (np.zeros(3),))
        state = fd.init_optimizer(params)
        losses = []
        for _ in range(100):
            diff = params.tensors[0] - target
            losses.append(float(np.sum(diff * diff)))
            grads = fd.ParamSet(("p",), (2.0 * diff,))
            params, state = fd.optimizer_step(params, grads, state, 0.05)
        tail = losses[10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < losses[0] * 0.1

    def test_overflowing_gradient_is_refused(self):
        # g * g overflows: the second moment would be inf and the step a silent 0
        params = fd.ParamSet(("p",), (np.zeros(3),))
        grads = fd.ParamSet(("p",), (np.array([0.0, 1e200, 0.0]),))
        with pytest.raises(NumericsError, match="non-finite"):
            fd.optimizer_step(params, grads, fd.init_optimizer(params), 1e-3)

    def test_flat_step_equals_per_tensor_reference(self):
        model = rand_model(seed=20)
        rng = np.random.default_rng(1)
        params = model.params
        state = fd.init_optimizer(params)
        ref = tuple([t.copy() for t in ps.tensors] for ps in (params, state.m, state.v))
        for step in (1, 2, 3):
            grads = params.like(rng.standard_normal(params.size))
            params, state = fd.optimizer_step(params, grads, state, 1e-2)
            ref = adam_reference(*ref[:1], grads.tensors, *ref[1:], step, 1e-2)
            for got, want in zip((params, state.m, state.v), ref):
                assert all(np.array_equal(a, b) for a, b in zip(got.tensors, want))

    def test_shape_mismatch_rejected(self):
        model = rand_model(seed=15)
        other = fd.build_velocity_model(1, 6, 1, seed=0)
        state = fd.init_optimizer(model.params)
        with pytest.raises(ValueError):
            fd.optimizer_step(model.params, other.params, state, 1e-3)


class TestSerialization:
    @staticmethod
    def _saved_with(tmp_path, edit):
        """The path of a model file whose payload was passed through `edit`."""
        path = tmp_path / "model.json"
        fd.save_model(path, rand_model(seed=20))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

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

    # decimal lists (the version-1 encoding) are not a string; "x" is not
    # strict base64; the last holds one float64 where the tensor has 24
    @pytest.mark.parametrize("data", [[[0.5, 0.5]], [[0.5], [0.5, 0.5]], "x",
                                      tensor_data([0.5])])
    def test_tensor_data_must_match_its_shape(self, tmp_path, data):
        path = self._saved_with(tmp_path, lambda p: p["tensors"][0].update(data=data))
        with pytest.raises(StoreFormatError, match=f"{path}: tensor 'in.w': data "):
            fd.load_model(path)

    def test_non_canonical_base64_is_refused(self, tmp_path):
        # out.b, the last tensor, holds one float64: 8 bytes, so its base64
        # ends in one "="; "B" sets a bit after the last byte
        path = self._saved_with(tmp_path, lambda p: p["tensors"][-1].update(data="AAAAAAAAAAB="))
        with pytest.raises(StoreFormatError,
                           match=f"{path}: tensor 'out.b': data is not strict base64"):
            fd.load_model(path)

    def test_paramset_roundtrip_preserves_order(self, tmp_path):
        model = rand_model(seed=19)
        path = tmp_path / "params.json"
        fd.save_paramset(path, model.params, {"kind": "raw"})
        params, meta = fd.load_paramset(path)
        assert params.names == model.params.names
        assert meta == {"kind": "raw"}

    @pytest.mark.parametrize("version", [1, 3, 2.0, "2", True, None])
    def test_file_of_another_version_is_refused(self, tmp_path, version):
        path = self._saved_with(tmp_path, lambda p: p.update(version=version))
        with pytest.raises(StoreFormatError, match=f"^{path}: version {version!r} is not 2; "
                                                   "re-run the train-teacher, distill or "
                                                   "kd-baseline command"):
            fd.load_model(path)

    @pytest.mark.parametrize("field,value,message", [
        ("d", -1, "must be positive integers"), ("H", 0, "must be positive integers"),
        ("d", 2, "do not match the architecture of meta {'d': 2, 'H': 12, 'R': 2}"),
        ("H", 6, "do not match the architecture of meta {'d': 1, 'H': 6, 'R': 2}"),
    ], ids=["d-negative", "H-zero", "d-off-the-shapes", "H-off-the-shapes"])
    def test_meta_must_agree_with_the_tensors(self, tmp_path, field, value, message):
        path = self._saved_with(tmp_path, lambda p: p["meta"].update({field: value}))
        with pytest.raises(StoreFormatError) as info:
            fd.load_model(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_huge_R_is_refused_in_bounded_time(self, tmp_path):
        # the layout of R blocks has 4R + 4 tensors; building it for this R
        # would fill the memory, so the load runs in a child capped in
        # address space and time, where a regression fails instead
        path = self._saved_with(tmp_path, lambda p: p["meta"].update(R=10**40))
        probe = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                 "import flowdistill as fd\n"
                 "try:\n    fd.load_model(sys.argv[1])\n"
                 "except fd.StoreFormatError as e:\n    print(e)\n")
        res = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                             text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert res.stdout.startswith(f"{path}: tensors "), res.stderr[-400:]
        assert "do not match the architecture" in res.stdout


# raw float64 bit patterns, with the edge cases drawn often: signalling and
# quiet NaNs with payloads and either sign, ±0.0, ±inf, the extreme subnormals
EDGE_BITS = [0x7FF0000000000001, 0x7FF8000000000000, 0xFFF8DEADBEEF0001, 0x7FFFFFFFFFFFFFFF,
             0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
             0x0000000000000001, 0x800FFFFFFFFFFFFF]
float64_bits = st.one_of(st.sampled_from(EDGE_BITS), st.integers(0, 2**64 - 1))


@pytest.fixture(scope="module")
def tiny_run():
    """A teacher, a one-path store and a distill config to checkpoint."""
    from flowdistill.distill import init_state

    model = fd.build_velocity_model(1, 4, 1, seed=0)
    store = fd.generate_store(model, 1, fd.TimeGrid.uniform(5), seed=0)
    config = fd.DistillConfig(m=5, iterations=1)
    return model, store, config, init_state(model, store, config)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(arrays(np.uint64, array_shapes(min_dims=0, max_dims=3, min_side=0,
                                               max_side=4), elements=float64_bits),
                min_size=1, max_size=3),
       st.data())
def test_any_float64_survives_files_bit_for_bit(tmp_path, tiny_run, bits, data):
    """Model files and checkpoints keep every float64 bit pattern, and two
    saves of one value give the same bytes."""
    from flowdistill.distill import load_checkpoint, save_checkpoint

    params = fd.ParamSet([f"t{i}" for i in range(len(bits))],
                         [b.view(np.float64) for b in bits])
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    fd.save_paramset(first, params, {"kind": "raw"})
    loaded, _ = fd.load_paramset(first)
    assert loaded.shapes == params.shapes and loaded.flat.tobytes() == params.flat.tobytes()
    fd.save_paramset(second, loaded, {"kind": "raw"})
    assert second.read_bytes() == first.read_bytes()

    model, store, config, state = tiny_run
    state.student.flat[:] = np.array(data.draw(st.lists(
        float64_bits, min_size=state.student.size, max_size=state.student.size)),
        dtype=np.uint64).view(np.float64)
    save_checkpoint(first, state)
    resumed = load_checkpoint(first, model, store, config)
    assert resumed.student.flat.tobytes() == state.student.flat.tobytes()
    save_checkpoint(second, resumed)
    assert second.read_bytes() == first.read_bytes()


def _same_json(a, b) -> bool:
    """Whether two decoded JSON values are one value: numbers compare by
    value, NaN equals NaN, and true and false equal only themselves."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b or (a != a and b != b)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory, tiny_run):
    """A model file and a one-round checkpoint with metrics rows, their
    decoded payloads, and how to load and save back each kind."""
    from flowdistill.distill import load_checkpoint, save_checkpoint

    model, store, _, _ = tiny_run
    config = fd.DistillConfig(m=5, iterations=1, batch_size=4, adv_batch=2,
                              checkpoint_interval=1)
    base = tmp_path_factory.mktemp("files")
    fd.save_model(base / "model.json", model)
    fd.distill(model, store, config, checkpoint_path=base / "checkpoint.json")
    round_trip = {
        "model.json": lambda src, dst: fd.save_model(dst, fd.load_model(src)),
        "checkpoint.json": lambda src, dst: save_checkpoint(
            dst, load_checkpoint(src, model, store, config)),
    }
    return {name: (json.loads((base / name).read_text()), fn)
            for name, fn in round_trip.items()}


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from([float("nan"), float("inf"), -float("inf"), True, -1, 0, 1.5,
                                   "x", [[1.0]], None, {}, 10**40]))
def test_any_single_field_edit_is_refused_or_kept(tmp_path, saved_files, data, value):
    """Replacing one leaf of a model file or a checkpoint gives a file that
    is refused, naming it, or that loads and saves back to the same JSON
    value. A resume takes `iterations` and `checkpoint_interval` from its
    own config (distill.RESUMABLE), so those are not the file's to keep."""
    from flowdistill.distill import RESUMABLE

    name = data.draw(st.sampled_from(sorted(saved_files)))
    payload, round_trip = saved_files[name]
    path = data.draw(st.sampled_from([path for _, path in json_leaves(payload) if path not in
                                      [("config", field) for field in RESUMABLE]]))
    edited = with_leaf(payload, path, value)
    src, dst = tmp_path / name, tmp_path / f"saved-{name}"
    src.write_text(json.dumps(edited))
    try:
        round_trip(src, dst)
    except fd.FlowDistillError as e:
        assert str(e).startswith(str(src)), (path, value, str(e))
    else:
        assert _same_json(json.loads(dst.read_text()), edited), (path, value)
