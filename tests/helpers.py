import base64
import json

import numpy as np

import flowdistill as fd


def rand_model(d=1, H=12, R=2, seed=0, scale=0.4):
    """Model with every tensor randomized (including the zero-initialized
    output layer) so gradients are generic at the test point."""
    rng = np.random.default_rng(seed + 1000)
    model = fd.build_velocity_model(d, H, R, seed)
    return model.with_params(fd.ParamSet(model.params.names, [
        t + rng.normal(0, scale, t.shape) for t in model.params.tensors]))


def tensor_data(array) -> str:
    """The `data` of a tensor record holding `array`: the padded base64
    of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def record_array(rec) -> np.ndarray:
    """The array a tensor record of a model or checkpoint file holds."""
    return np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").reshape(rec["shape"])


def constant_model(c):
    """Model rigged to output the constant c: zero hidden influence via
    the output layer, constant via the output bias."""
    model = fd.build_velocity_model(1, 8, 1, seed=0)
    tensors = list(model.params.tensors)
    tensors[-1] = np.array([c])
    return model.with_params(fd.ParamSet(model.params.names, tuple(tensors)))


def distill_and_score(shared, item):
    """One ablation cell, for `flowdistill.analysis.parallel_map` with
    `shared` (teacher, store): distill a student with `item`'s config and
    score it in m steps from the noise Z against the teacher's samples."""
    teacher, store = shared
    config, Z, teacher_samples = item
    student = fd.distill(teacher, store, config).student
    score = fd.score_model(student, Z, fd.TimeGrid.uniform(config.m), teacher_samples)
    return {"student": student, "w1": score.w1, "nfe": score.nfe}


def kd_and_score(shared, item):
    """One KD-baseline cell, for `flowdistill.analysis.parallel_map` with
    `shared` (teacher, store): train on the shifted dataset p_d on the
    store's grid, sample in `config.windows` steps and measure W1 to the
    unshifted support."""
    teacher, store = shared
    p_d, config, count, sample_seed, support = item
    student, _ = fd.kd_baseline_distill(teacher, p_d, config, grid=store.grid)
    Z = np.random.default_rng(sample_seed).standard_normal((count, student.d))
    return fd.score_model(student, Z, fd.TimeGrid.uniform(config.windows), support).w1


def rand_head(width, seed=0, scale=0.3):
    """One projection head, as a ParamSet of its four tensors, with every
    tensor randomized (the output layer starts at zero, which would zero
    every gradient through it)."""
    rng = np.random.default_rng(seed + 2000)
    head = fd.build_heads(width, [seed])
    return fd.ParamSet(head.names, [t + rng.normal(0, scale, t.shape)
                                    for t in fd.head_of(head, 0)])


def adv_step(teacher, student_params, head, l_prev, real, t_hi, t_lo, scale):
    """One adversarial step through the training loop's explicit path,
    `distill._adv_gradients`, on the arguments of `oracles.adv_step_tape`
    (`head` a ParamSet). Returns (d_loss, g_loss, generated latents,
    student gradient, head gradient).

    The gradient buffers start as NaN, as a run's reused buffers hold
    the last key's values: the step must overwrite every element."""
    from flowdistill.distill import _adv_gradients

    s_grads, h_grads, h_fake = (ps.like(np.full(ps.size, np.nan))
                                for ps in (student_params, head, head))
    return (*_adv_gradients(teacher, student_params, head.tensors, l_prev, real, t_hi, t_lo,
                            scale, s_grads, h_grads, h_fake), s_grads, h_grads)


def json_leaves(node, field="", path=()):
    """(dotted field, key path) of every leaf under the decoded JSON
    `node`, a list element counting as a leaf of its list's field."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items()
                for leaf in json_leaves(value, f"{field}.{key}".lstrip("."), path + (key,))]
    if isinstance(node, list):
        return [leaf for i, value in enumerate(node)
                for leaf in json_leaves(value, field, path + (i,))]
    return [(field, path)]


def with_leaf(node, path, value):
    """A copy of the decoded JSON `node` whose leaf at the key path
    `path` is `value`."""
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node
