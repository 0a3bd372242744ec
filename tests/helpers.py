import base64
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

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


def parallel_map(fn, args):
    """[fn(a) for a in args], spread over up to two worker processes when
    this process may run on two CPUs. `fn` must be a module-level
    function of this module; each call is independent and seeded, so the
    results do not depend on where it ran."""
    args = list(args)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if min(2, cpus or 1, len(args)) < 2:
        return [fn(a) for a in args]
    # spawn, not fork: a forked child would inherit the BLAS thread state
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, args))


def distill_and_score(args):
    """One ablation cell: distill a student and score it in m steps on Z."""
    teacher, store, config, Z, teacher_samples = args
    student = fd.distill(teacher, store, config).student
    score = fd.score_model(student, Z, fd.TimeGrid.uniform(config.m), teacher_samples)
    return {"student": student, "w1": score.w1, "nfe": score.nfe}


def kd_and_score(args):
    """One KD-baseline cell: train on the shifted dataset p_d, sample in
    `config.windows` steps and measure W1 to the unshifted support."""
    teacher, p_d, config, grid, count, sample_seed, support = args
    student, _ = fd.kd_baseline_distill(teacher, p_d, config, grid=grid)
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


def adv_step(teacher, student_params, head, l_prev, real_keys, k, key_grid,
             scale=1.0, heads="per_timestep"):
    """One adversarial step through the training loop's explicit path
    (`distill._adv_gradients`) on a fresh state holding `student_params`
    and, as the head for key k, the ParamSet `head`. Returns (d_loss,
    g_loss, generated latents, student gradient, head gradient).

    The gradient buffers start as NaN, as a run's reused buffers hold
    the last key's values: the step must overwrite every element."""
    from flowdistill.distill import _adv_gradients, init_state

    config = fd.DistillConfig(m=key_grid.n, lambda_adv=scale, heads=heads)
    # the store only names the run; a one-step, one-path one is enough
    state = init_state(teacher, fd.generate_store(teacher, 1, fd.TimeGrid.uniform(1), 0),
                       config)
    state.student = student_params
    for view, t in zip(fd.head_of(state.heads, state.head_for(k)), head.tensors):
        view[...] = t
    s_grads, h_grads, h_fake = (ps.like(np.full(ps.size, np.nan))
                                for ps in (student_params, head, head))
    return (*_adv_gradients(teacher, key_grid, config, state, k, l_prev, real_keys[:, k],
                            s_grads, h_grads, h_fake), s_grads, h_grads)


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
