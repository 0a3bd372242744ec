"""Few-step student training: the trajectory regression loss and the
adversarial driver.

The key timesteps t'_0 = 0 < ... < t'_m = 1 of a run are the time grid
TimeGrid.uniform(m), indexed like every grid: key_grid.times[k] is t'_k,
and key_points(store, key_grid)[:, k] the stored latents there, store
step k·n/m, so m must divide the store's n (`key_points` checks it). The
student is sampled and scored on the same grid, in m model
evaluations, by `analysis.score_model(student, Z, key_grid, reference)`.

One training round sweeps k from m-1 down to 0. For each k the student
is first regressed onto the stored finite-difference velocity over the
key interval. With the adversary on, the round also carries one batch
of generated latents down the keys: fresh noise at k = m-1, advanced
one student Euler step per key, and compared at each key against the
stored latents of its paired trajectories through the frozen teacher's
features and the head for k. The chain lives inside the round; its
adversarial gradients are summed over the keys and applied when it
ends, the student's as the mean over the m keys and each head's as the
mean over the keys it served.

A run's state between rounds is one dataclass, which is also its
checkpoint; a resume refuses the checkpoint of another teacher, store or
config. Its loss history is one (round, m, 3) float64 array.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .adversarial import build_heads, d_loss_grad, features_node, g_loss_grad, \
    head_backward, head_forward, head_of
from .atomic import write_json
from .errors import ConfigError, NumericsError, StoreFormatError, check_fields, check_numbers
from .flow import TimeGrid
from .nn import FILE_VERSION, OptimizerState, ParamSet, VelocityModel, check_grads, \
    check_loss, from_payload, init_optimizer, mlp_backward, mlp_forward, optimizer_step, \
    read_json, to_payload, velocity_mse, zeros_like
from .seeds import derive_seed
from .trajstore import TrajectoryStore, check_teacher, key_points

METRIC_COLUMNS = ("iter", "k", "traj_loss", "d_loss", "g_loss")
# the DistillConfig fields a resume may change
RESUMABLE = ("iterations", "checkpoint_interval")


def _traj_regression(keys, key_grid: TimeGrid, k: int):
    """Inputs (latents at t'_{k+1}, t'_{k+1}) and finite-difference
    velocity targets of the key interval [t'_k, t'_{k+1}], for the
    (B, m+1, d) keys of a batch of trajectories, keys[:, k] being the
    latents at key_grid.times[k] = t'_k."""
    keys = np.asarray(keys, dtype=np.float64)
    m = key_grid.n
    if not 0 <= k <= m - 1:
        raise ValueError(f"k must lie in [0, {m - 1}], got {k}")
    if keys.ndim != 3 or keys.shape[1] != m + 1:
        raise ValueError(f"keys must be (B, {m + 1}, d), got shape {keys.shape}")
    t_lo, t_hi = key_grid.times[k], key_grid.times[k + 1]
    l_lo, l_hi = keys[:, k, :], keys[:, k + 1, :]
    return l_hi, t_hi, (l_lo - l_hi) / (t_lo - t_hi)


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of one distillation run (toy-scale defaults).

    The adversarial recipe itself is fixed: the non-saturating generator
    loss against the stored latents of the trajectories the generated
    batch was paired with, a separate Adam state for the generator-side
    student step, and one update of the student and the heads at the
    end of every round. The key count m must divide the store's n."""

    m: int = 5
    lambda_adv: float = 0.1
    student_lr: float = 1e-4
    adv_student_lr: float = 1e-5  # generator-side step; kept well below the
    # discriminator's so the critic can police overshoot (two-timescale rule)
    head_lr: float = 1e-2
    batch_size: int = 128
    iterations: int = 3000  # training rounds; each sweeps k = m-1 .. 0
    seed: int = 0
    heads: str = "per_timestep"  # or "single"
    adv_batch: int = 32  # a round generates min(adv_batch, batch_size) latents
    checkpoint_interval: int = 200  # rounds between checkpoints; 0 disables

    def validate(self):
        check_numbers(DistillConfig, vars(self), "distill.",
                      zero_ok=("lambda_adv", "seed", "checkpoint_interval"))
        check_fields([("heads", self.heads in ("per_timestep", "single"),
                       "'per_timestep' or 'single'")], "distill.")


@dataclass
class DistillResult:
    student: VelocityModel
    heads: ParamSet  # stacked on a leading head axis; head i is head_of(heads, i)
    metrics: np.ndarray  # (rounds, m, 3): metrics[r, k] = (traj_loss, d_loss, g_loss)


@dataclass
class _DistillState:
    """Everything the training loop carries between rounds, and so the
    checkpoint: saving it and loading it back resumes a run bit for bit.
    `config` and the fingerprints of its `teacher` and `store` identify
    the run. The adversarial gradients and generated latents never
    outlive the round that made them, so they are not part of it."""

    config: DistillConfig
    teacher: str
    store: str
    round: int
    student: ParamSet
    opt_student: OptimizerState
    # the adversarial loss gets its own moments (and a slower step):
    # mixing both losses in one EMA lets every adversarial step replay
    # the trajectory momentum
    opt_student_adv: OptimizerState
    heads: ParamSet  # every head, stacked on a leading head axis
    opt_heads: OptimizerState
    rng_batch: np.random.Generator
    rng_noise: np.random.Generator
    metrics: np.ndarray  # (round, m, 3): the losses of every round so far

    def head_for(self, k: int) -> int:
        return k if self.config.heads == "per_timestep" else 0


def init_state(teacher: VelocityModel, store: TrajectoryStore,
               config: DistillConfig) -> _DistillState:
    """The state of a run on `store` before its first round."""
    student = teacher.params.copy()
    count = config.m if config.heads == "per_timestep" else 1
    heads = build_heads(teacher.H, [derive_seed(config.seed, f"head-{k}") for k in range(count)])
    return _DistillState(
        config, teacher.fingerprint(), store.fingerprint(), 0, student,
        init_optimizer(student), init_optimizer(student), heads, init_optimizer(heads),
        np.random.default_rng(derive_seed(config.seed, "trajectory-batches")),
        # the label predates the chain; renaming it would change every draw
        np.random.default_rng(derive_seed(config.seed, "queue-noise")),
        np.empty((0, config.m, 3)))


def save_checkpoint(path, state: _DistillState):
    write_json(path, {"format": "flowdistill-checkpoint", "version": FILE_VERSION,
                      **to_payload(state)})


def load_checkpoint(path, teacher: VelocityModel, store: TrajectoryStore,
                    config: DistillConfig) -> _DistillState:
    """The state saved in `path`, which must be a run of `teacher` on
    `store` under `config` up to the fields in RESUMABLE: a defect in the
    file is a StoreFormatError, another run a ConfigError, each naming it."""
    payload = read_json(path, "flowdistill-checkpoint", ("config", "teacher", "store"),
                        "re-run distill without --resume")
    fresh = init_state(teacher, store, config)
    # the identity first: another run's heads, say, are another run, not a defect
    saved = from_payload(DistillConfig, payload["config"], path, "config")
    identity = [(f.name, getattr(saved, f.name), getattr(config, f.name))
                for f in dataclasses.fields(config) if f.name not in RESUMABLE]
    identity += [(name, from_payload(str, payload[name], path, name), getattr(fresh, name))
                 for name in ("teacher", "store")]
    for name, was, now in identity:
        if was != now:
            raise ConfigError(f"{path}: checkpoint was written for {name}={was!r}, "
                              f"this run has {name}={now!r}")
    state = from_payload(_DistillState, payload, path, like=fresh)
    if state.metrics.shape != (state.round, config.m, 3):
        raise StoreFormatError(f"{path}: field 'metrics' has shape {list(state.metrics.shape)}, "
                               f"round {state.round} needs {[state.round, config.m, 3]}")
    return dataclasses.replace(state, config=config)


def _adv_gradients(teacher, student, head, l_prev, real, t_hi, t_lo, scale, s_grads,
                   h_grads, h_fake):
    """Adversarial gradients of the `student` parameters and of `head`,
    its four tensors, over the key interval from t_hi = t'_{k+1} down to
    t_lo = t'_k, with losses scaled by `scale` (lambda_adv): the
    arguments of `tests/oracles.py::adv_step_tape`, plus three buffers.

    The generated latents are the (B, d) latents `l_prev` at t_hi
    advanced one student step; their real counterparts are the (B, d)
    stored latents `real` at t_lo of the paired trajectories. The
    student step, the teacher features and the head logits of the
    generated latents are computed once and serve the generator
    gradient, the discriminator and the next key.

    Writes the student gradient into `s_grads` and the head gradient
    into `h_grads`, laid out like one head (`h_fake` holds its fake
    branch on the way), and returns (d_loss, g_loss, generated latents).
    """
    dt = t_lo - t_hi
    v, step_cache = mlp_forward(student, l_prev, t_hi, want_cache=True)
    l_gen = l_prev + v * dt
    feats_fake, tap_cache = features_node(teacher, l_gen, t_lo, want_cache=True)
    logit_fake, head_fake = head_forward(head, feats_fake)

    # generator: back through the head, the frozen teacher and the step
    g_scaled, g_logit = g_loss_grad(logit_fake, scale)
    check_loss(g_scaled)
    g_feats = head_backward(head, head_fake, g_logit, want_input=True)
    g_lgen = mlp_backward(teacher.params, tap_cache, g_feats, want_input=True)
    mlp_backward(student, step_cache, g_lgen * dt, s_grads)
    check_grads(s_grads)

    # discriminator: both branches of the head, summed per parameter
    logit_real, head_real = head_forward(
        head, features_node(teacher, real, t_lo))
    d_scaled, g_real, g_fake = d_loss_grad(logit_real, logit_fake, scale)
    check_loss(d_scaled)
    head_backward(head, head_real, g_real, h_grads.tensors)
    head_backward(head, head_fake, g_fake, h_fake.tensors)
    h_grads.flat += h_fake.flat
    check_grads(h_grads)

    return d_scaled / scale, g_scaled / scale, l_gen


def distill(teacher: VelocityModel, store: TrajectoryStore, config: DistillConfig,
            checkpoint_path=None, resume: bool = False) -> DistillResult:
    """Run the full distillation loop.

    The student starts from the teacher's parameters; the teacher is
    never modified. With lambda_adv = 0 the adversarial phase is skipped
    entirely, leaving pure trajectory regression. When `checkpoint_path`
    is set, full training state is snapshotted every
    `config.checkpoint_interval` rounds (never at 0), and `resume=True`
    continues an interrupted run bit-for-bit from a checkpoint there.
    """
    config.validate()
    if store.d != teacher.d:
        raise ConfigError("store dimension does not match the teacher")
    check_teacher(store, teacher)
    key_grid = TimeGrid.uniform(config.m)

    keys_all = key_points(store, key_grid)
    m, B, N = config.m, config.batch_size, store.N

    if resume and checkpoint_path and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path, teacher, store, config)
    else:
        state = init_state(teacher, store, config)

    # the run's gradient buffers; every pass that fills one writes all of it
    grads, s_grads = zeros_like(state.student), zeros_like(state.student)
    one_head = ParamSet(state.heads.names, head_of(state.heads, 0))
    h_grads, h_fake = zeros_like(one_head), zeros_like(one_head)
    # adversarial gradient sums of a round, applied when it ends
    student_sum, head_sum = zeros_like(state.student), zeros_like(state.heads)
    # the loss history of the whole run; the state views the rounds done
    history = np.empty((max(config.iterations, state.round), m, 3))
    history[:state.round] = state.metrics
    while state.round < config.iterations:
        rnd = state.round
        student_sum.flat[:] = head_sum.flat[:] = 0.0
        for k in range(m - 1, -1, -1):
            idx = state.rng_batch.integers(0, N, size=B)
            keys_b = keys_all[idx]
            try:
                loss, grads = velocity_mse(state.student,
                                           *_traj_regression(keys_b, key_grid, k), grads)
                state.student, state.opt_student = optimizer_step(
                    state.student, grads, state.opt_student, config.student_lr)
            except NumericsError as e:
                raise NumericsError(
                    f"distillation diverged (traj phase, k={k}, round={rnd}): {e}"
                ) from e

            d_loss_val = g_loss_val = float("nan")
            if config.lambda_adv > 0.0:
                if k == m - 1:
                    # fresh noise paired with this iteration's trajectories
                    nb = min(config.adv_batch, B)
                    latent = state.rng_noise.standard_normal((nb, store.d))
                    real_keys = keys_b[:nb]
                try:
                    d_loss_val, g_loss_val, latent = _adv_gradients(
                        teacher, state.student, head_of(state.heads, state.head_for(k)),
                        latent, real_keys[:, k], key_grid.times[k + 1], key_grid.times[k],
                        config.lambda_adv, s_grads, h_grads, h_fake)
                except NumericsError as e:
                    raise NumericsError(
                        f"distillation diverged (adv phase, k={k}, round={rnd}): {e}"
                    ) from e
                student_sum.flat += s_grads.flat
                for acc, g in zip(head_of(head_sum, state.head_for(k)), h_grads.tensors):
                    acc += g
            history[rnd, k] = loss, d_loss_val, g_loss_val
        state.round += 1
        state.metrics = history[:state.round]
        if config.lambda_adv > 0.0:
            student_sum.flat /= m
            head_sum.flat /= 1 if config.heads == "per_timestep" else m  # keys per head
            try:
                state.student, state.opt_student_adv = optimizer_step(
                    state.student, student_sum, state.opt_student_adv, config.adv_student_lr)
                state.heads, state.opt_heads = optimizer_step(
                    state.heads, head_sum, state.opt_heads, config.head_lr)
            except NumericsError as e:
                raise NumericsError(f"distillation diverged (adv update, round={rnd}): {e}") from e
        if (checkpoint_path and config.checkpoint_interval
                and state.round % config.checkpoint_interval == 0):
            save_checkpoint(checkpoint_path, state)

    if teacher.fingerprint() != state.teacher:
        raise NumericsError("teacher parameters changed during distillation")
    student = teacher.with_params(state.student)
    return DistillResult(student=student, heads=state.heads, metrics=state.metrics)

