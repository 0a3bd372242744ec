"""Few-step student training: key-timestep schedules, the trajectory
regression loss, latent queues, the queue-based adversarial driver, and
few-step sampling.

One training round sweeps k from m-1 down to 0. For each k the student
is first regressed onto the stored finite-difference velocity over the
key interval; a generated latent is then popped from queue k+1,
advanced one student Euler step, pushed into queue k, and compared
against its paired stored latent through the frozen teacher's features
and the head for k. Both adversarial gradients are evaluated before
either update is applied.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .adversarial import ProjectionHead, build_projection_head, d_loss_grad, \
    default_taps, features_node, g_loss_grad, head_backward, head_forward
from .atomic import write_json
from .errors import ConfigError, NumericsError, QueueEmpty
from .flow import integrate
from .nn import OptimizerState, VelocityModel, check_grads, check_loss, forward_velocity, \
    init_optimizer, mlp_backward, mlp_forward, optimizer_step, params_from_payload, \
    params_to_payload, read_json, require_fields, velocity_mse, zeros_like
from .seeds import derive_seed
from .trajstore import TrajectoryStore, key_points

METRIC_COLUMNS = ("iter", "k", "traj_loss", "d_loss", "g_loss", "queue_sizes")
CHECKPOINT_FIELDS = ("m", "round", "student", "opt_student", "opt_student_adv", "heads",
                     "opt_heads", "rng_batch", "rng_noise", "queues", "metrics")


@dataclass(frozen=True)
class KeySchedule:
    """The m+1 key timesteps t'_m = 1 > ... > t'_0 = 0, stored in that
    (descending) order; every entry must lie on the inference grid."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ConfigError("key schedule needs at least two timesteps")
        if times[0] != 1.0 or times[-1] != 0.0:
            raise ConfigError("key schedule endpoints must be exactly 1 and 0")
        if np.any(np.diff(times) >= 0):
            raise ConfigError("key timesteps must be strictly decreasing")
        object.__setattr__(self, "times", times)

    @property
    def m(self) -> int:
        return self.times.size - 1

    def time(self, k: int) -> float:
        """t'_k; k counts up from the clean end (t'_0 = 0)."""
        return float(self.times[self.m - k])


def make_key_schedule(n: int, m: int) -> KeySchedule:
    """Uniform key timesteps t'_k = k/m on an n-step uniform grid."""
    if m < 1:
        raise ConfigError(f"interval count must be positive, got {m}")
    if n % m != 0:
        raise ConfigError(f"uniform keys need n divisible by m, got n={n}, m={m}")
    return KeySchedule(np.arange(m, -1, -1) / m)


def _traj_regression(keys, schedule: KeySchedule, k: int):
    """Inputs (latents at t'_{k+1}, t'_{k+1}) and finite-difference
    velocity targets of the key interval [t'_k, t'_{k+1}], for the
    (B, m+1, d) keys of a batch of trajectories."""
    keys = np.asarray(keys, dtype=np.float64)
    m = schedule.m
    if not 0 <= k <= m - 1:
        raise ValueError(f"k must lie in [0, {m - 1}], got {k}")
    if keys.ndim != 3 or keys.shape[1] != m + 1:
        raise ValueError(f"keys must be (B, {m + 1}, d), got shape {keys.shape}")
    t_lo, t_hi = schedule.time(k), schedule.time(k + 1)
    l_lo = keys[:, m - k, :]
    l_hi = keys[:, m - k - 1, :]
    return l_hi, t_hi, (l_lo - l_hi) / (t_lo - t_hi)


def traj_loss_node(params, keys, schedule: KeySchedule, k: int, R: int):
    """Trajectory-regression loss as a node of the autodiff tape (the
    reference for the explicit gradient of the trajectory phase): the
    squared error between the velocity at the key latents for t'_{k+1}
    and the stored finite-difference velocity over [t'_k, t'_{k+1}],
    averaged over trajectories and dimensions."""
    l_hi, t_hi, target = _traj_regression(keys, schedule, k)
    pred = forward_velocity(params, l_hi, t_hi, R)
    return ad.mean(ad.square(ad.sub(pred, target)))


@dataclass
class QueueEntry:
    """A batch of B generated latents tagged with a key index, carried
    together with the real key latents of the paired source
    trajectories. B may be 1; the arrays are batched regardless."""

    latent: np.ndarray  # (B, d)
    real_keys: np.ndarray  # (B, m+1, d), ordered like KeySchedule.times
    traj_index: np.ndarray  # (B,) integer
    key_index: int

    def __post_init__(self):
        B = self.latent.shape[0]
        if (self.latent.ndim != 2 or self.real_keys.ndim != 3
                or self.real_keys.shape[0] != B or self.traj_index.shape != (B,)):
            raise ValueError("queue entry arrays must be (B, d), (B, m+1, d) and (B,)")


class LatentQueues:
    """FIFO queues Q_0 ... Q_m of bounded capacity; pushing into a full
    queue evicts the oldest entry."""

    def __init__(self, m: int, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be positive, got {capacity}")
        self.m = m
        self.capacity = capacity
        self._queues = [deque(maxlen=capacity) for _ in range(m + 1)]

    def push(self, k: int, entry: QueueEntry):
        if entry.key_index != k:
            raise ValueError(f"entry is tagged for key {entry.key_index}, not {k}")
        self._queues[k].append(entry)

    def pop(self, k: int) -> QueueEntry:
        if not self._queues[k]:
            raise QueueEmpty(f"queue {k} is empty (warm-up skip)")
        return self._queues[k].popleft()

    def size(self, k: int) -> int:
        return len(self._queues[k])

    def sizes(self) -> list:
        return [len(q) for q in self._queues]


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters of one distillation run (toy-scale defaults).

    The adversarial recipe itself is fixed: the non-saturating generator
    loss against the real latents queued with each entry, a separate
    Adam state for the generator-side student step, and one update of
    the student and the heads at the end of every round."""

    m: int = 5
    n: int = 50
    lambda_adv: float = 0.1
    student_lr: float = 1e-4
    adv_student_lr: float = 1e-5  # generator-side step; kept well below the
    # discriminator's so the critic can police overshoot (two-timescale rule)
    head_lr: float = 1e-2
    batch_size: int = 128
    iterations: int = 3000  # training rounds; each sweeps k = m-1 .. 0
    seed: int = 0
    queue_capacity: int = 64
    heads: str = "per_timestep"  # or "single"
    adv_batch: int = 32  # latents per queue entry (the adversarial minibatch)
    checkpoint_interval: int = 0  # rounds between checkpoints; 0 disables

    def validate(self):
        if self.m < 1:
            raise ConfigError("m must be positive")
        if self.n % self.m != 0:
            raise ConfigError(f"n={self.n} must be divisible by m={self.m}")
        if self.lambda_adv < 0:
            raise ConfigError("lambda_adv must be non-negative")
        if self.student_lr <= 0 or self.adv_student_lr <= 0 or self.head_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.iterations < 1 or self.batch_size < 1:
            raise ConfigError("iterations and batch size must be positive")
        if self.heads not in ("per_timestep", "single"):
            raise ConfigError(f"unknown heads mode {self.heads!r}")
        if self.adv_batch < 1:
            raise ConfigError("adv_batch must be positive")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be non-negative")


@dataclass
class DistillResult:
    student: VelocityModel
    heads: list
    metrics: list  # rows matching METRIC_COLUMNS


class _DistillState:
    """Everything the training loop carries between rounds; snapshotting
    this exactly is what makes interrupted runs resumable bit-for-bit.
    Adversarial gradients are not part of it: each round applies the
    ones it computed before it ends."""

    def __init__(self, teacher: VelocityModel, config: DistillConfig):
        m = config.m
        self.round = 0
        self.student_params = teacher.params.copy()
        self.opt_student = init_optimizer(self.student_params, config.student_lr)
        # the adversarial loss gets its own moments (and a slower step):
        # mixing both losses in one EMA lets every adversarial step
        # replay the trajectory momentum
        self.opt_student_adv = init_optimizer(self.student_params, config.adv_student_lr)
        n_heads = m if config.heads == "per_timestep" else 1
        self.heads = [
            build_projection_head(teacher.H, k, derive_seed(config.seed, f"head-{k}"))
            for k in range(n_heads)
        ]
        self.opt_heads = [init_optimizer(h.params, config.head_lr) for h in self.heads]
        self.rng_batch = np.random.default_rng(derive_seed(config.seed, "trajectory-batches"))
        self.rng_noise = np.random.default_rng(derive_seed(config.seed, "queue-noise"))
        self.queues = LatentQueues(m, config.queue_capacity)
        self.metrics = []

    def head_for(self, k: int) -> int:
        return k if len(self.heads) > 1 else 0


def _opt_to_payload(opt: OptimizerState) -> dict:
    return {
        "m": params_to_payload(opt.m),
        "v": params_to_payload(opt.v),
        "step": opt.step,
        "lr": opt.lr,
    }


def _opt_from_payload(p: dict, source) -> OptimizerState:
    # older checkpoints also carry beta1, beta2, eps and weight_decay,
    # always at the values that are now constants
    require_fields(p, ("m", "v", "step", "lr"), f"{source}: optimizer state")
    return OptimizerState(params_from_payload(p["m"], source),
                          params_from_payload(p["v"], source), p["step"], p["lr"])


def save_checkpoint(path, state: _DistillState, config: DistillConfig):
    payload = {
        "format": "flowdistill-checkpoint",
        "version": 1,
        "m": config.m,
        "round": state.round,
        "student": params_to_payload(state.student_params),
        "opt_student": _opt_to_payload(state.opt_student),
        "opt_student_adv": _opt_to_payload(state.opt_student_adv),
        "heads": [
            {"index": h.index, "params": params_to_payload(h.params)}
            for h in state.heads
        ],
        "opt_heads": [_opt_to_payload(o) for o in state.opt_heads],
        "rng_batch": state.rng_batch.bit_generator.state,
        "rng_noise": state.rng_noise.bit_generator.state,
        "queues": [
            [
                {
                    "latent": e.latent.tolist(),
                    "real_keys": e.real_keys.tolist(),
                    "traj_index": e.traj_index.tolist(),
                    "key_index": e.key_index,
                }
                for e in state.queues._queues[k]
            ]
            for k in range(config.m + 1)
        ],
        "metrics": state.metrics,
    }
    write_json(path, payload)


def load_checkpoint(path, teacher: VelocityModel, config: DistillConfig) -> _DistillState:
    payload = read_json(path, "flowdistill-checkpoint", CHECKPOINT_FIELDS)
    # older checkpoints carry the adversarial gradient sums; they were
    # written after each round's update, so a resumable one holds none
    if payload.get("adv_g_count", 0) or any(payload.get("adv_h_count", ())):
        raise ConfigError(f"{path}: holds adversarial gradients of an unfinished round")
    if payload["m"] != config.m:
        raise ConfigError(
            f"checkpoint was written for m={payload['m']}, config has m={config.m}"
        )
    state = _DistillState(teacher, config)
    state.round = payload["round"]
    state.student_params = params_from_payload(payload["student"], path)
    state.opt_student = _opt_from_payload(payload["opt_student"], path)
    state.opt_student_adv = _opt_from_payload(payload["opt_student_adv"], path)
    state.heads = []
    for h in payload["heads"]:
        require_fields(h, ("index", "params"), f"{path}: head")
        state.heads.append(ProjectionHead(h["index"], params_from_payload(h["params"], path)))
    state.opt_heads = [_opt_from_payload(o, path) for o in payload["opt_heads"]]
    state.rng_batch.bit_generator.state = payload["rng_batch"]
    state.rng_noise.bit_generator.state = payload["rng_noise"]
    # older checkpoints hold 1-row entries unbatched: (d,), (m+1, d), int
    d = teacher.d
    for k, entries in enumerate(payload["queues"]):
        for e in entries:
            require_fields(e, ("latent", "real_keys", "traj_index", "key_index"),
                           f"{path}: queue {k} entry")
            state.queues.push(k, QueueEntry(
                np.asarray(e["latent"], dtype=np.float64).reshape(-1, d),
                np.asarray(e["real_keys"], dtype=np.float64).reshape(-1, config.m + 1, d),
                np.atleast_1d(np.asarray(e["traj_index"])), e["key_index"],
            ))
    state.metrics = [tuple(row) for row in payload["metrics"]]
    return state


def _adv_gradients(teacher, taps, schedule, config, state, k, entry):
    """Adversarial gradients for one popped queue entry, at the current
    student and the head for k; nothing in `state` changes.

    The generated latents are the entry advanced one student step;
    their real counterparts are the paired stored latents carried by
    the entry. The student step, the teacher features and the head
    logits of the generated latents are computed once and serve the
    generator gradient, the discriminator and the queue push.

    Returns (d_loss, g_loss, advanced QueueEntry, student gradient,
    head gradient).
    """
    m = schedule.m
    t_hi, t_lo = schedule.time(k + 1), schedule.time(k)
    dt = t_lo - t_hi
    head = state.heads[state.head_for(k)].params
    student = state.student_params
    l_prev = entry.latent
    real = entry.real_keys[:, m - k, :]

    v, step_cache = mlp_forward(student, l_prev, t_hi, teacher.R, want_cache=True)
    l_gen = l_prev + v * dt
    feats_fake, tap_cache = features_node(teacher, l_gen, t_lo, taps, want_cache=True)
    logit_fake, head_fake = head_forward(head, feats_fake)

    # generator: back through the head, the frozen teacher and the step
    g_scaled, g_logit = g_loss_grad(logit_fake, config.lambda_adv)
    check_loss(g_scaled)
    g_feats = head_backward(head, head_fake, g_logit, want_input=True)
    g_lgen = mlp_backward(teacher.params, tap_cache, g_feats, want_input=True)
    s_grads = zeros_like(student)
    mlp_backward(student, step_cache, g_lgen * dt, s_grads)
    check_grads(s_grads)

    # discriminator: both branches of the head, summed per parameter
    logit_real, head_real = head_forward(
        head, features_node(teacher, real, t_lo, taps))
    d_scaled, g_real, g_fake = d_loss_grad(logit_real, logit_fake, config.lambda_adv)
    check_loss(d_scaled)
    h_real, h_fake = zeros_like(head), zeros_like(head)
    head_backward(head, head_real, g_real, h_real)
    head_backward(head, head_fake, g_fake, h_fake)
    h_grads = head.like(h_real.flat + h_fake.flat)
    check_grads(h_grads)

    advanced = QueueEntry(l_gen, entry.real_keys, entry.traj_index, k)
    return (d_scaled / config.lambda_adv, g_scaled / config.lambda_adv, advanced,
            s_grads, h_grads)


def _mean_grad(params, grads):
    """Mean of `grads`, summed in order onto zeros shaped like `params`."""
    acc = np.zeros(params.size)
    for g in grads:
        acc = acc + g.flat
    return params.like(acc / len(grads))


def _apply_adv_updates(state, student_grads, head_grads):
    """Step the student, and each head, on the mean of the adversarial
    gradients one round collected for it (`head_grads[i]` for head i);
    a part with none is left alone."""
    if student_grads:
        state.student_params, state.opt_student_adv = optimizer_step(
            state.student_params, _mean_grad(state.student_params, student_grads),
            state.opt_student_adv,
        )
    for i, grads in enumerate(head_grads):
        if grads:
            head = state.heads[i]
            new_params, state.opt_heads[i] = optimizer_step(
                head.params, _mean_grad(head.params, grads), state.opt_heads[i]
            )
            state.heads[i] = head.with_params(new_params)


def distill(teacher: VelocityModel, store: TrajectoryStore, config: DistillConfig,
            checkpoint_path=None, resume: bool = False) -> DistillResult:
    """Run the full distillation loop.

    The student starts from the teacher's parameters; the teacher is
    never modified. With lambda_adv = 0 the adversarial phase is skipped
    entirely, leaving pure trajectory regression. When `checkpoint_path`
    is set, full training state is snapshotted every
    `config.checkpoint_interval` rounds and `resume=True` continues an
    interrupted run bit-for-bit.
    """
    config.validate()
    if store.grid.n != config.n:
        raise ConfigError(f"store has n={store.grid.n}, config expects n={config.n}")
    if store.d != teacher.d:
        raise ConfigError("store dimension does not match the teacher")
    schedule = make_key_schedule(config.n, config.m)
    taps = default_taps(teacher)

    teacher_print = teacher.fingerprint()
    keys_all = key_points(store, schedule)
    m, B, N = config.m, config.batch_size, store.N

    if resume and checkpoint_path and os.path.exists(checkpoint_path):
        state = load_checkpoint(checkpoint_path, teacher, config)
    else:
        state = _DistillState(teacher, config)

    while state.round < config.iterations:
        rnd = state.round
        # adversarial gradients of this round, applied when it ends
        student_grads, head_grads = [], [[] for _ in state.heads]
        for k in range(m - 1, -1, -1):
            idx = state.rng_batch.integers(0, N, size=B)
            keys_b = keys_all[idx]
            try:
                loss, grads = velocity_mse(state.student_params,
                                           *_traj_regression(keys_b, schedule, k), teacher.R)
            except NumericsError as e:
                raise NumericsError(
                    f"distillation diverged (traj phase, k={k}, round={rnd}): {e}"
                ) from e
            state.student_params, state.opt_student = optimizer_step(
                state.student_params, grads, state.opt_student
            )

            d_loss_val = g_loss_val = float("nan")
            if config.lambda_adv > 0.0:
                if k == m - 1:
                    # fresh noise paired with this iteration's trajectories
                    nb = min(config.adv_batch, B)
                    z = state.rng_noise.standard_normal((nb, store.d))
                    state.queues.push(m, QueueEntry(z, keys_b[:nb], idx[:nb], m))
                try:
                    entry = state.queues.pop(k + 1)
                except QueueEmpty:
                    pass  # warm-up: skip the adversarial update for this k
                else:
                    try:
                        d_loss_val, g_loss_val, advanced, s_grads, h_grads = \
                            _adv_gradients(teacher, taps, schedule, config, state, k, entry)
                    except NumericsError as e:
                        raise NumericsError(
                            f"distillation diverged (adv phase, k={k}, round={rnd}): {e}"
                        ) from e
                    student_grads.append(s_grads)
                    head_grads[state.head_for(k)].append(h_grads)
                    state.queues.push(k, advanced)

            state.metrics.append(
                (rnd, k, loss, d_loss_val, g_loss_val,
                 "|".join(str(s) for s in state.queues.sizes()))
            )
        state.round += 1
        _apply_adv_updates(state, student_grads, head_grads)
        if (checkpoint_path and config.checkpoint_interval
                and state.round % config.checkpoint_interval == 0):
            save_checkpoint(checkpoint_path, state, config)

    if teacher.fingerprint() != teacher_print:
        raise NumericsError("teacher parameters changed during distillation")
    student = teacher.with_params(state.student_params)
    return DistillResult(student=student, heads=list(state.heads), metrics=state.metrics)


def sample_student_batch(student: VelocityModel, schedule: KeySchedule, Z):
    """Few-step sampling: integrate (B, d) noise draws through the m key
    steps. Returns ((B, d) samples, nfe); nfe counts model evaluations
    and equals m."""
    return integrate(student, Z, schedule.times)[-1], schedule.m
