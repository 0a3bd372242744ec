"""Flow-matching primitives: linear interpolation paths, the velocity
regression loss, Euler ODE stepping, and teacher training on toy data.

Conventions: time runs from t=1 (pure noise) down to t=0 (data).
Sampling integrates the learned velocity field backwards along a
TimeGrid whose entries are indexed so that times[j] is the j-th
timestep, times[0] = 0 and times[n] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericsError
from .nn import VelocityModel, build_velocity_model, eval_velocity, forward_velocity, \
    init_optimizer, optimizer_step, velocity_mse
from .seeds import derive_seed

# glibc's malloc gives freed memory at the top of the heap back to the
# kernel once it exceeds a threshold (128 KB at start, then twice the
# largest mmap'd block freed so far), and the next allocation faults it
# in again. The (B, H) temporaries of a B=2048 training step are 0.5 MB
# each, so every step paid thousands of page faults, more or fewer with
# the process layout. Freeing one untouched block of this size first
# lifts the threshold above a step's temporaries by glibc's own rule. It
# changes no result; elsewhere it is one allocation of untouched memory.
_HEAP_WARMUP_BYTES = 16 << 20


@dataclass(frozen=True)
class ToyDataset:
    """A finite-support toy distribution: points drawn uniformly from
    `support`, an array of shape (k, d)."""

    support: np.ndarray
    seed: int = 0

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64)
        if support.ndim == 1:
            support = support.reshape(-1, 1)
        if support.ndim != 2 or support.shape[0] == 0:
            raise ConfigError("dataset support must be a non-empty (k, d) array")
        object.__setattr__(self, "support", support)

    @property
    def d(self) -> int:
        return self.support.shape[1]

    def sample(self, count: int, rng=None) -> np.ndarray:
        if rng is None:
            rng = np.random.default_rng(self.seed)
        idx = rng.integers(0, self.support.shape[0], size=count)
        return self.support[idx]


@dataclass(frozen=True)
class TimeGrid:
    """Inference timesteps, stored ascending: times[j] = t_j, with
    t_0 = 0 and t_n = 1 exactly."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ConfigError("time grid needs at least two timesteps")
        if times[0] != 0.0 or times[-1] != 1.0:
            raise ConfigError("time grid endpoints must be exactly 0 and 1")
        if np.any(np.diff(times) <= 0):
            raise ConfigError("time grid must be strictly ordered")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, n: int) -> "TimeGrid":
        if n < 1:
            raise ConfigError(f"step count must be positive, got {n}")
        return cls(np.arange(n + 1) / n)

    @property
    def n(self) -> int:
        return self.times.size - 1

    def index_of(self, t: float) -> int:
        """Index j with times[j] == t exactly; off-grid times are errors."""
        j = int(np.searchsorted(self.times, t))
        if j >= self.times.size or self.times[j] != t:
            raise ConfigError(f"time {t!r} is not on the grid")
        return j


def interpolate(x0, x1, t):
    """Point on the straight noising path: (1 - t) * x0 + t * x1."""
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {x1.shape}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("interpolation time must lie in [0, 1]")
    if t.ndim == 1 and x0.ndim == 2:
        t = t[:, None]
    return (1.0 - t) * x0 + t * x1


def _fm_regression(x0, x1, t):
    """Inputs (x_t, t) and conditional-velocity targets of a batch of
    (B, d) data points x0, (B, d) noise draws x1 and (B,) times t."""
    return interpolate(x0, x1, t), t, np.subtract(x1, x0)


def fm_loss_node(params, batch, R: int):
    """Flow-matching loss on an (x0, x1, t) batch as a node of the
    autodiff tape (the reference for the explicit gradient of
    `train_teacher`)."""
    xt, t, target = _fm_regression(*batch)
    pred = forward_velocity(params, xt, t, R)
    return ad.mean(ad.square(ad.sub(pred, target)))


def train_teacher(data: ToyDataset, iterations: int, batch_size: int, lr: float,
                  seed: int, H: int = 32, R: int = 3):
    """Train a velocity model on a toy dataset.

    Per iteration: data points uniformly from the support, noise from a
    standard normal, t uniform on [0, 1]. Returns the model together
    with the per-iteration loss history.
    """
    if iterations < 1:
        raise ConfigError(f"iterations must be positive, got {iterations}")
    if batch_size < 1:
        raise ConfigError(f"batch size must be positive, got {batch_size}")
    model = build_velocity_model(data.d, H, R, derive_seed(seed, "teacher-init"))
    rng = np.random.default_rng(derive_seed(seed, "teacher-batches"))
    params = model.params
    opt = init_optimizer(params, lr)
    losses = np.empty(iterations)
    np.empty(_HEAP_WARMUP_BYTES // 8)
    for i in range(iterations):
        x0 = data.sample(batch_size, rng)
        x1 = rng.standard_normal((batch_size, data.d))
        t = rng.random(batch_size)
        try:
            loss, grads = velocity_mse(params, *_fm_regression(x0, x1, t), R)
        except NumericsError as e:
            raise NumericsError(f"teacher training diverged at iteration {i}: {e}") from e
        params, opt = optimizer_step(params, grads, opt)
        losses[i] = loss
    return model.with_params(params), losses


def integrate(model: VelocityModel, X, times) -> np.ndarray:
    """Explicit Euler integration of the velocity ODE through `times`,
    given in integration order: (B, d) states at times[0] to
    (len(times), B, d) states, one model evaluation per step. Equal
    consecutive times make a zero step."""
    X = np.asarray(X, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"states must be a (B, d) batch, got shape {X.shape}")
    if times.ndim != 1 or np.any(times < 0.0) or np.any(times > 1.0):
        raise ValueError("step times must lie in [0, 1]")
    states = np.empty((times.size,) + X.shape)
    states[0] = X
    for i in range(times.size - 1):
        t, t_next = times[i], times[i + 1]
        states[i + 1] = states[i] + (t_next - t) * eval_velocity(model, states[i], t)
        if not np.all(np.isfinite(states[i + 1])):
            raise NumericsError(f"Euler integration produced a non-finite state at t={t_next}")
    return states


def denoise_batch(model: VelocityModel, X1: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate (B, d) noise draws from t=1 down to t=0, keeping every
    state: (n+1, B, d) states indexed like grid.times, so states[n] is
    the noise and states[0] the clean endpoints; exactly grid.n model
    evaluations."""
    return integrate(model, X1, grid.times[::-1])[::-1]


def sample_model(model: VelocityModel, count: int, steps: int, seed: int) -> np.ndarray:
    """Draw `count` samples by integrating seeded noise through `steps`
    uniform Euler steps; the cost is exactly `steps` evaluations."""
    if count < 1:
        raise ConfigError(f"sample count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    X1 = rng.standard_normal((count, model.d))
    return integrate(model, X1, TimeGrid.uniform(steps).times[::-1])[-1]
