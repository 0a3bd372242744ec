"""Flow-matching primitives: linear interpolation paths, the velocity
regression loss, Euler ODE stepping, and teacher training on toy data.

Conventions: time runs from t=1 (pure noise) down to t=0 (data).
Sampling integrates the learned velocity field backwards along a
TimeGrid, the uniform grid of n steps: times[j] = j / n is the j-th
timestep, times[0] = 0 and times[n] = 1. Every grid of the lab, the
teacher's and the key grid of a run alike, is uniform, so a grid is its
step count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IntegrationError, NumericsError
from .nn import VelocityModel, build_velocity_model, eval_velocity, init_optimizer, \
    optimizer_step, velocity_mse, zeros_like
from .seeds import derive_seed

@dataclass(frozen=True, eq=False)
class ToyDataset:
    """A finite-support toy distribution: points drawn uniformly from
    `support`, an array of shape (k, d)."""

    support: np.ndarray

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

    def sample(self, count: int, rng) -> np.ndarray:
        idx = rng.integers(0, self.support.shape[0], size=count)
        return self.support[idx]


@dataclass(frozen=True)
class TimeGrid:
    """The uniform grid of n inference steps, stored ascending:
    times[j] = t_j = j / n, with t_0 = 0 and t_n = 1 exactly."""

    n: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ConfigError(f"step count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "times", np.arange(self.n + 1) / self.n)

    @classmethod
    def uniform(cls, n: int) -> "TimeGrid":
        return cls(n)


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


def fit_velocity(model: VelocityModel, batch, iterations: int, lr: float, what: str):
    """`model` trained by `iterations` Adam steps on `velocity_mse`, each on
    the (X, t, target) that `batch()` returns, and the loss of each step.
    A non-finite loss, gradient or step is a NumericsError naming `what`."""
    params = model.params
    opt, grads, losses = init_optimizer(params), zeros_like(params), np.empty(iterations)
    for i in range(iterations):
        try:
            losses[i], grads = velocity_mse(params, *batch(), grads)
            params, opt = optimizer_step(params, grads, opt, lr)
        except NumericsError as e:
            raise NumericsError(f"{what} diverged at iteration {i}: {e}") from e
    return model.with_params(params), losses


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
    if not lr > 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    model = build_velocity_model(data.d, H, R, derive_seed(seed, "teacher-init"))
    rng = np.random.default_rng(derive_seed(seed, "teacher-batches"))

    def batch():
        x0 = data.sample(batch_size, rng)
        x1 = rng.standard_normal((batch_size, data.d))
        return _fm_regression(x0, x1, rng.random(batch_size))

    return fit_velocity(model, batch, iterations, lr, "teacher training")


def integrate(model: VelocityModel, X, grid: TimeGrid, j_from: int, j_to: int) -> np.ndarray:
    """Explicit Euler steps of the velocity ODE down `grid`, one model
    evaluation each: (B, d) states at times[j_from] to the (j_from - j_to + 1,
    B, d) states at times[j_from], times[j_from - 1], ..., times[j_to]."""
    if not 0 <= j_to <= j_from <= grid.n:
        raise ValueError(f"steps must satisfy 0 <= j_to <= j_from <= {grid.n}, "
                         f"got j_from={j_from}, j_to={j_to}")
    times, states = grid.times, np.empty((j_from - j_to + 1,) + np.shape(X))
    states[0] = X
    for i, j in enumerate(range(j_from, j_to, -1)):
        t, t_next = times[j], times[j - 1]
        states[i + 1] = states[i] + (t_next - t) * eval_velocity(model, states[i], t)
        if not np.all(np.isfinite(states[i + 1])):
            raise IntegrationError(f"Euler integration produced a non-finite state at t={t_next}")
    return states


def denoise_batch(model: VelocityModel, X1: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate (B, d) noise draws from t=1 down to t=0, keeping every state:
    (n+1, B, d) states indexed like grid.times, so states[n] is the noise and
    states[0] the clean endpoints; exactly grid.n model evaluations."""
    return integrate(model, X1, grid, grid.n, 0)[::-1]

