"""Diagnostics for dataset/noise mismatch: the mismatch degree, the
frequency of useless forward-diffused points, a window-based knowledge-
distillation baseline that consumes them, and scalar distribution
metrics (1-Wasserstein distance and endpoint error).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distill import DistillConfig, distill
from .errors import ConfigError, NumericsError, check_numbers
from .flow import TimeGrid, ToyDataset, denoise_batch, integrate, interpolate
from .nn import VelocityModel, build_velocity_model, init_optimizer, optimizer_step, \
    velocity_mse, zeros_like
from .seeds import derive_seed
from .trajstore import TrajectoryStore

SWEEP_COLUMNS = ("M", "seed", "useless_frequency", "kd_w1", "traj_distill_w1",
                 "endpoint_error")


def _support_of(points) -> np.ndarray:
    support = points.support if isinstance(points, ToyDataset) else np.asarray(
        points, dtype=np.float64
    )
    if support.ndim == 1:
        support = support.reshape(-1, 1)
    if support.shape[0] == 0:
        raise ValueError("support must be non-empty")
    return support


def nearest_distances(p_d, p) -> np.ndarray:
    """Distance from each point of p_d to its nearest point of p."""
    a, b = _support_of(p_d), _support_of(p)
    if a.shape[1] != b.shape[1]:
        raise ValueError("supports must share a dimension")
    diff = a[:, None, :] - b[None, :, :]
    dists = np.sqrt(np.sum(diff * diff, axis=-1))
    return dists.min(axis=1)


def mismatch_degree(p_d, p) -> float:
    """Sum over p_d of the distance to the nearest point of p."""
    return math.fsum(nearest_distances(p_d, p))


def shifted_dataset(p: ToyDataset, shift: float) -> ToyDataset:
    """Distillation dataset whose mismatch degree against p is exactly
    `shift`: the lowest support point moves away from the rest by
    `shift` along the first coordinate."""
    support = p.support.copy()
    i = int(np.argmin(support[:, 0]))
    support[i, 0] -= shift
    return ToyDataset(support)


def useless_frequency(teacher: VelocityModel, store: TrajectoryStore, p_d: ToyDataset,
                      t_samples: int, epsilon: float, mode: str,
                      seed: int = 0, teacher_support=None) -> float:
    """Fraction of forward-diffused points that miss the teacher's
    denoising trajectories.

    Points are x_t = (1-t) x0 + t x1 with x0 from p_d, x1 standard
    normal, and t drawn from the store's grid. In "trajectory-proximity"
    mode a point is useless when no stored state at the same timestep
    lies within epsilon. In "endpoint" mode it is useless when teacher-
    denoising it to t=0 lands farther than epsilon from every point of
    `teacher_support` (the teacher's own training support).
    """
    if t_samples < 1:
        raise ValueError(f"t_samples must be positive, got {t_samples}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if mode not in ("trajectory-proximity", "endpoint"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "trajectory-proximity" and store.N == 0:
        raise ValueError("trajectory-proximity mode needs a non-empty store")
    if mode == "endpoint":
        if teacher_support is None:
            raise ValueError("endpoint mode needs the teacher's training support")
        teacher_support = _support_of(teacher_support)

    grid = store.grid
    rng = np.random.default_rng(seed)
    x0 = p_d.sample(t_samples, rng)
    x1 = rng.standard_normal((t_samples, p_d.d))
    j_idx = rng.integers(0, grid.n + 1, size=t_samples)
    xt = interpolate(x0, x1, grid.times[j_idx])

    useless = np.zeros(t_samples, dtype=bool)
    for j in np.unique(j_idx):
        mask = j_idx == j
        if mode == "trajectory-proximity":
            near = nearest_distances(xt[mask], store.states[:, j, :])
        else:
            # teacher-denoise from grid time t_j down to t_0 = 0
            endpoints = integrate(teacher, xt[mask], grid.times[j::-1])[-1]
            near = nearest_distances(endpoints, teacher_support)
        useless[mask] = near > epsilon
    return float(np.mean(useless))


@dataclass(frozen=True)
class KDConfig:
    """Settings for the window-based knowledge-distillation baseline."""

    windows: int = 5  # the student samples with this many uniform Euler steps
    iterations: int = 4000
    batch_size: int = 256
    lr: float = 1e-3
    pool_size: int = 16384
    seed: int = 0

    def validate(self):
        check_numbers(KDConfig, vars(self), "kd.", zero_ok=("seed",))


def kd_baseline_distill(teacher: VelocityModel, p_d: ToyDataset, config: KDConfig,
                        grid: TimeGrid | None = None):
    """Train a student to mimic the teacher across denoising windows.

    Training inputs are forward-diffused from p_d at grid times inside
    each window (so they inherit any dataset mismatch); the regression
    target at each input is the average velocity of the teacher's
    multi-step denoising from there to the window end. The student
    trains from scratch on this pool alone: wherever mismatched inputs
    leave the state space uncovered, its field is unconstrained, which
    is exactly the failure this baseline diagnoses. Sampling from the
    result takes `config.windows` uniform Euler steps.
    """
    config.validate()
    grid = grid or TimeGrid.uniform(50)
    windows = config.windows
    if grid.n % windows != 0:
        raise ConfigError(f"windows={windows} must divide the grid size n={grid.n}")
    span = grid.n // windows
    rng = np.random.default_rng(derive_seed(config.seed, "kd-pool"))

    # fixed pool of (state, time, target velocity) triples; the teacher
    # rollouts are the expensive part, so they are precomputed
    per_start = max(1, config.pool_size // grid.n)
    xs, ts, vs = [], [], []
    for w in range(windows):
        j_hi = grid.n - w * span
        j_lo = j_hi - span
        t_lo = grid.times[j_lo]
        for j in range(j_hi, j_lo, -1):
            t_start = grid.times[j]
            x0 = p_d.sample(per_start, rng)
            x1 = rng.standard_normal((per_start, p_d.d))
            x_start = interpolate(x0, x1, t_start)
            x_end = integrate(teacher, x_start, grid.times[j_lo:j + 1][::-1])[-1]
            xs.append(x_start)
            ts.append(np.full(per_start, t_start))
            vs.append((x_end - x_start) / (t_lo - t_start))
    pool_x = np.concatenate(xs)
    pool_t = np.concatenate(ts)
    pool_v = np.concatenate(vs)

    student = build_velocity_model(teacher.d, teacher.H, teacher.R,
                                   derive_seed(config.seed, "kd-init"))
    params = student.params
    opt, grads = init_optimizer(params, config.lr), zeros_like(params)
    rng_train = np.random.default_rng(derive_seed(config.seed, "kd-batches"))
    losses = np.empty(config.iterations)
    for i in range(config.iterations):
        idx = rng_train.integers(0, pool_x.shape[0], size=config.batch_size)
        try:
            loss, grads = velocity_mse(params, pool_x[idx], pool_t[idx], pool_v[idx],
                                       student.R, grads)
        except NumericsError as e:
            raise NumericsError(f"KD training diverged at iteration {i}: {e}") from e
        params, opt = optimizer_step(params, grads, opt)
        losses[i] = loss
    return student.with_params(params), losses


def w1_distance(samples_a, samples_b) -> float:
    """Empirical 1-Wasserstein distance between two 1-D samples.

    Equal sizes: mean absolute difference of sorted pairs. Unequal
    sizes: exact integral of |Qa - Qb| over the merged quantile
    breakpoints, walked with integer numerators so the segmentation is
    exact.
    """
    a = np.sort(np.asarray(samples_a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(samples_b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    na, nb = a.size, b.size
    if na == nb:
        return float(np.mean(np.abs(a - b)))
    total = 0.0
    prev = 0  # position in units of 1/(na*nb)
    ia = ib = 0
    while ia < na and ib < nb:
        next_a = (ia + 1) * nb
        next_b = (ib + 1) * na
        nxt = min(next_a, next_b)
        total += (nxt - prev) * abs(a[ia] - b[ib])
        if next_a == nxt:
            ia += 1
        if next_b == nxt:
            ib += 1
        prev = nxt
    return float(total / (na * nb))


def endpoint_error(samples, support) -> float:
    """Mean distance from each sample to its nearest support point."""
    near = nearest_distances(samples, support)
    return math.fsum(near) / near.size


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation row: how far a run's samples sit from their
    reference distribution and support."""

    label: str
    w1: float
    endpoint_error: float
    useless_frequency: float
    seed: int

    def __post_init__(self):
        if min(self.w1, self.endpoint_error, self.useless_frequency) < 0:
            raise ValueError("metrics must be non-negative")


def mismatch_sweep(teacher: VelocityModel, store: TrajectoryStore, p: ToyDataset,
                   m_values, seeds, epsilon: float, mode: str, t_samples: int,
                   kd_config: KDConfig,
                   distill_config: DistillConfig, sample_count: int = 4096):
    """Rows for the mismatch sweep CSV (SWEEP_COLUMNS order).

    The KD baseline is retrained per (M, seed) because its training
    inputs depend on the shifted dataset. Trajectory distillation never
    touches p_d, so one run per seed is shared across every M.
    """
    distill_w1 = {}
    for seed in seeds:
        run_cfg = dataclasses.replace(distill_config,
                                      seed=derive_seed(seed, "sweep-distill"))
        student = distill(teacher, store, run_cfg).student
        rng = np.random.default_rng(derive_seed(seed, "sweep-eval"))
        Z = rng.standard_normal((sample_count, teacher.d))
        s_samples = denoise_batch(student, Z, TimeGrid.uniform(distill_config.m))[0]
        teacher_s = denoise_batch(teacher, Z, store.grid)[0]
        distill_w1[seed] = w1_distance(s_samples[:, 0], teacher_s[:, 0])

    rows = []
    for M in m_values:
        p_d = shifted_dataset(p, M)
        actual = mismatch_degree(p_d, p)
        for seed in seeds:
            freq = useless_frequency(
                teacher, store, p_d, t_samples, epsilon, mode,
                seed=derive_seed(seed, f"sweep-useless-{M}"),
                teacher_support=p if mode == "endpoint" else None,
            )
            kd_cfg = dataclasses.replace(kd_config,
                                         seed=derive_seed(seed, f"sweep-kd-{M}"))
            kd_student, _ = kd_baseline_distill(teacher, p_d, kd_cfg, grid=store.grid)
            rng = np.random.default_rng(derive_seed(seed, f"sweep-kd-eval-{M}"))
            Z = rng.standard_normal((sample_count, teacher.d))
            kd_samples = denoise_batch(kd_student, Z, TimeGrid.uniform(kd_config.windows))[0]
            kd_w1 = w1_distance(kd_samples[:, 0], p.support[:, 0])
            err = endpoint_error(kd_samples, p.support)
            rows.append((actual, seed, freq, kd_w1, distill_w1[seed], err))
    return rows
