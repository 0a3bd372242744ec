"""Diagnostics for dataset/noise mismatch: the mismatch degree, the
frequency of useless forward-diffused points, a window-based knowledge-
distillation baseline that consumes them, the metrics (1-Wasserstein
distance, endpoint error) and `score_model`, which samples and scores a model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distill import distill
from .errors import ConfigError, NumericsError, check_numbers
from .flow import TimeGrid, ToyDataset, denoise_batch, fit_velocity, integrate, interpolate
# optimizer_step is not called here: perfbench's tracer test reads the binding
from .nn import VelocityModel, build_velocity_model, optimizer_step  # noqa: F401
from .seeds import derive_seed
from .trajstore import TrajectoryStore

SWEEP_COLUMNS = ("M", "seed", "useless_frequency", "kd_w1", "traj_distill_w1",
                 "endpoint_error")


def _support_of(points) -> np.ndarray:
    return (points if isinstance(points, ToyDataset) else ToyDataset(points)).support


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


def useless_frequency(store: TrajectoryStore, p_d: ToyDataset, t_samples: int,
                      epsilon: float, seed: int = 0) -> float:
    """Fraction of the points x_t = (1-t) x0 + t x1, x0 from p_d, x1 standard
    normal and t from the store's grid, that miss the teacher's denoising
    trajectories: no stored state at the same timestep lies within epsilon."""
    if t_samples < 1:
        raise ValueError(f"t_samples must be positive, got {t_samples}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if store.N == 0:
        raise ValueError("the useless frequency needs a non-empty store")

    grid = store.grid
    rng = np.random.default_rng(seed)
    x0 = p_d.sample(t_samples, rng)
    x1 = rng.standard_normal((t_samples, p_d.d))
    j_idx = rng.integers(0, grid.n + 1, size=t_samples)
    xt = interpolate(x0, x1, grid.times[j_idx])

    useless = np.zeros(t_samples, dtype=bool)
    for j in np.unique(j_idx):
        mask = j_idx == j
        useless[mask] = nearest_distances(xt[mask], store.states[:, j, :]) > epsilon
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
                        grid: TimeGrid):
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
            x_end = integrate(teacher, x_start, grid, j, j_lo)[-1]
            xs.append(x_start)
            ts.append(np.full(per_start, t_start))
            vs.append((x_end - x_start) / (t_lo - t_start))
    pool_x, pool_t, pool_v = map(np.concatenate, (xs, ts, vs))

    student = build_velocity_model(teacher.d, teacher.H, teacher.R,
                                   derive_seed(config.seed, "kd-init"))
    rng_train = np.random.default_rng(derive_seed(config.seed, "kd-batches"))

    def batch():
        idx = rng_train.integers(0, pool_x.shape[0], size=config.batch_size)
        return pool_x[idx], pool_t[idx], pool_v[idx]

    return fit_velocity(student, batch, config.iterations, config.lr, "KD training")


def w1_distance(samples_a, samples_b) -> float:
    """Empirical 1-Wasserstein distance between two sample sets, each
    1-D or (B, d); a (B, d) set is compared on its first coordinate.

    Equal sizes: mean absolute difference of sorted pairs. Unequal
    sizes: exact integral of |Qa - Qb| over the merged quantile
    breakpoints, in integer units of 1/(na*nb) so the segmentation is
    exact, summed segment by segment in quantile order.
    """
    a, b = (np.asarray(s, dtype=np.float64) for s in (samples_a, samples_b))
    a, b = (np.sort(x[:, 0] if x.ndim == 2 else x.ravel()) for x in (a, b))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be non-empty")
    na, nb = a.size, b.size
    if na == nb:
        return float(np.mean(np.abs(a - b)))
    ends = np.union1d(np.arange(1, na + 1) * nb, np.arange(1, nb + 1) * na)
    starts = np.concatenate(([0], ends[:-1]))
    terms = (ends - starts) * np.abs(a[starts // nb] - b[starts // na])
    return float(np.cumsum(terms)[-1] / (na * nb))


def endpoint_error(samples, support) -> float:
    """Mean distance from each sample to its nearest support point."""
    near = nearest_distances(samples, support)
    return math.fsum(near) / near.size


@dataclass(frozen=True, eq=False)
class ModelScore:
    """A model's (B, d) samples, their W1 and its NFE (model evaluations)."""

    samples: np.ndarray
    w1: float
    nfe: int


def score_model(model: VelocityModel, Z, grid: TimeGrid, reference) -> ModelScore:
    """Sample `model` from the (B, d) noise Z on `grid` and score it against `reference`."""
    before = model.eval_count
    samples = denoise_batch(model, Z, grid)[0]
    return ModelScore(samples, w1_distance(samples, reference), model.eval_count - before)


def mismatch_sweep(teacher: VelocityModel, store: TrajectoryStore, cfg):
    """Rows for the mismatch sweep CSV (SWEEP_COLUMNS order) of the run
    config `cfg`: one per M of `analysis.m_sweep` and seed label of
    `analysis.seeds`, each label's seed derived from the root seed.

    The KD baseline is retrained per (M, seed) because its training
    inputs depend on the shifted dataset. Trajectory distillation never
    touches p_d, so one run per seed is shared across every M.
    """
    a, p = cfg.analysis, cfg.data
    seeds = [(label, derive_seed(cfg.seed, f"analysis-{label}")) for label in a["seeds"]]

    def noise(seed):
        return np.random.default_rng(seed).standard_normal((a["sample_count"], teacher.d))

    distill_w1 = {}
    for label, seed in seeds:
        run_cfg = dataclasses.replace(cfg.distill, seed=derive_seed(seed, "sweep-distill"))
        student = distill(teacher, store, run_cfg).student
        Z = noise(derive_seed(seed, "sweep-eval"))
        distill_w1[label] = score_model(student, Z, TimeGrid.uniform(run_cfg.m),
                                        denoise_batch(teacher, Z, store.grid)[0]).w1

    rows = []
    for M in a["m_sweep"]:
        p_d = shifted_dataset(p, M)
        actual = mismatch_degree(p_d, p)
        for label, seed in seeds:
            freq = useless_frequency(store, p_d, a["t_samples"], a["epsilon"],
                                     seed=derive_seed(seed, f"sweep-useless-{M}"))
            kd_cfg = dataclasses.replace(cfg.kd, seed=derive_seed(seed, f"sweep-kd-{M}"))
            try:
                kd_student, _ = kd_baseline_distill(teacher, p_d, kd_cfg, grid=store.grid)
            except NumericsError as e:
                raise NumericsError(
                    f"analysis.m_sweep value {M} is too large to train on: {e}") from e
            kd = score_model(kd_student, noise(derive_seed(seed, f"sweep-kd-eval-{M}")),
                             TimeGrid.uniform(kd_cfg.windows), p.support)
            rows.append((actual, label, freq, kd.w1, distill_w1[label],
                         endpoint_error(kd.samples, p.support)))
    return rows
