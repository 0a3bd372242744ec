"""Synthetic trajectory dataset: generate, validate, persist, and query
full teacher denoising paths.

A store is columnar: one (N, n+1, d) float64 array holds every path,
states[i, j] being path i's latent at grid.times[j] (so states[:, n] is
the noise each path starts from and states[:, 0] its clean endpoint),
and one (N,) int64 array holds the seed of each path's noise draw.
The grid, the generating seed and the teacher fingerprint are shared by
all paths and held once.

The on-disk format is JSON Lines: one header object, then one record
per trajectory. All reals are serialized with round-trip precision, so
save followed by load is bit-exact and the store bytes are a pure
function of (teacher, N, grid, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, StoreFormatError, StoreIntegrityError
from .flow import TimeGrid, denoise_batch
from .nn import VelocityModel, eval_velocity, require_fields
from .seeds import derive_seed

RECURRENCE_TOL = 1e-9
# rows per model evaluation when re-checking the recurrence, so the
# memory a validation needs does not grow with N
VALIDATION_BLOCK = 1024


def noise_from_seed(noise_seed: int, d: int) -> np.ndarray:
    """The standard-normal draw a trajectory starts from, reproducible
    from its recorded seed."""
    return np.random.default_rng(noise_seed).standard_normal(d)


@dataclass
class TrajectoryStore:
    """N denoising paths of one teacher on one grid, held column-wise:
    states is (N, n+1, d) and noise_seeds (N,)."""

    grid: TimeGrid
    seed: int
    teacher_fingerprint: str
    states: np.ndarray
    noise_seeds: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.noise_seeds = np.asarray(self.noise_seeds, dtype=np.int64)
        if self.states.ndim != 3 or self.states.shape[1] != self.grid.n + 1:
            raise ValueError(
                f"store states must be (N, {self.grid.n + 1}, d), got {self.states.shape}"
            )
        if self.noise_seeds.shape != self.states.shape[:1]:
            raise ValueError("store needs one noise seed per trajectory")

    @property
    def N(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    def states_array(self) -> np.ndarray:
        """All states as (N, n+1, d); the store's own array, not a copy."""
        return self.states

    def equal(self, other: "TrajectoryStore") -> bool:
        return (
            self.seed == other.seed
            and self.teacher_fingerprint == other.teacher_fingerprint
            and np.array_equal(self.grid.times, other.grid.times)
            and np.array_equal(self.noise_seeds, other.noise_seeds)
            and np.array_equal(self.states, other.states)
        )


def generate_store(teacher: VelocityModel, N: int, grid: TimeGrid, seed: int) -> TrajectoryStore:
    """Denoise N independent seeded noise draws into a store.

    Per-trajectory noise seeds are derived from (seed, index), so any
    single trajectory's noise draw can be regenerated without the
    others. Denoising that draw alone reproduces the stored path only to
    within RECURRENCE_TOL, not bit for bit: a one-row model evaluation
    rounds differently from the N-row batch that built the store.
    """
    if N < 1:
        raise ConfigError(f"store size must be positive, got {N}")
    noise_seeds = [derive_seed(seed, f"trajectory-{i}") for i in range(N)]
    X1 = np.stack([noise_from_seed(s, teacher.d) for s in noise_seeds])
    states = denoise_batch(teacher, X1, grid).swapaxes(0, 1)
    return TrajectoryStore(grid, seed, teacher.fingerprint(), states, noise_seeds)


def save_store(store: TrajectoryStore, path):
    header = {
        "version": 1,
        "N": store.N,
        "n": store.grid.n,
        "d": store.d,
        "teacher_fingerprint": store.teacher_fingerprint,
        "seed": store.seed,
        "grid": store.grid.times.tolist(),
    }
    with atomic_open(path) as f:
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i, (noise_seed, states) in enumerate(zip(store.noise_seeds, store.states)):
            record = {
                "index": i,
                "noise_seed": int(noise_seed),
                "states": states.tolist(),
            }
            f.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_store(path, teacher: VelocityModel | None = None) -> TrajectoryStore:
    """Read a store back from JSONL.

    Validation is opt-in: when `teacher` is given, the fingerprint must
    match and every trajectory must satisfy the Euler recurrence against
    it to within RECURRENCE_TOL per coordinate.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise StoreFormatError(f"{path}: empty store file")

    def parse(line_no, text, fields):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise StoreFormatError(f"{path}: line {line_no}: {e}") from e
        return require_fields(obj, fields, f"{path}: line {line_no}")

    header = parse(1, lines[0], ("version", "N", "n", "d", "teacher_fingerprint", "seed",
                                 "grid"))
    try:
        grid = TimeGrid(np.asarray(header["grid"], dtype=np.float64))
    except (TypeError, ValueError, ConfigError) as e:
        raise StoreFormatError(f"{path}: line 1: grid is not a time grid ({e})") from e
    if grid.n != header["n"]:
        raise StoreFormatError(f"{path}: line 1: grid length disagrees with n")
    N, d = header["N"], header["d"]
    if type(N) is not int or type(d) is not int or d < 1:
        raise StoreFormatError(f"{path}: line 1: N and d must be integers, d positive")
    if len(lines) - 1 != N:
        raise StoreFormatError(
            f"{path}: line {len(lines)}: expected {N} trajectory records, "
            f"found {len(lines) - 1}"
        )
    states = np.empty((N, grid.n + 1, d))
    noise_seeds = np.empty(N, dtype=np.int64)
    for i in range(N):
        where = f"{path}: line {i + 2}"
        record = parse(i + 2, lines[i + 1], ("index", "noise_seed", "states"))
        if record["index"] != i:
            raise StoreFormatError(f"{where}: record out of order")
        noise_seed = record["noise_seed"]
        if type(noise_seed) is not int or not 0 <= noise_seed < 2**63:
            raise StoreFormatError(f"{where}: noise_seed {noise_seed!r} is not a seed")
        try:
            row = np.asarray(record["states"])
        except ValueError as e:  # ragged nesting
            raise StoreFormatError(f"{where}: states are not an array: {e}") from e
        if row.dtype.kind not in "if":
            raise StoreFormatError(f"{where}: states are not all numbers")
        if row.shape != (grid.n + 1, d):
            raise StoreFormatError(
                f"{where}: states have shape {row.shape}, expected {(grid.n + 1, d)}"
            )
        states[i] = row
        noise_seeds[i] = noise_seed
    store = TrajectoryStore(grid, header["seed"], header["teacher_fingerprint"],
                            states, noise_seeds)
    if teacher is not None:
        validate_store(store, teacher)
    return store


def recurrence_errors(model: VelocityModel, grid: TimeGrid, states) -> np.ndarray:
    """Each path's largest per-coordinate deviation from the Euler
    recurrence when re-evaluating `model` on its stored states:
    (N, n+1, d) states on `grid` to (N,) maxima (NaN for a path with a
    non-finite state)."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 3 or states.shape[1] != grid.n + 1:
        raise ValueError(f"states must be (N, {grid.n + 1}, d), got {states.shape}")
    times = grid.times
    worst = np.zeros(states.shape[0])
    for lo in range(0, states.shape[0], VALIDATION_BLOCK):
        block = states[lo:lo + VALIDATION_BLOCK]
        block_worst = worst[lo:lo + VALIDATION_BLOCK]
        for j in range(grid.n, 0, -1):
            v = eval_velocity(model, block[:, j], times[j])
            residual = block[:, j - 1] - block[:, j] - (times[j - 1] - times[j]) * v
            np.maximum(block_worst, np.max(np.abs(residual), axis=1), out=block_worst)
    return worst


def validate_store(store: TrajectoryStore, teacher: VelocityModel):
    """Integrity check of a store against its claimed generator."""
    if teacher.fingerprint() != store.teacher_fingerprint:
        raise StoreIntegrityError(
            "store was generated by a different teacher "
            f"(fingerprint {store.teacher_fingerprint[:12]}… on file)"
        )
    errors = recurrence_errors(teacher, store.grid, store.states)
    bad = np.flatnonzero(~(errors <= RECURRENCE_TOL))
    if bad.size:
        i = int(bad[0])
        raise StoreIntegrityError(
            f"trajectory {i} violates the Euler recurrence (max error {errors[i]:.3e})"
        )
    for i, noise_seed in enumerate(store.noise_seeds):
        if not np.array_equal(store.states[i, -1], noise_from_seed(int(noise_seed), store.d)):
            raise StoreIntegrityError(
                f"trajectory {i} does not start from its seeded noise draw"
            )


def key_points(x, schedule) -> np.ndarray:
    """States at the key timesteps, ordered from t'_m = 1 down to t'_0 = 0
    (matching schedule.times): (N, m+1, d) for a TrajectoryStore."""
    rows = [x.grid.index_of(t) for t in schedule.times]
    return x.states[:, rows]
