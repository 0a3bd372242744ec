"""Synthetic trajectory dataset: generate, validate, persist, and query
full teacher denoising paths.

A store is columnar: one (N, n+1, d) float64 array holds every path,
states[i, j] being path i's latent at grid.times[j] (so states[:, n] is
the noise each path starts from and states[:, 0] its clean endpoint),
and one (N,) int64 array holds the seed of each path's noise draw.
The grid, the generating seed and the teacher fingerprint are shared by
all paths and held once.

The on-disk format (version 2) is JSON Lines: a header object holding
version, N, n, d, teacher_fingerprint, seed and grid, then one record
{"index":i,"noise_seed":s,"states":"<base64>"} per path, the string
being the standard padded base64 of its (n+1)·d little-endian float64
states. Save then load is bit-exact, and the bytes are a pure function
of (teacher, N, grid, seed). Version 1 (decimal states) is not read:
re-running `synth` rebuilds the same store.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, StoreFormatError, StoreIntegrityError
from .flow import TimeGrid, denoise_batch
from .nn import VelocityModel, eval_velocity, require_fields
from .seeds import derive_seed

STORE_VERSION = 2
RECURRENCE_TOL = 1e-9
# rows per model evaluation when generating or re-checking paths, so the
# memory beyond the states does not grow with N
ROW_BLOCK = 1024
# the shortest record, but for its base64 states
_MIN_RECORD = len('{"index":0,"noise_seed":0,"states":""}')


def noise_from_seed(noise_seed: int, d: int) -> np.ndarray:
    """The standard-normal draw a trajectory starts from, reproducible
    from its recorded seed."""
    return np.random.default_rng(noise_seed).standard_normal(d)


def seeded_noise(noise_seeds, d: int) -> np.ndarray:
    """The (N, d) noise draws of paths with the (N,) seeds `noise_seeds`."""
    return np.fromiter((noise_from_seed(s, d) for s in np.asarray(noise_seeds).tolist()),
                       dtype=(np.float64, (d,)), count=len(noise_seeds))


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

    def fingerprint(self) -> str:
        """SHA-256 over seed, teacher, grid, shape, noise seeds and states."""
        h = hashlib.sha256()
        h.update(json.dumps([self.seed, self.teacher_fingerprint, self.grid.times.tolist(),
                             list(self.states.shape)]).encode())
        h.update(np.ascontiguousarray(self.noise_seeds, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.states, dtype="<f8").tobytes())
        return h.hexdigest()


def generate_store(teacher: VelocityModel, N: int, grid: TimeGrid, seed: int) -> TrajectoryStore:
    """Denoise N seeded noise draws into a store, ROW_BLOCK paths at a time.

    Per-trajectory noise seeds are derived from (seed, index), so any
    single trajectory's noise draw can be regenerated without the
    others. Denoising that draw alone reproduces the stored path only to
    within RECURRENCE_TOL, not bit for bit: a one-row model evaluation
    rounds differently from the many-row batch that built the store.
    """
    if N < 1:
        raise ConfigError(f"store size must be positive, got {N}")
    noise_seeds = np.array([derive_seed(seed, f"trajectory-{i}") for i in range(N)],
                           dtype=np.int64)
    states = np.empty((N, grid.n + 1, teacher.d))
    for lo in range(0, N, ROW_BLOCK):
        X1 = seeded_noise(noise_seeds[lo:lo + ROW_BLOCK], teacher.d)
        states[lo:lo + ROW_BLOCK] = denoise_batch(teacher, X1, grid).swapaxes(0, 1)
    return TrajectoryStore(grid, seed, teacher.fingerprint(), states, noise_seeds)


def save_store(store: TrajectoryStore, path):
    header = {"version": STORE_VERSION, "N": store.N, "n": store.grid.n, "d": store.d,
              "teacher_fingerprint": store.teacher_fingerprint, "seed": store.seed,
              "grid": store.grid.times.tolist()}
    rows = np.ascontiguousarray(store.states, dtype="<f8")
    with atomic_open(path) as f:
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i, (noise_seed, row) in enumerate(zip(store.noise_seeds.tolist(), rows)):
            record = {"index": i, "noise_seed": noise_seed,
                      "states": base64.b64encode(row.tobytes()).decode("ascii")}
            f.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_store(path, teacher: VelocityModel | None = None) -> TrajectoryStore:
    """Read a store back from its file, one line at a time.

    Validation is opt-in: when `teacher` is given, the fingerprint must
    match and every trajectory must satisfy the Euler recurrence against
    it to within RECURRENCE_TOL per coordinate.
    """

    def parse(line_no, text, fields):
        try:
            obj = json.loads(text)
        except ValueError as e:  # not JSON, or not UTF-8
            raise StoreFormatError(f"{path}: line {line_no}: {e}") from e
        return require_fields(obj, fields, f"{path}: line {line_no}")

    with open(path, "rb") as f:
        first = f.readline()
        if not first:
            raise StoreFormatError(f"{path}: empty store file")
        header = parse(1, first, ("version", "N", "n", "d", "teacher_fingerprint", "seed",
                                  "grid"))
        if header["version"] != STORE_VERSION:
            raise StoreFormatError(f"{path}: line 1: version {header['version']!r} is not "
                                   f"{STORE_VERSION}; re-run synth to rebuild the store")
        try:
            grid = TimeGrid(np.asarray(header["grid"], dtype=np.float64))
        except (TypeError, ValueError, ConfigError) as e:
            raise StoreFormatError(f"{path}: line 1: grid is not a time grid ({e})") from e
        if grid.n != header["n"]:
            raise StoreFormatError(f"{path}: line 1: grid length disagrees with n")
        N, d = header["N"], header["d"]
        for key, valid in (
                ("seed", type(header["seed"]) is int),
                ("N", type(N) is int and N >= 1), ("d", type(d) is int and d >= 1),
                ("teacher_fingerprint", isinstance(header["teacher_fingerprint"], str))):
            if not valid:
                raise StoreFormatError(f"{path}: line 1: {key} {header[key]!r} is not valid")
        row_bytes = (grid.n + 1) * d * 8
        min_size = N * (_MIN_RECORD + 4 * -(-row_bytes // 3))
        if min_size > (size := os.fstat(f.fileno()).st_size - len(first)):
            raise StoreFormatError(f"{path}: line 1: N={N} records need at least {min_size} "
                                   f"bytes, the file has {size} after the header")
        states = np.empty((N, grid.n + 1, d))
        noise_seeds = np.empty(N, dtype=np.int64)
        i = -1
        for i, line in enumerate(f):
            if i >= N:
                continue  # only counted, for the message below
            where = f"{path}: line {i + 2}"
            record = parse(i + 2, line, ("index", "noise_seed", "states"))
            if record["index"] != i:
                raise StoreFormatError(f"{where}: record out of order")
            noise_seed = record["noise_seed"]
            if type(noise_seed) is not int or not 0 <= noise_seed < 2**63:
                raise StoreFormatError(f"{where}: noise_seed {noise_seed!r} is not a seed")
            try:
                raw = base64.b64decode(record["states"], validate=True)
            except (TypeError, ValueError) as e:  # not a string, or not strict base64
                raise StoreFormatError(f"{where}: states are not base64 ({e})") from e
            if len(raw) != row_bytes:
                raise StoreFormatError(f"{where}: states hold {len(raw)} bytes, expected "
                                       f"{row_bytes}")
            states[i] = np.frombuffer(raw, dtype="<f8").reshape(grid.n + 1, d)
            noise_seeds[i] = noise_seed
    if i + 1 != N:
        raise StoreFormatError(f"{path}: line {i + 2}: expected {N} trajectory records, "
                               f"found {i + 1}")
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
    for lo in range(0, states.shape[0], ROW_BLOCK):
        block = states[lo:lo + ROW_BLOCK]
        block_worst = worst[lo:lo + ROW_BLOCK]
        for j in range(grid.n, 0, -1):
            v = eval_velocity(model, block[:, j], times[j])
            residual = block[:, j - 1] - block[:, j] - (times[j - 1] - times[j]) * v
            np.maximum(block_worst, np.max(np.abs(residual), axis=1), out=block_worst)
    return worst


def check_teacher(store: TrajectoryStore, teacher: VelocityModel):
    """Refuse a store whose recorded generator is not `teacher`: a
    fingerprint comparison, without re-checking the recurrence."""
    if teacher.fingerprint() != store.teacher_fingerprint:
        raise StoreIntegrityError(
            "store was generated by a different teacher "
            f"(fingerprint {store.teacher_fingerprint[:12]}… on file)"
        )


def validate_store(store: TrajectoryStore, teacher: VelocityModel):
    """Integrity check of a store against its claimed generator."""
    check_teacher(store, teacher)
    errors = recurrence_errors(teacher, store.grid, store.states)
    bad = np.flatnonzero(~(errors <= RECURRENCE_TOL))
    if bad.size:
        i = int(bad[0])
        raise StoreIntegrityError(
            f"trajectory {i} violates the Euler recurrence (max error {errors[i]:.3e})"
        )
    moved = np.any(store.states[:, -1] != seeded_noise(store.noise_seeds, store.d), axis=1)
    if moved.any():
        raise StoreIntegrityError(f"trajectory {int(np.argmax(moved))} does not start "
                                  "from its seeded noise draw")


def key_points(x, key_grid: TimeGrid) -> np.ndarray:
    """The (N, m+1, d) states of a TrajectoryStore at the times of
    `key_grid`, in grid order: [:, k] holds the latents at
    key_grid.times[k]. A key time off the store's grid is a ConfigError."""
    rows = [x.grid.index_of(t) for t in key_grid.times]
    return x.states[:, rows]
