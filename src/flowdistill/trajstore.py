"""Synthetic trajectory dataset: generate, validate, persist, and query
full teacher denoising paths.

A store is columnar: one (N, n+1, d) float64 array holds every path,
states[i, j] being path i's latent at grid.times[j] (so states[:, n] is
the noise each path starts from and states[:, 0] its clean endpoint).
The grid is the uniform grid of n steps, so the shape of the states
fixes it. The generating seed and the teacher fingerprint are shared by
all paths and held once; path i's noise is a function of the seed and
i alone (`path_noise`).

The on-disk format (version 3) is JSON Lines: a header object holding
version, N, n, d, teacher_fingerprint, seed and grid (which must be
the uniform grid of n steps, written out), then one JSON
string per path, the standard padded base64 of its (n+1)·d
little-endian float64 states, so every record line has the same
length. Save then load is bit-exact, and the bytes are a pure function
of (teacher, N, grid, seed). Versions 1 (decimal states) and 2 (records
with an index and a noise seed) are not read: re-running `synth`
rebuilds the same store.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from typing import TypedDict

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, StoreFormatError, StoreIntegrityError
from .flow import TimeGrid, denoise_batch
from .nn import VelocityModel, b64decode_exact, eval_velocity, from_payload, require_fields
from .seeds import derive_seed

STORE_VERSION = 3
RECURRENCE_TOL = 1e-9
# rows per model evaluation when generating or re-checking paths, so the
# memory beyond the states does not grow with N
ROW_BLOCK = 1024

_Header = TypedDict("_Header", {"version": int, "N": int, "n": int, "d": int,
                                "teacher_fingerprint": str, "seed": int, "grid": list[float]})


def _path_seeds(seed: int, paths: range) -> list[int]:
    return [derive_seed(seed, f"trajectory-{i}") for i in paths]


def path_noise(seed: int, paths: range, d: int) -> np.ndarray:
    """The (len(paths), d) standard-normal draws that paths `paths` of
    the store with seed `seed` start from, path i's from its own
    generator, so any one path's draw is reproducible without the others."""
    return np.fromiter((np.random.default_rng(s).standard_normal(d)
                        for s in _path_seeds(seed, paths)),
                       dtype=(np.float64, (d,)), count=len(paths))


@dataclass
class TrajectoryStore:
    """N denoising paths of one teacher on the uniform grid of n steps,
    held column-wise: states is (N, n+1, d)."""

    seed: int
    teacher_fingerprint: str
    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.states.ndim != 3 or self.states.shape[1] < 2:
            raise ValueError(f"store states must be (N, n+1, d) with n >= 1, "
                             f"got {self.states.shape}")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.states.shape[1] - 1)

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
            and np.array_equal(self.states, other.states)
        )

    def fingerprint(self) -> str:
        """SHA-256 over seed, teacher, grid, shape, the paths' noise seeds
        and states."""
        h = hashlib.sha256()
        h.update(json.dumps([self.seed, self.teacher_fingerprint, self.grid.times.tolist(),
                             list(self.states.shape)]).encode())
        h.update(np.array(_path_seeds(self.seed, range(self.N)), dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(self.states, dtype="<f8").tobytes())
        return h.hexdigest()


def generate_store(teacher: VelocityModel, N: int, grid: TimeGrid, seed: int) -> TrajectoryStore:
    """Denoise the N noise draws of `path_noise(seed, range(N), d)` into a
    store, ROW_BLOCK paths at a time.

    Denoising one path's draw alone reproduces its stored path only to
    within RECURRENCE_TOL, not bit for bit: a one-row model evaluation
    rounds differently from the many-row batch that built the store.
    """
    if N < 1:
        raise ConfigError(f"store size must be positive, got {N}")
    states = np.empty((N, grid.n + 1, teacher.d))
    for lo in range(0, N, ROW_BLOCK):
        X1 = path_noise(seed, range(lo, min(lo + ROW_BLOCK, N)), teacher.d)
        states[lo:lo + ROW_BLOCK] = denoise_batch(teacher, X1, grid).swapaxes(0, 1)
    return TrajectoryStore(seed, teacher.fingerprint(), states)


def save_store(store: TrajectoryStore, path):
    header = {"version": STORE_VERSION, "N": store.N, "n": store.grid.n, "d": store.d,
              "teacher_fingerprint": store.teacher_fingerprint, "seed": store.seed,
              "grid": store.grid.times.tolist()}
    rows = np.ascontiguousarray(store.states, dtype="<f8")
    with atomic_open(path) as f:
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for row in rows:
            f.write('"' + base64.b64encode(row.tobytes()).decode("ascii") + '"\n')


def load_store(path, teacher: VelocityModel | None = None) -> TrajectoryStore:
    """Read a store back from its file, one line at a time; every state must be finite.

    Validation is opt-in: when `teacher` is given, the fingerprint must
    match, every trajectory must satisfy the Euler recurrence against it
    to within RECURRENCE_TOL per coordinate, and start from its noise
    draw under the header seed.
    """
    with open(path, "rb") as f:
        first = f.readline()
        if not first:
            raise StoreFormatError(f"{path}: empty store file")
        where = f"{path}: line 1"
        try:
            header = json.loads(first)
        except ValueError as e:  # not JSON, or not UTF-8
            raise StoreFormatError(f"{where}: {e}") from e
        if require_fields(header, ("version",), where)["version"] != STORE_VERSION:
            raise StoreFormatError(f"{where}: version {header['version']!r} is not "
                                   f"{STORE_VERSION}; re-run synth to rebuild the store")
        header = from_payload(_Header, header, where)
        N, n, d = header["N"], header["n"], header["d"]
        if N < 1 or n < 1 or d < 1:
            raise StoreFormatError(f"{where}: N, n and d must be positive")
        # the length first, so a huge n is refused before its grid is built
        if (len(header["grid"]) != n + 1
                or header["grid"] != TimeGrid.uniform(n).times.tolist()):
            raise StoreFormatError(f"{where}: grid is not the uniform grid of n={n} steps")
        row_bytes = (n + 1) * d * 8
        record = 4 * -(-row_bytes // 3) + 3  # '"', the base64 of a row, '"\n'
        size = os.fstat(f.fileno()).st_size - len(first)
        # a file of the wrong size is only scanned for the line to name
        states = np.empty((N, n + 1, d)) if size == N * record else None
        count = 0
        for count, line in enumerate(f, start=1):
            where = f"{path}: line {count + 1}"
            if len(line) != record:
                raise StoreFormatError(f"{where}: record is {len(line)} bytes, expected "
                                       f"{record}")
            if states is None:
                continue
            try:
                if line[:1] != b'"' or line[-2:] != b'"\n':
                    raise ValueError("not a JSON string")
                raw = b64decode_exact(line[1:-2])
                states[count - 1] = np.frombuffer(raw, dtype="<f8").reshape(n + 1, d)
            except ValueError as e:  # not a string, not canonical base64, or not a row
                raise StoreFormatError(f"{where}: record is not the base64 of {row_bytes} "
                                       f"bytes ({e})") from e
    if states is None:  # every line is a record's length, so the count is wrong
        raise StoreFormatError(f"{path}: line {N + 2 if count > N else 1}: expected {N} "
                               f"trajectory records, found {count} ({N * record} bytes "
                               f"expected after the header, {size} found)")
    finite = np.isfinite(states).all(axis=(1, 2))
    if not finite.all():
        i = int(np.argmin(finite))
        raise StoreFormatError(f"{path}: line {i + 2}: trajectory {i} holds a non-finite state")
    store = TrajectoryStore(header["seed"], header["teacher_fingerprint"], states)
    if teacher is not None:
        validate_store(store, teacher)
    return store


def recurrence_errors(model: VelocityModel, states) -> np.ndarray:
    """Each path's largest per-coordinate deviation from the Euler
    recurrence when re-evaluating `model` on its stored states:
    (N, n+1, d) states on the uniform grid of n steps to (N,) maxima
    (NaN for a path with a non-finite state)."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 3:
        raise ValueError(f"states must be (N, n+1, d), got shape {states.shape}")
    n = states.shape[1] - 1
    times = TimeGrid.uniform(n).times
    worst = np.zeros(states.shape[0])
    for lo in range(0, states.shape[0], ROW_BLOCK):
        block = states[lo:lo + ROW_BLOCK]
        block_worst = worst[lo:lo + ROW_BLOCK]
        for j in range(n, 0, -1):
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
    """Integrity check of a store against its claimed generator and seed."""
    check_teacher(store, teacher)
    errors = recurrence_errors(teacher, store.states)
    bad = np.flatnonzero(~(errors <= RECURRENCE_TOL))
    if bad.size:
        i = int(bad[0])
        raise StoreIntegrityError(
            f"trajectory {i} violates the Euler recurrence (max error {errors[i]:.3e})"
        )
    moved = np.any(store.states[:, -1] != path_noise(store.seed, range(store.N), store.d),
                   axis=1)
    if moved.any():
        raise StoreIntegrityError(f"trajectory {int(np.argmax(moved))} does not start "
                                  "from its seeded noise draw")


def key_points(x, key_grid: TimeGrid) -> np.ndarray:
    """The (N, m+1, d) states of a TrajectoryStore at the times of
    `key_grid`, in grid order: [:, k] holds the latents at
    key_grid.times[k], store step k·n/m. A view of the store's states;
    an m that does not divide the store's n is a ConfigError."""
    n, m = x.grid.n, key_grid.n
    if n % m:
        raise ConfigError(f"store has n={n}, which m={m} does not divide")
    return x.states[:, ::n // m]
