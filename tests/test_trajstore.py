import base64
import json

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.errors import ConfigError, StoreFormatError, StoreIntegrityError
from flowdistill.trajstore import RECURRENCE_TOL, ROW_BLOCK

from helpers import rand_model, tensor_data


def _saved_with(store, tmp_path, edit=lambda lines: lines):
    """The path of `store` saved, with its list of lines passed through `edit`."""
    path = tmp_path / "store.jsonl"
    fd.save_store(store, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path


def _edit_header(edit):
    def garble(line):
        header = json.loads(line)
        edit(header)
        return json.dumps(header)
    return garble


def _edit_row(edit):
    """A record edit that passes the record's decoded float64 row through `edit`."""
    return lambda line: json.dumps(tensor_data(edit(
        np.frombuffer(base64.b64decode(json.loads(line)), "<f8").copy())))


# ways to spoil one line of a store file, as (line number, edit): the
# header on line 1 or the record on line 3 (trajectory 1); each must be
# named with its line
GARBLES = {
    "truncated": (3, lambda line: line[: len(line) // 2]),
    "not-a-string": (3, lambda line: "[" + line[1:-1] + "]"),  # of the right length
    "missing-states": (3, lambda line: '""'),
    # one float64 short, still valid padded base64
    "wrong-length-states": (3, _edit_row(lambda row: row[:-1])),
    "non-base64-states": (3, lambda line: '"*' + line[2:]),
    "unpadded-states": (3, lambda line: line.replace("=", "")),
    # an 88-byte row's base64 ends in A, Q, g or w and "==": B, R, h, x set a stray bit
    "non-canonical-states": (3, lambda line: line[:-4] + chr(ord(line[-4]) + 1) + line[-3:]),
    "nan-states": (3, _edit_row(lambda row: np.r_[row[:4], np.nan, row[5:]])),
    "non-string-states": (3, lambda line: json.dumps([0.0] * 11)),
    "non-numeric-grid": (1, _edit_header(lambda r: r["grid"].__setitem__(1, "x"))),
    "non-uniform-grid": (1, _edit_header(lambda r: r["grid"].__setitem__(1, 0.15))),
    "overflowing-n": (1, _edit_header(lambda r: r.update(n=2**62))),
    "unknown-version": (1, _edit_header(lambda r: r.update(version=99))),
    "version-1": (1, _edit_header(lambda r: r.update(version=1))),
    "version-2": (1, _edit_header(lambda r: r.update(version=2))),
    "non-integer-seed": (1, _edit_header(lambda r: r.update(seed="banana"))),
    "non-string-fingerprint": (1, _edit_header(lambda r: r.update(teacher_fingerprint=5))),
}

# edits that leave every path a valid Euler path of the teacher but move
# a path off the noise draw of its header seed and position, as (the
# first path to name, edit of the file's lines)
RESEEDS = {
    "header-seed": (0, lambda lines: [
        _edit_header(lambda r: r.update(seed=r["seed"] + 1))(lines[0]), *lines[1:]]),
    "swapped-paths": (1, lambda lines: [*lines[:2], lines[3], lines[2], *lines[4:]]),
}


class TestGenerate:
    def test_same_seed_identical_stores(self, quick_teacher, tmp_path):
        grid = fd.TimeGrid.uniform(10)
        a = fd.generate_store(quick_teacher, 16, grid, seed=3)
        b = fd.generate_store(quick_teacher, 16, grid, seed=3)
        assert a.equal(b)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fd.save_store(a, pa)
        fd.save_store(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, quick_teacher):
        grid = fd.TimeGrid.uniform(10)
        a = fd.generate_store(quick_teacher, 8, grid, seed=3)
        b = fd.generate_store(quick_teacher, 8, grid, seed=4)
        assert not a.equal(b)

    def test_first_state_reproduces_seeded_noise(self, quick_store):
        expected = fd.path_noise(quick_store.seed, range(quick_store.N), quick_store.d)
        assert np.array_equal(quick_store.states[:, -1], expected)

    def test_recurrence_within_tolerance(self, quick_teacher, quick_store):
        errors = fd.recurrence_errors(quick_teacher, quick_store.states)
        assert errors.shape == (quick_store.N,)
        assert np.all(errors <= RECURRENCE_TOL)

    def test_single_path_regenerates_within_tolerance(self, quick_teacher, quick_store):
        # one path denoised alone matches its stored row only to within
        # the recurrence tolerance: a one-row evaluation rounds differently
        for i in (0, 7, quick_store.N - 1):
            noise = fd.path_noise(quick_store.seed, range(i, i + 1), quick_store.d)
            path = fd.denoise_batch(quick_teacher, noise, quick_store.grid)[:, 0]
            assert np.array_equal(path[-1], quick_store.states[i, -1])
            assert np.max(np.abs(path - quick_store.states[i])) <= RECURRENCE_TOL

    def test_partial_last_block(self):
        # N = ROW_BLOCK + 5: the last block holds 5 paths
        model = rand_model(d=2, H=4, R=1, seed=43)
        N = ROW_BLOCK + 5
        store = fd.generate_store(model, N, fd.TimeGrid.uniform(4), seed=6)
        assert store.states.shape == (N, 5, 2)
        assert np.all(fd.recurrence_errors(model, store.states) <= RECURRENCE_TOL)
        for i in range(ROW_BLOCK, N):
            rng = np.random.default_rng(fd.derive_seed(6, f"trajectory-{i}"))
            assert np.array_equal(store.states[i, -1], rng.standard_normal(2))

    def test_invalid_count_rejected(self, quick_teacher):
        with pytest.raises(ConfigError):
            fd.generate_store(quick_teacher, 0, fd.TimeGrid.uniform(4), seed=0)


class TestPersistence:
    def test_round_trip_elementwise_equal(self, quick_store, tmp_path):
        path = _saved_with(quick_store, tmp_path)
        loaded = fd.load_store(path)
        assert loaded.equal(quick_store)
        # one header line, then N records of one length
        lines = path.read_bytes().splitlines()
        assert len(lines) == quick_store.N + 1 and len({len(r) for r in lines[1:]}) == 1

    def test_round_trip_bytes_stable(self, quick_store, tmp_path):
        p1, p2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        fd.save_store(quick_store, p1)
        fd.save_store(fd.load_store(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_parse_error(self, quick_store, tmp_path):
        path = _saved_with(quick_store, tmp_path, lambda lines: lines[:-3])
        with pytest.raises(StoreFormatError, match="line 1: expected "):
            fd.load_store(path)

    @pytest.mark.parametrize("garble", list(GARBLES))
    def test_garbled_record_names_line(self, quick_store, tmp_path, garble):
        line_no, edit = GARBLES[garble]
        path = _saved_with(quick_store, tmp_path, lambda lines: [
            *lines[:line_no - 1], edit(lines[line_no - 1]), *lines[line_no:]])
        with pytest.raises(StoreFormatError, match=f"line {line_no}:"):
            fd.load_store(path)

    def test_non_utf8_line_is_named(self, quick_store, tmp_path):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:20] + b"\xff" + lines[2][21:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(StoreFormatError, match="line 3:"):
            fd.load_store(path)

    def test_version_1_store_asks_for_synth(self, quick_store, tmp_path):
        path = _saved_with(quick_store, tmp_path, lambda lines: [
            lines[0].replace('"version":3', '"version":1'), *lines[1:]])
        with pytest.raises(StoreFormatError, match="version 1 is not 3; re-run synth"):
            fd.load_store(path)

    # at 2**56 times the paths, np.empty's size would overflow: reaching
    # it would be a ValueError, not a StoreFormatError
    @pytest.mark.parametrize("factor", [2, 2**56], ids=["double", "overflowing"])
    def test_header_count_beyond_file_size(self, quick_store, tmp_path, factor):
        N = factor * quick_store.N
        path = _saved_with(quick_store, tmp_path, lambda lines: [
            lines[0].replace(f'"N":{quick_store.N},', f'"N":{N},'), *lines[1:]])
        with pytest.raises(StoreFormatError, match=f"line 1: expected {N} trajectory records, "
                                                   f"found {quick_store.N} "):
            fd.load_store(path)

    def test_one_record_too_many(self, quick_store, tmp_path):
        path = _saved_with(quick_store, tmp_path, lambda lines: lines + lines[-1:])
        N = quick_store.N
        with pytest.raises(StoreFormatError,
                           match=f"line {N + 2}: expected {N} trajectory records, found {N + 1}"):
            fd.load_store(path)

    def test_validated_load_against_generator(self, quick_teacher, quick_store, tmp_path):
        loaded = fd.load_store(_saved_with(quick_store, tmp_path), teacher=quick_teacher)
        assert loaded.N == quick_store.N

    def test_wrong_teacher_is_integrity_error(self, quick_store, tmp_path):
        path = _saved_with(quick_store, tmp_path)
        with pytest.raises(StoreIntegrityError):
            fd.load_store(path, teacher=rand_model(seed=99))

    def test_tampered_states_fail_validation(self, quick_teacher, quick_store, tmp_path):
        def bump(row):
            row[3] += 0.5
            return row
        path = _saved_with(quick_store, tmp_path,
                           lambda lines: [lines[0], _edit_row(bump)(lines[1]), *lines[2:]])
        with pytest.raises(StoreIntegrityError):
            fd.load_store(path, teacher=quick_teacher)

    @pytest.mark.parametrize("reseed", list(RESEEDS))
    def test_noise_is_tied_to_header_seed_and_position(self, quick_teacher, quick_store,
                                                       tmp_path, reseed):
        first, edit = RESEEDS[reseed]
        path = _saved_with(quick_store, tmp_path, edit)
        fd.load_store(path)  # well formed
        with pytest.raises(StoreIntegrityError,
                           match=f"trajectory {first} does not start from its seeded noise"):
            fd.load_store(path, teacher=quick_teacher)

    @pytest.mark.parametrize("tamper", [0.5, float("nan")])
    def test_validation_names_path_in_last_block(self, tamper):
        model = rand_model(d=1, H=4, R=1, seed=41)
        N = ROW_BLOCK + 5
        store = fd.generate_store(model, N, fd.TimeGrid.uniform(4), seed=2)
        fd.validate_store(store, model)
        store.states[N - 2, 2, 0] += tamper
        with pytest.raises(StoreIntegrityError, match=f"trajectory {N - 2} "):
            fd.validate_store(store, model)


class TestKeyPoints:
    def test_full_grid_schedule_returns_all_states(self, quick_store):
        points = fd.key_points(quick_store, fd.TimeGrid.uniform(quick_store.grid.n))
        assert np.array_equal(points, quick_store.states)

    def test_two_point_schedule_is_noise_and_endpoint(self, quick_store):
        points = fd.key_points(quick_store, fd.TimeGrid.uniform(1))
        assert points.shape == (quick_store.N, 2, quick_store.d)
        assert np.array_equal(points[:, 0], quick_store.states[:, 0])
        assert np.array_equal(points[:, 1], quick_store.states[:, -1])

    def test_uniform_keys_hit_expected_indices(self, quick_teacher):
        store = fd.generate_store(quick_teacher, 2, fd.TimeGrid.uniform(50), seed=0)
        points = fd.key_points(store, fd.TimeGrid.uniform(5))
        for k, j in enumerate([0, 10, 20, 30, 40, 50]):
            assert np.array_equal(points[:, k], store.states[:, j])

    def test_off_grid_key_time_rejected(self, quick_store):
        # the key times k/3 miss the store's grid of n=10 steps
        with pytest.raises(ConfigError, match="store has n=10, which m=3 does not divide"):
            fd.key_points(quick_store, fd.TimeGrid.uniform(3))

    def test_key_points_are_exact_subsequence(self, quick_store):
        n = quick_store.grid.n
        points = fd.key_points(quick_store, fd.TimeGrid.uniform(5))[0]
        state_rows = {tuple(s) for s in quick_store.states[0]}
        assert all(tuple(p) in state_rows for p in points)
        # key k of m is grid step k·n/m, for every m dividing n
        for m in (m for m in range(1, n + 1) if n % m == 0):
            points = fd.key_points(quick_store, fd.TimeGrid.uniform(m))
            for k in range(m + 1):
                assert np.array_equal(points[:, k], quick_store.states[:, k * n // m]), (m, k)
