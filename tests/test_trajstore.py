import json

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.errors import ConfigError, StoreFormatError, StoreIntegrityError
from flowdistill.trajstore import RECURRENCE_TOL, VALIDATION_BLOCK

from helpers import rand_model


def _edit_record(edit):
    def garble(line):
        record = json.loads(line)
        edit(record)
        return json.dumps(record)
    return garble


# ways to spoil one line of a store file, as (line number, edit): the
# header on line 1 or the record on line 3 (trajectory 1); each must be
# named with its line
GARBLES = {
    "truncated": (3, lambda line: line[: len(line) // 2]),
    "not-an-object": (3, lambda line: "[" + line + "]"),
    "missing-states": (3, _edit_record(lambda r: r.pop("states"))),
    "missing-noise-seed": (3, _edit_record(lambda r: r.pop("noise_seed"))),
    "null-noise-seed": (3, _edit_record(lambda r: r.update(noise_seed=None))),
    "ragged-states": (3, _edit_record(lambda r: r["states"][1].append(0.0))),
    "non-numeric-states": (3, _edit_record(lambda r: r["states"][1].__setitem__(0, "x"))),
    "non-numeric-grid": (1, _edit_record(lambda r: r["grid"].__setitem__(1, "x"))),
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
        for noise_seed, states in zip(quick_store.noise_seeds, quick_store.states):
            expected = fd.noise_from_seed(int(noise_seed), quick_store.d)
            assert np.array_equal(states[-1], expected)

    def test_recurrence_within_tolerance(self, quick_teacher, quick_store):
        errors = fd.recurrence_errors(quick_teacher, quick_store.grid, quick_store.states)
        assert errors.shape == (quick_store.N,)
        assert np.all(errors <= RECURRENCE_TOL)

    def test_single_path_regenerates_within_tolerance(self, quick_teacher, quick_store):
        # one path denoised alone matches its stored row only to within
        # the recurrence tolerance: a one-row evaluation rounds differently
        for i in (0, 7, quick_store.N - 1):
            noise = fd.noise_from_seed(int(quick_store.noise_seeds[i]), quick_store.d)
            path = fd.denoise_batch(quick_teacher, noise[None], quick_store.grid)[:, 0]
            assert np.array_equal(path[-1], quick_store.states[i, -1])
            assert np.max(np.abs(path - quick_store.states[i])) <= RECURRENCE_TOL

    def test_invalid_count_rejected(self, quick_teacher):
        with pytest.raises(ConfigError):
            fd.generate_store(quick_teacher, 0, fd.TimeGrid.uniform(4), seed=0)


class TestPersistence:
    def test_round_trip_elementwise_equal(self, quick_store, tmp_path):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        loaded = fd.load_store(path)
        assert loaded.equal(quick_store)

    def test_round_trip_bytes_stable(self, quick_store, tmp_path):
        p1, p2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        fd.save_store(quick_store, p1)
        fd.save_store(fd.load_store(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_parse_error(self, quick_store, tmp_path):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.jsonl").write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(StoreFormatError):
            fd.load_store(tmp_path / "cut.jsonl")

    @pytest.mark.parametrize("garble", list(GARBLES))
    def test_garbled_record_names_line(self, quick_store, tmp_path, garble):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        lines = path.read_text().splitlines()
        line_no, edit = GARBLES[garble]
        lines[line_no - 1] = edit(lines[line_no - 1])
        (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreFormatError, match=f"line {line_no}:"):
            fd.load_store(tmp_path / "bad.jsonl")

    def test_validated_load_against_generator(self, quick_teacher, quick_store, tmp_path):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        loaded = fd.load_store(path, teacher=quick_teacher)
        assert loaded.N == quick_store.N

    def test_wrong_teacher_is_integrity_error(self, quick_store, tmp_path):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        other = rand_model(seed=99)
        with pytest.raises(StoreIntegrityError):
            fd.load_store(path, teacher=other)

    def test_tampered_states_fail_validation(self, quick_teacher, quick_store, tmp_path):
        path = tmp_path / "store.jsonl"
        fd.save_store(quick_store, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["states"][3][0] += 0.5
        lines[1] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreIntegrityError):
            fd.load_store(path, teacher=quick_teacher)

    @pytest.mark.parametrize("tamper", [0.5, float("nan")])
    def test_validation_names_path_in_last_block(self, tamper):
        model = rand_model(d=1, H=4, R=1, seed=41)
        N = VALIDATION_BLOCK + 5
        store = fd.generate_store(model, N, fd.TimeGrid.uniform(4), seed=2)
        fd.validate_store(store, model)
        store.states[N - 2, 2, 0] += tamper
        with pytest.raises(StoreIntegrityError, match=f"trajectory {N - 2} "):
            fd.validate_store(store, model)


class TestKeyPoints:
    def test_full_grid_schedule_returns_all_states(self, quick_store):
        n = quick_store.grid.n
        schedule = fd.make_key_schedule(n, n)
        points = fd.key_points(quick_store, schedule)
        assert np.array_equal(points, quick_store.states[:, ::-1])

    def test_two_point_schedule_is_noise_and_endpoint(self, quick_store):
        schedule = fd.make_key_schedule(quick_store.grid.n, 1)
        points = fd.key_points(quick_store, schedule)
        assert points.shape == (quick_store.N, 2, quick_store.d)
        assert np.array_equal(points[:, 0], quick_store.states[:, -1])
        assert np.array_equal(points[:, 1], quick_store.states[:, 0])

    def test_uniform_keys_hit_expected_indices(self, quick_teacher):
        store = fd.generate_store(quick_teacher, 2, fd.TimeGrid.uniform(50), seed=0)
        schedule = fd.make_key_schedule(50, 5)
        points = fd.key_points(store, schedule)
        for row, j in enumerate([50, 40, 30, 20, 10, 0]):
            assert np.array_equal(points[:, row], store.states[:, j])

    def test_off_grid_key_time_rejected(self, quick_store):
        schedule = fd.KeySchedule(np.array([1.0, 0.15, 0.0]))  # store grid is n=10
        with pytest.raises(ConfigError):
            fd.key_points(quick_store, schedule)

    def test_key_points_are_exact_subsequence(self, quick_store):
        schedule = fd.make_key_schedule(quick_store.grid.n, 5)
        points = fd.key_points(quick_store, schedule)[0]
        state_rows = {tuple(s) for s in quick_store.states[0]}
        assert all(tuple(p) in state_rows for p in points)
