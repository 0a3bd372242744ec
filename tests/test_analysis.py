import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowdistill as fd
from flowdistill.analysis import KDConfig, nearest_distances

from oracles import endpoint_error_bruteforce, mismatch_bruteforce, w1_cdf_area, \
    w1_merge_walk, w1_quantile_grid

samples_1d = st.lists(st.floats(-100, 100, allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=40)


class TestMismatchDegree:
    def test_identical_supports_give_zero(self):
        p = np.array([[-3.0], [3.0]])
        assert fd.mismatch_degree(p, p) == 0.0

    def test_single_shifted_point(self):
        p_d = np.array([[-2.0], [3.0]])
        p = np.array([[-3.0], [3.0]])
        assert fd.mismatch_degree(p_d, p) == 1.0

    def test_matches_bruteforce_exactly_random_pairs(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            d = int(rng.integers(1, 4))
            ka, kb = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            p_d = rng.normal(0, 5, size=(ka, d))
            p = rng.normal(0, 5, size=(kb, d))
            assert fd.mismatch_degree(p_d, p) == mismatch_bruteforce(p_d, p)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(13)
        p_d = rng.normal(0, 2, size=(10, 2))
        p = rng.normal(0, 2, size=(7, 2))
        shuffled = p[rng.permutation(7)]
        assert fd.mismatch_degree(p_d, p) == fd.mismatch_degree(p_d, shuffled)

    def test_empty_support_rejected(self):
        with pytest.raises((ValueError, fd.ConfigError)):
            fd.mismatch_degree(np.zeros((0, 1)), np.array([[1.0]]))

    def test_report_sums_nearest_distances(self):
        p_d = np.array([[-2.0], [4.0]])
        p = np.array([[-3.0], [3.0]])
        near = nearest_distances(p_d, p)
        assert fd.mismatch_degree(p_d, p) == sum(near)
        assert near.tolist() == [1.0, 1.0]

    def test_shifted_dataset_reproduces_degree_exactly(self, two_point_data):
        for M in (0.0, 1.0, 2.0, 4.0):
            p_d = fd.shifted_dataset(two_point_data, M)
            assert fd.mismatch_degree(p_d, two_point_data) == M


class TestW1Distance:
    def test_identical_lists_zero(self):
        x = np.array([0.3, -1.2, 5.0])
        assert fd.w1_distance(x, x) == 0.0

    def test_unit_translation(self):
        assert fd.w1_distance([0.0], [1.0]) == 1.0

    def test_matches_quantile_grid_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.normal(0, 2, 1000)
        b = rng.normal(0.5, 1, 500)
        assert fd.w1_distance(a, b) == pytest.approx(w1_quantile_grid(a, b), abs=1e-9)

    def test_matches_cdf_area_oracle(self):
        rng = np.random.default_rng(15)
        for na, nb in [(40, 40), (50, 17), (128, 3), (2, 301)]:
            a = rng.normal(0, 3, na)
            b = rng.normal(1, 2, nb)
            assert fd.w1_distance(a, b) == pytest.approx(w1_cdf_area(a, b), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(samples_1d, samples_1d)
    def test_symmetry(self, a, b):
        assert fd.w1_distance(a, b) == pytest.approx(fd.w1_distance(b, a), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(samples_1d)
    def test_zero_iff_equal_as_multisets(self, a):
        assert fd.w1_distance(a, list(reversed(a))) == 0.0
        shifted = [x + 1.0 for x in a]
        assert fd.w1_distance(a, shifted) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(samples_1d, samples_1d, samples_1d)
    def test_triangle_inequality(self, a, b, c):
        ab = fd.w1_distance(a, b)
        bc = fd.w1_distance(b, c)
        ac = fd.w1_distance(a, c)
        assert ac <= ab + bc + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fd.w1_distance([], [1.0])
        with pytest.raises(ValueError):
            fd.w1_distance(np.zeros((0, 2)), [1.0])

    # few distinct values, so both samples are full of ties
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 3.0]), min_size=1, max_size=40),
           st.lists(st.sampled_from([-1.5, 0.0, 0.5, 3.0]), min_size=1, max_size=40))
    def test_equals_the_merge_walk_bit_for_bit(self, a, b):
        if len(a) != len(b):
            assert fd.w1_distance(a, b) == w1_merge_walk(a, b)

    def test_equals_the_merge_walk_at_very_unequal_sizes(self):
        rng = np.random.default_rng(17)
        for na, nb in [(4096, 2), (3, 1000), (97, 89)]:
            a, b = rng.normal(0, 3, na).round(1), rng.normal(1, 2, nb).round(1)
            assert fd.w1_distance(a, b) == w1_merge_walk(a, b)

    @settings(max_examples=60, deadline=None)
    @given(samples_1d, samples_1d)
    def test_sample_sets_score_their_first_coordinate(self, a, b):
        want = fd.w1_distance(a, b)
        col = np.asarray(a)[:, None]
        assert fd.w1_distance(col, np.asarray(b)[:, None]) == want
        assert fd.w1_distance(np.hstack([col, -col]), b) == want


class TestEndpointError:
    def test_exact_support_hits_zero(self):
        support = np.array([[-3.0], [3.0]])
        samples = np.array([[-3.0], [3.0], [3.0]])
        assert fd.endpoint_error(samples, support) == 0.0

    def test_center_sample(self):
        assert fd.endpoint_error(np.array([[0.0]]), np.array([[-3.0], [3.0]])) == 3.0

    def test_matches_bruteforce_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            samples = rng.normal(0, 4, size=(int(rng.integers(1, 30)), d))
            support = rng.normal(0, 4, size=(int(rng.integers(1, 10)), d))
            assert fd.endpoint_error(samples, support) == \
                endpoint_error_bruteforce(samples, support)


class TestScoreModel:
    @pytest.mark.parametrize("m", [1, 5, 10])
    def test_samples_w1_and_nfe_of_one_sampling_call(self, quick_teacher, two_point_data, m):
        Z = np.random.default_rng(17).standard_normal((64, 1))
        grid = fd.TimeGrid.uniform(m)
        score = fd.score_model(quick_teacher, Z, grid, two_point_data.support)
        assert np.array_equal(score.samples, fd.denoise_batch(quick_teacher, Z, grid)[0])
        assert score.w1 == fd.w1_distance(score.samples, two_point_data.support)
        assert score.nfe == grid.n

    def test_record_is_frozen(self, quick_teacher):
        score = fd.score_model(quick_teacher, np.zeros((2, 1)), fd.TimeGrid.uniform(2), [0.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            score.w1 = 0.0


class TestUselessFrequency:
    def test_stored_states_never_useless(self, quick_store):
        # feed the exact stored states back: distance zero at every time
        p_like = fd.ToyDataset(quick_store.states[0, 0].reshape(1, -1))
        freq = fd.useless_frequency(quick_store, p_like, t_samples=64, epsilon=1e9, seed=0)
        assert freq == 0.0

    def test_far_point_always_useless(self, quick_store):
        # the literal point 1000 misses every stored state at every time
        states = quick_store.states_array()
        for j in range(quick_store.grid.n + 1):
            assert np.min(np.abs(1000.0 - states[:, j, 0])) > 0.1

        # through the sampler: only exact t=1 draws (pure noise) can land
        # on a trajectory, so the useless fraction stays near one
        far = fd.ToyDataset(np.array([[1000.0]]))
        assert fd.useless_frequency(quick_store, far, t_samples=256, epsilon=0.1, seed=1) > 0.8

    def test_frequency_in_unit_interval(self, quick_store, two_point_data):
        freq = fd.useless_frequency(quick_store, two_point_data, t_samples=256, epsilon=0.1,
                                    seed=2)
        assert 0.0 <= freq <= 1.0

    def test_huge_epsilon_gives_zero(self, quick_store, two_point_data):
        freq = fd.useless_frequency(quick_store, two_point_data, t_samples=128, epsilon=1e9,
                                    seed=3)
        assert freq == 0.0

    def test_more_trajectories_never_increase_frequency(self, quick_teacher,
                                                        two_point_data):
        grid = fd.TimeGrid.uniform(10)
        small = fd.generate_store(quick_teacher, 16, grid, seed=9)
        big = fd.generate_store(quick_teacher, 64, grid, seed=9)
        # the larger store contains a superset of reference states in
        # distribution; frequencies are computed on one fixed sample set
        f_small = fd.useless_frequency(small, two_point_data, t_samples=512, epsilon=0.25,
                                       seed=4)
        f_big = fd.useless_frequency(big, two_point_data, t_samples=512, epsilon=0.25, seed=4)
        assert f_big <= f_small

    def test_monte_carlo_agrees_with_oversampled_store(self, quick_teacher,
                                                       two_point_data):
        grid = fd.TimeGrid.uniform(10)
        base = fd.generate_store(quick_teacher, 64, grid, seed=10)
        dense = fd.generate_store(quick_teacher, 640, grid, seed=10)
        f_base = fd.useless_frequency(base, two_point_data, t_samples=1024, epsilon=0.25,
                                      seed=5)
        f_dense = fd.useless_frequency(dense, two_point_data, t_samples=1024, epsilon=0.25,
                                       seed=5)
        assert abs(f_base - f_dense) <= 0.05


class TestKDBaseline:
    def test_windows_must_divide_grid(self, quick_teacher, two_point_data):
        with pytest.raises(fd.ConfigError):
            fd.kd_baseline_distill(quick_teacher, two_point_data,
                                   config=KDConfig(windows=3, iterations=5, pool_size=32),
                                   grid=fd.TimeGrid.uniform(10))

    def test_returns_student_with_teacher_architecture(self, quick_teacher,
                                                       two_point_data):
        student, losses = fd.kd_baseline_distill(
            quick_teacher, two_point_data,
            config=KDConfig(windows=2, iterations=20, batch_size=16, pool_size=64, seed=1),
            grid=fd.TimeGrid.uniform(10),
        )
        assert student.arch == quick_teacher.arch
        assert losses.shape == (20,)

    def test_deterministic_given_seed(self, quick_teacher, two_point_data):
        kwargs = dict(config=KDConfig(windows=2, iterations=10, batch_size=8,
                                      pool_size=32, seed=2),
                      grid=fd.TimeGrid.uniform(10))
        a, _ = fd.kd_baseline_distill(quick_teacher, two_point_data, **kwargs)
        b, _ = fd.kd_baseline_distill(quick_teacher, two_point_data, **kwargs)
        assert a.params.equal(b.params)

    def test_full_grid_windows_degenerate_to_stepwise(self, quick_teacher,
                                                      two_point_data):
        # windows = n: every window spans exactly one grid step
        student, _ = fd.kd_baseline_distill(
            quick_teacher, two_point_data,
            config=KDConfig(windows=10, iterations=5, batch_size=8, pool_size=40, seed=3),
            grid=fd.TimeGrid.uniform(10),
        )
        assert student.arch == quick_teacher.arch
