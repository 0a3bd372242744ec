"""Acceptance gate: every criterion of the build, one test per
criterion, each printing a PASS line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive
artifacts (fully trained teacher, 4096-trajectory store, the ablation
grid of distilled students) are session-scoped fixtures shared across
criteria, so the suite trains the teacher exactly once. The 15 ablation
runs and the 20 KD-baseline runs are independent and seeded, so they
run on every CPU this process may use (`analysis.parallel_map`, with
the teacher and the store shared).
"""

import dataclasses
import time

import numpy as np
import pytest

import flowdistill as fd
from flowdistill.analysis import parallel_map
from flowdistill.distill import _traj_regression
from flowdistill.flow import _fm_regression
from flowdistill.nn import velocity_mse
from flowdistill.seeds import derive_seed
from flowdistill.trajstore import RECURRENCE_TOL

import golden
from helpers import adv_step, constant_model, distill_and_score, kd_and_score, rand_model
from oracles import max_grad_rel_error, mismatch_bruteforce

TEACHER_ITERS = 10000
TEACHER_BATCH = 2048
TEACHER_LR = 1e-4
STORE_N = 4096
GRID_N = 50
M_KEYS = 5
EVAL_COUNT = 4096
SEEDS = (0, 1, 2, 3, 4)
M_SWEEP = (0.0, 1.0, 2.0, 4.0)

DISTILL_BASE = fd.DistillConfig(m=M_KEYS, iterations=3000, batch_size=128)
KD_BASE = fd.KDConfig()


@pytest.fixture(scope="session")
def data():
    return fd.ToyDataset(np.array([-3.0, 3.0]))


@pytest.fixture(scope="session")
def teacher_run(data):
    start = time.perf_counter()
    teacher, losses = fd.train_teacher(
        data, TEACHER_ITERS, TEACHER_BATCH, TEACHER_LR, derive_seed(0, "teacher")
    )
    elapsed = time.perf_counter() - start
    return teacher, losses, elapsed


@pytest.fixture(scope="session")
def teacher(teacher_run):
    return teacher_run[0]


@pytest.fixture(scope="session")
def grid():
    return fd.TimeGrid.uniform(GRID_N)


@pytest.fixture(scope="session")
def store(teacher, grid):
    return fd.generate_store(teacher, STORE_N, grid, derive_seed(0, "store"))


@pytest.fixture(scope="session")
def teacher_samples(teacher, grid):
    """Per-seed evaluation noise and the teacher's 50-step samples on it."""
    out = {}
    for seed in SEEDS:
        rng = np.random.default_rng(derive_seed(seed, "eval"))
        Z = rng.standard_normal((EVAL_COUNT, 1))
        out[seed] = (Z, fd.denoise_batch(teacher, Z, grid)[0])
    return out


@pytest.fixture(scope="session")
def ablation(teacher, store, teacher_samples):
    """Distilled students and their W1-to-teacher for each (variant, seed)."""
    variants = {
        "adv": DISTILL_BASE,
        "noadv": dataclasses.replace(DISTILL_BASE, lambda_adv=0.0),
        "single": dataclasses.replace(DISTILL_BASE, heads="single"),
    }
    cells = [(name, seed) for seed in SEEDS for name in variants]
    tasks = [
        (dataclasses.replace(variants[name], seed=derive_seed(seed, "distill")),
         *teacher_samples[seed])
        for name, seed in cells
    ]
    return dict(zip(cells, parallel_map(distill_and_score, (teacher, store), tasks)))


def test_criterion_1_teacher_fidelity(teacher_run, data):
    teacher, _, elapsed = teacher_run
    Z = np.random.default_rng(derive_seed(0, "teacher-eval")).standard_normal((EVAL_COUNT, 1))
    samples = fd.denoise_batch(teacher, Z, fd.TimeGrid.uniform(GRID_N))[0]
    err = fd.endpoint_error(samples, data.support)
    near = np.mean(np.min(np.abs(samples - data.support[:, 0]), axis=1) <= 0.25)
    assert err < 0.15
    assert near >= 0.95
    assert elapsed < 300.0
    print(f"\n[criterion 1] PASS: endpoint_error={err:.4f} (<0.15), "
          f"within 0.25: {near:.4f} (>=0.95), training {elapsed:.0f}s (<300s)")


def test_criterion_2_gradient_correctness(teacher):
    worst = {"fm": 0.0, "traj": 0.0, "adv": 0.0}
    key_grid = fd.TimeGrid.uniform(5)
    for seed in SEEDS:
        rng = np.random.default_rng(derive_seed(seed, "gradcheck"))
        model = rand_model(seed=seed + 100, H=16, R=2)
        coords = rng.integers(0, model.params.size, 32)

        batch = (3 * rng.standard_normal((8, 1)), rng.standard_normal((8, 1)),
                 rng.random(8))
        _, g = velocity_mse(model.params, *_fm_regression(*batch))
        worst["fm"] = max(worst["fm"], max_grad_rel_error(
            lambda ps: velocity_mse(ps, *_fm_regression(*batch))[0],
            model.params, g, coords))

        keys = 2 * rng.standard_normal((1, 6, 1))
        k = int(rng.integers(0, 5))
        _, g = velocity_mse(model.params, *_traj_regression(keys, key_grid, k))
        worst["traj"] = max(worst["traj"], max_grad_rel_error(
            lambda ps: velocity_mse(ps, *_traj_regression(keys, key_grid, k))[0],
            model.params, g, coords))

        # the generator loss through one student step from t'_2 = 0.4 to
        # t'_1 = 0.2, the frozen teacher's features and the head
        student = rand_model(seed=seed + 200, H=teacher.H, R=teacher.R)
        heads = fd.build_heads(teacher.H, [seed + 300])
        head = fd.ParamSet(heads.names, [t + rng.normal(0, 0.3, t.shape)
                                         for t in fd.head_of(heads, 0)])
        l_prev = rng.standard_normal((1, 1))

        def adv_gen(ps):
            return adv_step(teacher, ps, head, l_prev, np.zeros((1, 1)), key_grid.times[2],
                            key_grid.times[1], 1.0)

        g = adv_gen(student.params)[3]
        worst["adv"] = max(worst["adv"], max_grad_rel_error(
            lambda ps: adv_gen(ps)[1], student.params, g, coords))

    assert all(v < 1e-4 for v in worst.values()), worst
    print(f"\n[criterion 2] PASS: max relative errors fm={worst['fm']:.2e}, "
          f"traj={worst['traj']:.2e}, adv-generator={worst['adv']:.2e} (all <1e-4)")


def test_criterion_3_solver_exactness(teacher, store):
    # constant field: rig the output bias
    model = constant_model(2.0)
    out = fd.integrate(model, np.array([[0.0]]), fd.TimeGrid(2), 2, 1)[-1]
    assert abs(out[0, 0] - (-1.0)) <= 1e-12

    # analytic single-datum field lands exactly
    a = -3.0
    for x, t in [(1.7, 0.9), (-0.2, 0.05)]:
        v = (x - a) / t
        assert abs((x + (0.0 - t) * v) - a) <= 1e-12

    worst = float(np.max(fd.recurrence_errors(teacher, store.states)))
    assert worst <= RECURRENCE_TOL
    print(f"\n[criterion 3] PASS: closed forms at <=1e-12; store recurrence "
          f"max error {worst:.2e} (<=1e-9) over {store.N} trajectories")


def test_criterion_4_mismatch_oracle():
    rng = np.random.default_rng(404)
    for trial in range(100):
        d = int(rng.integers(1, 4))
        p_d = rng.normal(0, 5, size=(int(rng.integers(1, 65)), d))
        p = rng.normal(0, 5, size=(int(rng.integers(1, 65)), d))
        assert fd.mismatch_degree(p_d, p) == mismatch_bruteforce(p_d, p)
    print("\n[criterion 4] PASS: exact equality with the double-loop oracle "
          "on 100 random support pairs (up to 64 points, d<=3)")


def test_criterion_5_useless_frequency_trend(teacher, store, data):
    start = time.perf_counter()
    medians = []
    table = {}
    for M in M_SWEEP:
        p_d = fd.shifted_dataset(data, M)
        freqs = [
            fd.useless_frequency(store, p_d, t_samples=4096, epsilon=0.1,
                                 seed=derive_seed(s, f"useless-{M}"))
            for s in SEEDS
        ]
        table[M] = freqs
        medians.append(float(np.median(freqs)))
    elapsed = time.perf_counter() - start
    assert medians[0] > 0.0, table
    assert all(b >= a for a, b in zip(medians, medians[1:])), medians
    assert elapsed < 600.0
    print(f"\n[criterion 5] PASS: median useless frequency over M={list(M_SWEEP)} "
          f"is {[round(v, 4) for v in medians]} (positive at M=0, non-decreasing), "
          f"{elapsed:.0f}s (<600s)")


def test_criterion_6_kd_degrades_distillation_does_not(teacher, store, data,
                                                       ablation):
    tasks = [
        (fd.shifted_dataset(data, M),
         dataclasses.replace(KD_BASE, seed=derive_seed(seed, f"kd-{M}")), EVAL_COUNT,
         derive_seed(seed, f"kd-eval-{M}"), data.support)
        for M in M_SWEEP for seed in SEEDS
    ]
    w1s = np.reshape(parallel_map(kd_and_score, (teacher, store), tasks),
                     (len(M_SWEEP), len(SEEDS)))
    kd_medians = [float(np.median(row)) for row in w1s]
    assert all(b >= a - 1e-12 for a, b in zip(kd_medians, kd_medians[1:])), kd_medians

    # store-based distillation never reads p_d: identical per seed across M
    per_m_medians = [float(np.median([ablation["adv", s]["w1"] for s in SEEDS]))
                     for _ in M_SWEEP]
    spread = (max(per_m_medians) - min(per_m_medians)) / max(per_m_medians)
    assert spread < 0.25
    print(f"\n[criterion 6] PASS: KD median W1 over M={list(M_SWEEP)} is "
          f"{[round(v, 4) for v in kd_medians]} (non-decreasing); trajectory "
          f"distillation W1 varies {spread:.1%} across the sweep (<25%)")


def test_criterion_7_few_step_fidelity_and_nfe(teacher, ablation, teacher_samples):
    run = ablation["adv", 0]
    assert run["w1"] < 0.2
    assert run["nfe"] == M_KEYS

    student = run["student"]
    Z, _ = teacher_samples[0]
    before_student = student.eval_count
    fd.denoise_batch(student, Z[:16], fd.TimeGrid.uniform(M_KEYS))
    student_evals = student.eval_count - before_student
    before_teacher = teacher.eval_count
    fd.denoise_batch(teacher, Z[:16], fd.TimeGrid.uniform(GRID_N))
    teacher_evals = teacher.eval_count - before_teacher
    assert (student_evals, teacher_evals) == (M_KEYS, GRID_N)
    assert teacher_evals // student_evals == 10
    print(f"\n[criterion 7] PASS: W1(student, teacher)={run['w1']:.4f} (<0.2); "
          f"evaluation counters {teacher_evals} vs {student_evals} = exact 10x")


def test_criterion_8_ablation_orderings(ablation):
    med = {
        name: float(np.median([ablation[name, s]["w1"] for s in SEEDS]))
        for name in ("adv", "noadv", "single")
    }
    assert med["adv"] <= med["noadv"], med
    assert med["adv"] <= med["single"], med
    print(f"\n[criterion 8] PASS: median W1 adversarial={med['adv']:.4f} <= "
          f"none={med['noadv']:.4f}; per-timestep heads {med['adv']:.4f} <= "
          f"single head {med['single']:.4f}")


def test_criterion_9_plumbing_determinism(store, tmp_path):
    p1, p2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    fd.save_store(store, p1)
    loaded = fd.load_store(p1)
    assert loaded.equal(store)
    fd.save_store(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    # the CLI sequence of golden.py's criterion-9 run, twice
    outputs = {}
    for rerun in ("a", "b"):
        out = golden.run("criterion-9", tmp_path / rerun)
        outputs[rerun] = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()}
    assert outputs["a"].keys() == outputs["b"].keys()
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], name
    print(f"\n[criterion 9] PASS: store round-trip bit-exact; "
          f"{len(outputs['a'])} artifact files byte-identical across reruns "
          f"of all 7 CLI commands")
