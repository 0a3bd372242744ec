"""
Useless data points under dataset mismatch
==========================================

Forward-diffusing a distillation dataset produces points that no
teacher denoising trajectory ever visits; their frequency grows with
the mismatch degree M between the distillation and training datasets,
and a window-mimicry baseline trained on them degrades while
store-based distillation is untouched (it never sees the shifted
dataset). This is the diagnostic the analyze-mismatch command sweeps.
"""

# flowdistill before numpy: importing it pins BLAS to one thread
import flowdistill as fd
from flowdistill.analysis import KDConfig
import numpy as np

p = fd.ToyDataset(np.array([-3.0, 3.0]))
teacher, _ = fd.train_teacher(p, iterations=2000, batch_size=512, lr=3e-4, seed=0)
grid = fd.TimeGrid.uniform(50)
store = fd.generate_store(teacher, N=1024, grid=grid, seed=1)

print(f"{'M':>4} {'useless_freq':>13} {'kd_W1':>8}")
for M in (0.0, 1.0, 2.0, 4.0):
    p_d = fd.shifted_dataset(p, M)
    assert fd.mismatch_degree(p_d, p) == M

    freq = fd.useless_frequency(store, p_d, t_samples=2048, epsilon=0.1, seed=5)

    kd_student, _ = fd.kd_baseline_distill(
        teacher, p_d,
        config=KDConfig(windows=5, iterations=3000, batch_size=128, pool_size=8192, seed=6),
        grid=grid,
    )
    Z = np.random.default_rng(7).standard_normal((2048, 1))
    kd_w1 = fd.score_model(kd_student, Z, fd.TimeGrid.uniform(5), p.support).w1
    print(f"{M:4.1f} {freq:13.4f} {kd_w1:8.4f}")

print("\nEven at M=0 the frequency stays positive: Gaussian-noise draws")
print("land off the finite trajectory set. It then grows steeply with M.")
print("The baseline column is a single seed at demo scale; the CLI's")
print("analyze-mismatch command runs the full multi-seed sweep, where the")
print("baseline's median drift away from the training support is monotone.")
