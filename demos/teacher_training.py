"""
Training a flow-matching teacher on two points
==============================================

The teacher is a small residual MLP that learns the velocity field
carrying a standard normal at t=1 onto the dataset {-3, 3} at t=0.
This demo uses a shortened run; the full recipe (10000 iterations,
batch 2048, lr 1e-4) is what the acceptance suite verifies.
"""

# flowdistill before numpy: importing it pins BLAS to one thread
import flowdistill as fd
import numpy as np

data = fd.ToyDataset(np.array([-3.0, 3.0]))
teacher, losses = fd.train_teacher(
    data, iterations=2000, batch_size=512, lr=3e-4, seed=0
)

print(f"loss: first 100 iters {losses[:100].mean():.3f} "
      f"-> last 100 iters {losses[-100:].mean():.3f}")

# integrate noise back to data with 50 Euler steps
Z = np.random.default_rng(1).standard_normal((4096, 1))
samples = fd.denoise_batch(teacher, Z, fd.TimeGrid.uniform(50))[0]
err = fd.endpoint_error(samples, data.support)
near = np.mean(np.min(np.abs(samples - data.support[:, 0]), axis=1) <= 0.25)
print(f"mean distance to nearest support point: {err:.4f}")
print(f"fraction of samples within 0.25 of a support point: {near:.3f}")

# a text histogram of where the samples land
edges = np.linspace(-4.5, 4.5, 19)
counts, _ = np.histogram(samples[:, 0], bins=edges)
peak = counts.max()
for lo, hi, c in zip(edges[:-1], edges[1:], counts):
    bar = "#" * int(round(40 * c / peak))
    print(f"[{lo:+5.1f}, {hi:+5.1f})  {bar}")
