"""
Building and persisting a denoising-trajectory store
====================================================

Every training signal for the few-step student comes from full teacher
denoising paths. This demo generates a small store, shows the key
latents the student will regress onto, and round-trips the store
through its JSONL file format.
"""

import tempfile
from pathlib import Path

# flowdistill before numpy: importing it pins BLAS to one thread
import flowdistill as fd
import numpy as np

data = fd.ToyDataset(np.array([-3.0, 3.0]))
teacher, _ = fd.train_teacher(data, iterations=1500, batch_size=512, lr=3e-4, seed=0)

grid = fd.TimeGrid.uniform(50)
store = fd.generate_store(teacher, N=256, grid=grid, seed=7)
endpoints = store.states[:, 0, 0]  # states is (N, n+1, d); index 0 is t=0
print(f"store: N={store.N}, n={store.grid.n}, d={store.d}")
print(f"endpoint range: [{endpoints.min():+.3f}, {endpoints.max():+.3f}], "
      f"share near +3: {np.mean(endpoints > 0):.2f}")

# the m+1 key latents of every trajectory, (N, m+1, d), on the key grid
# t'_k = k/m: from data (k = 0) up to noise (k = m)
key_grid = fd.TimeGrid.uniform(5)
keys = fd.key_points(store, key_grid)[0]
print("\nkey timesteps and latents of trajectory 0:")
for t, val in zip(key_grid.times, keys[:, 0]):
    print(f"  t'={t:.1f}  latent={val:+.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "store.jsonl"
    fd.save_store(store, path)
    print(f"\nserialized size: {path.stat().st_size / 1e6:.1f} MB")
    loaded = fd.load_store(path, teacher=teacher)  # validated against generator
    print(f"round-trip equal: {loaded.equal(store)}")
