"""
Distilling a 50-step teacher into a 5-step student
==================================================

The student starts from the teacher's parameters and learns the
teacher's 10-step jumps between key timesteps directly from the
trajectory store, with an adversarial pass that carries a batch of
generated latents down the key timesteps and aligns its per-timestep
latent distributions with the store's. Sampling then needs 5 model
evaluations instead of 50.
"""

# flowdistill before numpy: importing it pins BLAS to one thread
import flowdistill as fd
import numpy as np

data = fd.ToyDataset(np.array([-3.0, 3.0]))
teacher, _ = fd.train_teacher(data, iterations=2000, batch_size=512, lr=3e-4, seed=0)

grid = fd.TimeGrid.uniform(50)
store = fd.generate_store(teacher, N=1024, grid=grid, seed=1)

config = fd.DistillConfig(m=5, iterations=800, batch_size=128,
                          lambda_adv=0.1, seed=2)
result = fd.distill(teacher, store, config)
# metrics[r, k] holds round r's (traj_loss, d_loss, g_loss) at key k
rounds, keys, _ = result.metrics.shape
print(f"loss history: {rounds} rounds x {keys} keys, heads: {result.heads.shapes[0][0]}")
# a round sweeps k from m-1 down to 0
first, last = result.metrics[0, -1, 0], result.metrics[-1, 0, 0]
print(f"trajectory loss: {first:.4f} (start) -> {last:.4f} (end)")

# identical noise draws through both models
rng = np.random.default_rng(3)
Z = rng.standard_normal((4096, 1))
teacher_samples = fd.denoise_batch(teacher, Z, grid)[0]

# the student samples on its key grid: one model evaluation per key step
student = fd.score_model(result.student, Z, fd.TimeGrid.uniform(config.m), teacher_samples)
print(f"\nstudent evaluations per batch: {student.nfe} vs teacher {grid.n}: "
      f"{grid.n // student.nfe}x fewer steps")
print(f"W1(student 5-step, teacher 50-step) = {student.w1:.4f}")
print(f"student endpoint error: {fd.endpoint_error(student.samples, data.support):.4f}")
print(f"teacher endpoint error: {fd.endpoint_error(teacher_samples, data.support):.4f}")
