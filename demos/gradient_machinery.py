"""
The gradient machinery under the training loops
===============================================

The training loops differentiate the velocity model with explicit layer
VJPs on one flat parameter vector. This demo differentiates the
flow-matching loss that way, checks that the reverse-mode tape gives
the same gradient bit for bit, checks a few coordinates against central
finite differences, then shows the Adam update direction on a fresh
optimizer state.
"""

# flowdistill before numpy: importing it pins BLAS to one thread
import flowdistill as fd
from flowdistill.nn import velocity_mse, velocity_mse_node
import numpy as np

rng = np.random.default_rng(0)
model = fd.build_velocity_model(d=1, H=16, R=2, seed=3)
# randomize the zero output layer so the test point is generic
model = model.with_params(fd.ParamSet(model.params.names, [
    t + rng.normal(0, 0.3, t.shape) for t in model.params.tensors]))

x0, x1, t = 3 * rng.standard_normal((16, 1)), rng.standard_normal((16, 1)), rng.random(16)
# regress the velocity at x_t onto the conditional velocity x1 - x0
inputs = fd.interpolate(x0, x1, t), t, x1 - x0


def loss_and_grad(params):
    """Loss and gradient of the flow-matching regression."""
    return velocity_mse(params, *inputs)


def bumped(i, value):
    """The model's parameters with flat coordinate i set to `value`."""
    params = model.params.copy()
    params.flat[i] = value
    return params


loss, grads = loss_and_grad(model.params)
_, tape_grads = fd.value_and_grad(lambda ps: velocity_mse_node(ps, *inputs), model.params)
print(f"explicit gradient equals the tape's bit for bit: "
      f"{np.array_equal(grads.flat, tape_grads.flat)}")
print(f"flow-matching loss at test point: {loss:.6f}")

h = 1e-5
print(f"{'coord':>6} {'analytic':>12} {'finite diff':>12} {'rel err':>10}")
for i in rng.integers(0, model.params.size, 6):
    i = int(i)
    base = model.params.flat[i]
    up = loss_and_grad(bumped(i, base + h))[0]
    dn = loss_and_grad(bumped(i, base - h))[0]
    est = (up - dn) / (2 * h)
    got = grads.flat[i]
    print(f"{i:6d} {got:12.6f} {est:12.6f} {abs(got-est)/max(abs(est),1e-9):10.2e}")

state = fd.init_optimizer(model.params)
# the step updates its params in place, so it runs on a copy
new_params, state = fd.optimizer_step(model.params.copy(), grads, state, lr=1e-4)
moved = new_params.flat - model.params.flat
g = grads.flat
agree = np.mean(np.sign(moved[g != 0]) == -np.sign(g[g != 0]))
print(f"\nfirst Adam step opposes the gradient on {agree:.1%} of coordinates")
