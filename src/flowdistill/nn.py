"""Dense-network substrate: parameter sets, residual MLP velocity models,
gradient computation, and Adam-family updates.

A velocity model maps a state vector and a scalar time to a velocity
vector of the same dimension as the state. The architecture is an input
projection (d+1 -> H), R residual blocks (linear, silu, linear, skip),
and a zero-initialized output projection (H -> d), all in float64.
Models and ParamSets are treated as immutable values: training steps
return new objects rather than mutating in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericsError, StoreFormatError

ADAM_EPS = 1e-8


@dataclass(frozen=True)
class ParamSet:
    """An ordered, named sequence of parameter tensors.

    The ordering is part of the value: two ParamSets from the same
    architecture are element-wise comparable and serialize identically.
    """

    names: tuple
    tensors: tuple

    def __post_init__(self):
        if len(self.names) != len(self.tensors):
            raise ValueError("names and tensors must have equal length")

    def __len__(self):
        return len(self.tensors)

    def __iter__(self):
        return iter(self.tensors)

    @property
    def size(self) -> int:
        return sum(int(np.prod(t.shape)) for t in self.tensors)

    def map(self, fn) -> "ParamSet":
        return ParamSet(self.names, tuple(fn(t) for t in self.tensors))

    def zip_with(self, other: "ParamSet", fn) -> "ParamSet":
        self._check_congruent(other)
        return ParamSet(
            self.names, tuple(fn(a, b) for a, b in zip(self.tensors, other.tensors))
        )

    def _check_congruent(self, other: "ParamSet"):
        if self.names != other.names or any(
            a.shape != b.shape for a, b in zip(self.tensors, other.tensors)
        ):
            raise ValueError("parameter sets are not shape-congruent")

    def equal(self, other: "ParamSet") -> bool:
        return self.names == other.names and all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(self.tensors, other.tensors)
        )

    def copy(self) -> "ParamSet":
        return self.map(np.copy)

    def fingerprint(self) -> str:
        """SHA-256 over names, shapes, and raw little-endian float64 bytes."""
        h = hashlib.sha256()
        for name, t in zip(self.names, self.tensors):
            h.update(name.encode())
            h.update(repr(t.shape).encode())
            h.update(np.ascontiguousarray(t, dtype="<f8").tobytes())
        return h.hexdigest()

    # flat-index access, used by finite-difference probes
    def get_flat(self, i: int) -> float:
        for t in self.tensors:
            if i < t.size:
                return float(t.flat[i])
            i -= t.size
        raise IndexError(i)

    def with_flat(self, i: int, value: float) -> "ParamSet":
        tensors = list(self.tensors)
        for j, t in enumerate(tensors):
            if i < t.size:
                t = t.copy()
                t.flat[i] = value
                tensors[j] = t
                return ParamSet(self.names, tuple(tensors))
            i -= t.size
        raise IndexError(i)


def zeros_like(params: ParamSet) -> ParamSet:
    return params.map(np.zeros_like)


@dataclass
class VelocityModel:
    """Residual MLP predicting a velocity from (state, time).

    `eval_count` is a diagnostic counter of forward invocations; it is
    not part of the model's value and is never serialized.
    """

    d: int
    H: int
    R: int
    params: ParamSet
    activation: str = "silu"
    eval_count: int = dataclasses.field(default=0, compare=False)

    @property
    def arch(self) -> dict:
        return {"d": self.d, "H": self.H, "R": self.R, "activation": self.activation}

    def with_params(self, params) -> "VelocityModel":
        return dataclasses.replace(self, params=params, eval_count=0)

    def fingerprint(self) -> str:
        return self.params.fingerprint()


def _param_layout(d: int, H: int, R: int):
    layout = [("in.w", (d + 1, H)), ("in.b", (H,))]
    for r in range(R):
        layout += [
            (f"block{r}.w1", (H, H)),
            (f"block{r}.b1", (H,)),
            (f"block{r}.w2", (H, H)),
            (f"block{r}.b2", (H,)),
        ]
    layout += [("out.w", (H, d)), ("out.b", (d,))]
    return layout


def build_velocity_model(d: int, H: int, R: int, seed: int) -> VelocityModel:
    """Deterministically initialized model: fan-in-scaled normal hidden
    layers, zero output layer (so the initial velocity field is zero)."""
    if d < 1 or H < 1 or R < 1:
        raise ConfigError(f"model dimensions must be positive, got d={d} H={H} R={R}")
    rng = np.random.default_rng(seed)
    names, tensors = [], []
    for name, shape in _param_layout(d, H, R):
        if name == "in.w" or name.endswith((".w1", ".w2")):
            t = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        else:
            # biases and the whole output layer start at zero
            t = np.zeros(shape)
        names.append(name)
        tensors.append(t)
    return VelocityModel(d, H, R, ParamSet(tuple(names), tuple(tensors)))


def forward_velocity(params, X, t, R: int, want_hidden: bool = False):
    """Forward pass on a batch.

    X is (B, d) and t is (B,); either may be a Tensor so gradients can
    flow through the input (needed when differentiating through a
    frozen feature extractor). Returns the (B, d) output node, plus the
    per-block hidden activations when `want_hidden` is set.
    """
    ts = list(params.tensors) if isinstance(params, ParamSet) else list(params)
    X = ad.as_tensor(X)
    B = X.data.shape[0]
    if isinstance(t, Tensor):
        t_col = t
    else:
        t_arr = np.asarray(t, dtype=np.float64)
        t_col = ad.as_tensor(
            np.full((B, 1), float(t_arr)) if t_arr.ndim == 0 else t_arr.reshape(-1, 1)
        )
    inp = ad.concat([X, t_col], axis=1)
    h = ad.affine(inp, ts[0], ts[1])
    hidden = [h]
    for r in range(R):
        w1, b1, w2, b2 = ts[2 + 4 * r : 6 + 4 * r]
        h = ad.resblock(h, w1, b1, w2, b2)
        hidden.append(h)
    out = ad.affine(h, ts[-2], ts[-1])
    return (out, hidden) if want_hidden else out


def eval_velocity(model: VelocityModel, x, t):
    """Predicted velocity at (x, t); pure in the model parameters.

    Accepts a single state vector with scalar t, or a (B, d) batch with
    t scalar or (B,). The returned array matches the input arrangement.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x.reshape(1, -1) if single else x
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"state has dimension {x.shape}, model expects d={model.d}")
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (X.shape[0],))
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("time must lie in [0, 1]")
    out = forward_velocity(model.params, X, t_arr, model.R).data
    model.eval_count += 1
    return out[0] if single else out


def as_grad_leaves(params: ParamSet) -> ParamSet:
    """ParamSet whose tensors are gradient-tracking Tensors."""
    return ParamSet(
        params.names,
        tuple(
            Tensor(t, requires_grad=True, name=n)
            for n, t in zip(params.names, params.tensors)
        ),
    )


def value_and_grad(loss_fn, params: ParamSet):
    """Loss value and d(loss)/d(params).

    `loss_fn` receives a ParamSet of tracked Tensors and must return a
    scalar Tensor built from autodiff ops. Parameters the loss never
    touches get zero gradients.
    """
    leaves = as_grad_leaves(params)
    out = loss_fn(leaves)
    loss = float(out.data)
    if not np.isfinite(loss):
        raise NumericsError("loss is non-finite")
    out.backward()
    grads = []
    for name, leaf in zip(leaves.names, leaves.tensors):
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient in tensor {name!r}")
        grads.append(g)
    return loss, ParamSet(params.names, tuple(grads))


def grad(model_loss, params: ParamSet) -> ParamSet:
    """Gradient of a scalar loss with respect to a ParamSet."""
    return value_and_grad(model_loss, params)[1]


@dataclass(frozen=True)
class OptimizerState:
    """Adam/AdamW state: first and second moments plus the step counter."""

    m: ParamSet
    v: ParamSet
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = ADAM_EPS
    weight_decay: float = 0.0


def init_optimizer(params: ParamSet, lr: float, beta1=0.9, beta2=0.999,
                   eps=ADAM_EPS, weight_decay=0.0) -> OptimizerState:
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    return OptimizerState(
        zeros_like(params), zeros_like(params), 0, lr, beta1, beta2, eps, weight_decay
    )


def optimizer_step(params: ParamSet, grads: ParamSet, state: OptimizerState):
    """One Adam step (decoupled weight decay when configured).

    Returns new (params, state); inputs are left untouched. The update
    is elementwise, so it runs once on all tensors concatenated into one
    vector; every element gets the same arithmetic as tensor by tensor.
    """
    params._check_congruent(grads)
    params._check_congruent(state.m)
    step = state.step + 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    p, g, m, v = (np.concatenate([t.ravel() for t in ps.tensors])
                  for ps in (params, grads, state.m, state.v))
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    update = (m / bias1) / (np.sqrt(v / bias2) + state.eps)
    p = p - state.lr * update
    if state.weight_decay:
        p = p - state.lr * state.weight_decay * p

    def unflatten(flat):
        parts, start = [], 0
        for t in params.tensors:
            parts.append(flat[start:start + t.size].reshape(t.shape))
            start += t.size
        return ParamSet(params.names, tuple(parts))

    new_state = dataclasses.replace(state, m=unflatten(m), v=unflatten(v), step=step)
    return unflatten(p), new_state


def params_to_payload(params: ParamSet) -> list:
    return [
        {"name": n, "shape": list(t.shape), "data": t.tolist()}
        for n, t in zip(params.names, params.tensors)
    ]


def params_from_payload(records: list) -> ParamSet:
    names, tensors = [], []
    for rec in records:
        t = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
        names.append(rec["name"])
        tensors.append(t)
    return ParamSet(tuple(names), tuple(tensors))


def save_paramset(path, params: ParamSet, meta: dict):
    """Write a ParamSet with metadata as JSON; float64 round-trips exactly."""
    payload = {
        "format": "flowdistill-paramset",
        "version": 1,
        "meta": meta,
        "tensors": params_to_payload(params),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, separators=(",", ":"))
        f.write("\n")


def load_paramset(path):
    """Read back (ParamSet, meta); shape/size mismatches are format errors."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except json.JSONDecodeError as e:
        raise StoreFormatError(f"{path}: not a valid parameter file ({e})") from e
    if payload.get("format") != "flowdistill-paramset":
        raise StoreFormatError(f"{path}: unrecognized file format")
    names, tensors = [], []
    for rec in payload["tensors"]:
        t = np.asarray(rec["data"], dtype=np.float64)
        if list(t.shape) != rec["shape"]:
            raise StoreFormatError(
                f"{path}: tensor {rec['name']!r} has shape {list(t.shape)}, "
                f"header says {rec['shape']}"
            )
        names.append(rec["name"])
        tensors.append(t)
    return ParamSet(tuple(names), tuple(tensors)), payload["meta"]


def save_model(path, model: VelocityModel):
    save_paramset(path, model.params, {"kind": "velocity_model", **model.arch})


def load_model(path) -> VelocityModel:
    params, meta = load_paramset(path)
    if meta.get("kind") != "velocity_model":
        raise StoreFormatError(f"{path}: not a velocity-model file")
    model = VelocityModel(meta["d"], meta["H"], meta["R"], params, meta["activation"])
    expected = [name for name, _ in _param_layout(model.d, model.H, model.R)]
    if list(params.names) != expected:
        raise StoreFormatError(f"{path}: parameter names do not match architecture")
    return model
