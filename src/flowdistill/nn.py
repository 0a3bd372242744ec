"""Dense-network substrate: parameter sets, residual MLP velocity models,
gradient computation, and Adam updates.

A velocity model maps a state vector and a scalar time to a velocity
vector of the same dimension as the state. The architecture is an input
projection (d+1 -> H), R residual blocks (linear, silu, linear, skip),
and a zero-initialized output projection (H -> d), all in float64.
Models and ParamSets are treated as immutable values: training steps
return new objects rather than mutating in place.

Training differentiates the model with explicit layer VJPs
(`mlp_forward`, `mlp_backward`). The autodiff-tape forms
(`forward_velocity`, `value_and_grad`) compute the same values and are
the reference the explicit gradients are tested against.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .atomic import write_json
from .autodiff import Tensor
from .errors import ConfigError, NumericsError, StoreFormatError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParamSet:
    """An ordered, named sequence of parameter tensors, held as reshaped
    views into one contiguous float64 vector `flat`.

    The ordering is part of the value: two ParamSets from the same
    architecture are element-wise comparable and serialize identically.
    Elementwise work (Adam, gradient sums) runs once on `flat`.
    """

    __slots__ = ("names", "shapes", "flat", "_spans", "_tensors")

    def __init__(self, names, tensors):
        """Copy `tensors` into a fresh flat vector."""
        tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        if len(names) != len(tensors):
            raise ValueError("names and tensors must have equal length")
        spans, start = [], 0
        for t in tensors:
            spans.append((start, start + t.size))
            start += t.size
        self.names, self.shapes = tuple(names), tuple(t.shape for t in tensors)
        self.flat = np.concatenate([t.ravel() for t in tensors]) if tensors else np.zeros(0)
        self._spans, self._tensors = tuple(spans), None

    def like(self, flat) -> "ParamSet":
        """A ParamSet with this one's layout viewing `flat` (not copied)."""
        if flat.shape != self.flat.shape:
            raise ValueError(f"flat vector has shape {flat.shape}, layout needs "
                             f"{self.flat.shape}")
        ps = ParamSet.__new__(ParamSet)
        ps.names, ps.shapes, ps._spans, ps.flat, ps._tensors = \
            self.names, self.shapes, self._spans, flat, None
        return ps

    @property
    def tensors(self) -> tuple:
        """The named tensors, as reshaped views into `flat`."""
        if self._tensors is None:
            self._tensors = tuple(self.flat[a:b].reshape(shape)
                                  for (a, b), shape in zip(self._spans, self.shapes))
        return self._tensors

    def __reduce__(self):
        # pickling the views one by one would detach them from `flat`
        return ParamSet, (self.names, self.tensors)

    def __len__(self):
        return len(self.tensors)

    def __iter__(self):
        return iter(self.tensors)

    @property
    def size(self) -> int:
        return self.flat.size

    def map(self, fn) -> "ParamSet":
        return ParamSet(self.names, [fn(t) for t in self.tensors])

    def _check_congruent(self, other: "ParamSet"):
        if self.names != other.names or self.shapes != other.shapes:
            raise ValueError("parameter sets are not shape-congruent")

    def equal(self, other: "ParamSet") -> bool:
        return (self.names == other.names and self.shapes == other.shapes
                and np.array_equal(self.flat, other.flat))

    def copy(self) -> "ParamSet":
        return self.like(self.flat.copy())

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
        if not 0 <= i < self.size:
            raise IndexError(i)
        return float(self.flat[i])

    def with_flat(self, i: int, value: float) -> "ParamSet":
        if not 0 <= i < self.size:
            raise IndexError(i)
        flat = self.flat.copy()
        flat[i] = value
        return self.like(flat)


def zeros_like(params: ParamSet) -> ParamSet:
    return params.like(np.zeros(params.size))


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


class ForwardCache(NamedTuple):
    """What `mlp_backward` needs from one `mlp_forward` pass."""

    inp: np.ndarray  # (B, d+1): the states with the time column appended
    blocks: list  # per residual block run: (input, pre-activation, sigmoid, activation)
    top: np.ndarray | None  # input of the output layer; None if the pass stopped early


def mlp_forward(params: ParamSet, X, t, R: int, stop: int | None = None,
                want_cache: bool = False):
    """Forward pass of the velocity MLP on a (B, d) batch at time t
    (a scalar or (B,)), without the autodiff tape.

    Returns the (B, d) velocity or, with `stop`, the (B, H) output of
    block `stop` (0 is the input projection; the later layers are not
    run), plus a ForwardCache for `mlp_backward` when `want_cache` is
    set. Each layer repeats the fused arithmetic of `autodiff.affine`
    and `autodiff.resblock` in the same order, so the values equal
    those of `forward_velocity` bit for bit.
    """
    ts = params.tensors
    B, d = X.shape
    inp = np.empty((B, d + 1))
    inp[:, :d] = X
    inp[:, d] = t
    h = inp @ ts[0]
    h += ts[1]
    blocks = []
    with np.errstate(over="ignore"):  # exp(-pre) may overflow; s still lands on 0
        for r in range(R if stop is None else stop):
            w1, b1, w2, b2 = ts[2 + 4 * r:6 + 4 * r]
            pre = h @ w1
            pre += b1
            s = np.negative(pre)
            np.exp(s, out=s)
            s += 1.0
            np.reciprocal(s, out=s)  # s = sigmoid(pre)
            act = pre * s
            out = act @ w2
            out += b2
            out += h
            if want_cache:
                blocks.append((h, pre, s, act))
            h = out
    top = None
    if stop is None:
        top, h = h, h @ ts[-2]
        h += ts[-1]
    return (h, ForwardCache(inp, blocks, top)) if want_cache else h


def mlp_backward(params: ParamSet, cache: ForwardCache, g, grads: ParamSet | None = None,
                 want_input: bool = False):
    """Reverse pass through the layers one `mlp_forward` ran, given g,
    the loss gradient with respect to that pass's output.

    Writes the parameter gradients into `grads` (laid out like
    `params`) unless it is None, as for a frozen model, and returns the
    (B, d) gradient with respect to X when `want_input` is set. Same
    arithmetic as the tape's VJPs of `autodiff.affine` and
    `autodiff.resblock`.
    """
    ts = params.tensors
    gs = None if grads is None else grads.tensors
    if cache.top is not None:
        if gs is not None:
            np.matmul(cache.top.T, g, out=gs[-2])
            np.add.reduce(g, 0, out=gs[-1])
        g = g @ ts[-2].T
    for r in range(len(cache.blocks) - 1, -1, -1):
        h, pre, s, act = cache.blocks[r]
        if gs is not None:
            np.add.reduce(g, 0, out=gs[5 + 4 * r])
            np.matmul(act.T, g, out=gs[4 + 4 * r])
        ga = g @ ts[4 + 4 * r].T
        # d silu / d pre = s * (1 + pre * (1 - s)), folded into ga in place
        tmp = np.subtract(1.0, s)
        tmp *= pre
        tmp += 1.0
        tmp *= s
        ga *= tmp
        if gs is not None:
            np.add.reduce(ga, 0, out=gs[3 + 4 * r])
            np.matmul(h.T, ga, out=gs[2 + 4 * r])
        gh = ga @ ts[2 + 4 * r].T
        gh += g
        g = gh
    if gs is not None:
        np.matmul(cache.inp.T, g, out=gs[0])
        np.add.reduce(g, 0, out=gs[1])
    return (g @ ts[0].T)[:, :-1] if want_input else None


def check_loss(loss: float):
    if not np.isfinite(loss):
        raise NumericsError("loss is non-finite")


def check_grads(grads: ParamSet):
    if not np.all(np.isfinite(grads.flat)):
        name = next(n for n, g in zip(grads.names, grads.tensors)
                    if not np.all(np.isfinite(g)))
        raise NumericsError(f"non-finite gradient in tensor {name!r}")


def velocity_mse(params: ParamSet, X, t, target, R: int):
    """Mean squared error of the velocity at (X, t) against `target`,
    averaged over batch and dimensions, and its gradient with respect
    to params: the loss of teacher training, trajectory regression and
    the KD baseline."""
    pred, cache = mlp_forward(params, X, t, R, want_cache=True)
    diff = pred - target
    loss = float(np.mean(diff * diff))
    check_loss(loss)
    grads = zeros_like(params)
    # the tape's mean and square VJPs, in their order
    mlp_backward(params, cache, 2.0 * diff * (1.0 / diff.size), grads)
    check_grads(grads)
    return loss, grads


def forward_velocity(params, X, t, R: int, want_hidden: bool = False):
    """Forward pass on a batch, built on the autodiff tape: the
    reference the explicit `mlp_forward`/`mlp_backward` are tested
    against.

    X is (B, d) and t is (B,); either may be a Tensor so gradients can
    flow through the input (needed when differentiating through a
    frozen feature extractor). Returns the (B, d) output node, plus the
    per-block hidden activations when `want_hidden` is set.
    """
    ts = list(getattr(params, "tensors", params))
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
    """Predicted (B, d) velocities at a (B, d) batch x of states and
    time t, a scalar or (B,); pure in the model parameters."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValueError(f"states have shape {X.shape}, model expects (B, {model.d})")
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (X.shape[0],))
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("time must lie in [0, 1]")
    out = mlp_forward(model.params, X, t_arr, model.R)
    model.eval_count += 1
    return out


@dataclass(frozen=True)
class TapeParams:
    """Named gradient-tracking Tensors, handed to a tape loss function."""

    names: tuple
    tensors: tuple


def value_and_grad(loss_fn, params: ParamSet):
    """Loss value and d(loss)/d(params) through the autodiff tape (the
    reference for the explicit gradients).

    `loss_fn` receives a TapeParams of tracked Tensors and must return a
    scalar Tensor built from autodiff ops. Parameters the loss never
    touches get zero gradients.
    """
    leaves = TapeParams(params.names, tuple(
        Tensor(t, requires_grad=True, name=n) for n, t in zip(params.names, params.tensors)
    ))
    out = loss_fn(leaves)
    loss = float(out.data)
    check_loss(loss)
    out.backward()
    grads = ParamSet(params.names, [
        leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        for leaf in leaves.tensors
    ])
    check_grads(grads)
    return loss, grads


@dataclass(frozen=True)
class OptimizerState:
    """Adam state: first and second moments plus the step counter."""

    m: ParamSet
    v: ParamSet
    step: int
    lr: float


def init_optimizer(params: ParamSet, lr: float) -> OptimizerState:
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    return OptimizerState(zeros_like(params), zeros_like(params), 0, lr)


def optimizer_step(params: ParamSet, grads: ParamSet, state: OptimizerState):
    """One Adam step, run once on the flat vectors.

    Returns new (params, state); inputs are left untouched.
    """
    params._check_congruent(grads)
    params._check_congruent(state.m)
    step = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    g = grads.flat
    m = b1 * state.m.flat + (1.0 - b1) * g
    v = b2 * state.v.flat + (1.0 - b2) * (g * g)
    update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    p = params.flat - state.lr * update
    new_state = dataclasses.replace(state, m=params.like(m), v=params.like(v), step=step)
    return params.like(p), new_state


def params_to_payload(params: ParamSet) -> list:
    return [
        {"name": n, "shape": list(t.shape), "data": t.tolist()}
        for n, t in zip(params.names, params.tensors)
    ]


def require_fields(obj, fields, where):
    """`obj`, checked to be a JSON object holding each of `fields`; a
    defect is a StoreFormatError naming `where` and the missing field."""
    if not isinstance(obj, dict):
        raise StoreFormatError(f"{where}: not a JSON object")
    for key in fields:
        if key not in obj:
            raise StoreFormatError(f"{where}: missing field {key!r}")
    return obj


def read_json(path, fmt: str, fields) -> dict:
    """The JSON object in the artifact `path`, checked to carry the
    format tag `fmt` and each of `fields`; a defect is a
    StoreFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except ValueError as e:  # not JSON, or not UTF-8
        raise StoreFormatError(f"{path}: not a valid {fmt} file ({e})") from e
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise StoreFormatError(f"{path}: not a {fmt} file")
    return require_fields(payload, fields, path)


def params_from_payload(records: list, source) -> ParamSet:
    """The ParamSet of `params_to_payload` records read from `source`; a
    tensor record without its fields, or whose data does not have its
    recorded shape, is a format error naming the file and the tensor."""
    names, tensors = [], []
    for i, rec in enumerate(records):
        require_fields(rec, ("name", "shape", "data"), f"{source}: tensor record {i}")
        try:
            t = np.asarray(rec["data"], dtype=np.float64)
        except (TypeError, ValueError) as e:
            raise StoreFormatError(
                f"{source}: tensor {rec['name']!r} is not a numeric array ({e})") from e
        if list(t.shape) != rec["shape"]:
            raise StoreFormatError(
                f"{source}: tensor {rec['name']!r} has shape {list(t.shape)}, "
                f"header says {rec['shape']}"
            )
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
    write_json(path, payload)


def load_paramset(path):
    """Read back (ParamSet, meta); shape/size mismatches are format errors."""
    payload = read_json(path, "flowdistill-paramset", ("meta", "tensors"))
    return params_from_payload(payload["tensors"], path), payload["meta"]


def save_model(path, model: VelocityModel):
    save_paramset(path, model.params, {"kind": "velocity_model", **model.arch})


def load_model(path) -> VelocityModel:
    params, meta = load_paramset(path)
    if not isinstance(meta, dict) or meta.get("kind") != "velocity_model":
        raise StoreFormatError(f"{path}: not a velocity-model file")
    require_fields(meta, ("d", "H", "R", "activation"), f"{path}: meta")
    if not all(type(meta[key]) is int for key in ("d", "H", "R")):
        raise StoreFormatError(f"{path}: meta fields d, H and R must be integers")
    model = VelocityModel(meta["d"], meta["H"], meta["R"], params, meta["activation"])
    expected = [name for name, _ in _param_layout(model.d, model.H, model.R)]
    if list(params.names) != expected:
        raise StoreFormatError(f"{path}: parameter names do not match architecture")
    return model
