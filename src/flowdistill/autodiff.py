"""Minimal reverse-mode automatic differentiation over float64 arrays.

A `Tensor` wraps an ndarray and remembers how it was produced. Calling
`backward()` on a scalar output walks the tape in reverse topological
order and accumulates d(output)/d(leaf) into every leaf created with
`requires_grad=True`. Only the operations the velocity models and
losses need are implemented; everything runs in 64-bit floats so
finite-difference checks can use tight tolerances.

Nodes whose inputs carry no gradient are created without parent links,
so evaluation of a frozen model builds no graph at all.

The training loops do not run on the tape: they use the explicit layer
VJPs of `nn` and `adversarial`, which repeat this module's arithmetic
in the same order. The tape is the reference those are tested against.
"""

from __future__ import annotations

import numpy as np


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for very negative inputs; the quotient
    # still lands on the correct limit (0), so only the warning is muted
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, reversing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Accumulate gradients of this scalar into all reachable leaves."""
        if self.data.size != 1:
            raise ValueError("backward() is only defined for scalar outputs")
        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._vjp is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list:
    """Nodes reachable from `root`, root first, parents after children."""
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def _node(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def vjp(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _node(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def vjp(g):
        ga = _unbroadcast(g, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _node(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _node(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """2-D matrix product; vectors must be reshaped by the caller."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    data = a.data @ b.data

    def vjp(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _node(data, (a, b), vjp)


def square(a) -> Tensor:
    a = as_tensor(a)
    return _node(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def log(a) -> Tensor:
    # out-of-domain inputs yield nan/inf silently; finiteness checks at
    # the loss level are the guard, not a warning here
    a = as_tensor(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = np.log(a.data)
    return _node(data, (a,), lambda g: (g / a.data,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = stable_sigmoid(a.data)
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def silu(a) -> Tensor:
    """x * sigmoid(x), the smooth gate used by the velocity models."""
    a = as_tensor(a)
    s = stable_sigmoid(a.data)
    data = a.data * s

    def vjp(g):
        return (g * s * (1.0 + a.data * (1.0 - s)),)

    return _node(data, (a,), vjp)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only through the interior."""
    a = as_tensor(a)
    data = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def vjp(g):
        return (g * inside,)

    return _node(data, (a,), vjp)


def mean(a) -> Tensor:
    a = as_tensor(a)
    size = a.data.size

    def vjp(g):
        return (np.full(a.data.shape, float(g) / size),)

    return _node(np.mean(a.data), (a,), vjp)


def tsum(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (np.full(a.data.shape, float(g)),)

    return _node(np.sum(a.data), (a,), vjp)


def concat(parts, axis: int = 1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        pieces = np.split(g, bounds, axis=axis)
        return tuple(
            piece if p.requires_grad else None for p, piece in zip(parts, pieces)
        )

    return _node(data, tuple(parts), vjp)


# Fused layer ops. The generic ops above compose to the same values
# (same operation order, so bit-identical), but the fused forms cut the
# temporary-array traffic that dominates wall time at training batch
# sizes.


def affine(x, w, b) -> Tensor:
    """x @ w + b for (B, n) inputs with a (m,) bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    data = x.data @ w.data
    data += b.data

    def vjp(g):
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return _node(data, (x, w, b), vjp)


def resblock(h, w1, b1, w2, b2) -> Tensor:
    """One residual block: h + (silu(h @ w1 + b1) @ w2 + b2)."""
    h, w1, b1, w2, b2 = (as_tensor(v) for v in (h, w1, b1, w2, b2))
    pre = h.data @ w1.data
    pre += b1.data
    s = np.negative(pre)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)  # s = sigmoid(pre)
    act = pre * s
    out = act @ w2.data
    out += b2.data
    out += h.data

    def vjp(g):
        gb2 = g.sum(axis=0) if b2.requires_grad else None
        gw2 = act.T @ g if w2.requires_grad else None
        ga = g @ w2.data.T
        # d silu / d pre = s * (1 + pre * (1 - s)), folded into ga in place
        tmp = np.subtract(1.0, s)
        tmp *= pre
        tmp += 1.0
        tmp *= s
        ga *= tmp
        gb1 = ga.sum(axis=0) if b1.requires_grad else None
        gw1 = h.data.T @ ga if w1.requires_grad else None
        if h.requires_grad:
            gh = ga @ w1.data.T
            gh += g
        else:
            gh = None
        return gh, gw1, gb1, gw2, gb2

    return _node(out, (h, w1, b1, w2, b2), vjp)
