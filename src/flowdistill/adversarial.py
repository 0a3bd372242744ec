"""Discriminator machinery: frozen-model feature extraction, per-key-
timestep projection heads, and the GAN losses.

The discriminator never owns a feature extractor of its own: features
are hidden activations of the frozen teacher, tapped at one block for
noisy inputs (t > 0) and an earlier block for clean inputs (t = 0).
Each projection head maps a feature vector to a single logit; all heads
of a run are one ParamSet with a leading head axis (`build_heads`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .nn import ParamSet, VelocityModel, mlp_forward

PROB_EPS = 1e-7


def features_node(teacher: VelocityModel, x, t: float, want_cache: bool = False):
    """Hidden activation of the frozen teacher at its tap for time t:
    block R, the deepest, for noisy inputs (t > 0), and block max(1, R // 2)
    for clean ones (t = 0). Block 0 is the input projection's output.

    The teacher runs on the (B, d) states `x` only up to the tapped
    block. Returns the (B, H) features, plus the ForwardCache that
    `mlp_backward` needs to differentiate through them when
    `want_cache` is set; the teacher parameters never receive gradients.
    """
    block = teacher.R if t > 0.0 else max(1, teacher.R // 2)
    X = np.asarray(x, dtype=np.float64)
    return mlp_forward(teacher.params, X, t, stop=block, want_cache=want_cache)


def build_heads(feature_width: int, seeds) -> ParamSet:
    """One small MLP head (H -> H/2 -> 1) per seed, producing a real/fake
    logit, stacked on a leading head axis: w1 (count, H, H/2), b1
    (count, H/2), w2 (count, H/2, 1), b2 (count, 1). Head i's w1 is
    drawn from `seeds[i]`; the rest starts at zero, so a fresh head
    reports probability exactly 0.5 everywhere."""
    if feature_width < 2:
        raise ConfigError(f"feature width must be at least 2, got {feature_width}")
    count, mid = len(seeds), feature_width // 2
    w1 = [np.random.default_rng(s).normal(0.0, 1.0 / np.sqrt(feature_width),
                                          size=(feature_width, mid)) for s in seeds]
    return ParamSet(("w1", "b1", "w2", "b2"), (np.stack(w1), np.zeros((count, mid)),
                                               np.zeros((count, mid, 1)), np.zeros((count, 1))))


def head_of(heads: ParamSet, i: int) -> tuple:
    """Head i of stacked `heads` (or of their gradients): its four
    tensors, as contiguous views."""
    return tuple(t[i] for t in heads.tensors)


def head_logit_node(head, features) -> ad.Tensor:
    """Logit of a head, its four tensors or Tensors, on (B, H) features,
    built on the autodiff tape; either side may carry grads. The
    reference for `head_forward` and `head_backward`."""
    w1, b1, w2, b2 = getattr(head, "tensors", head)
    h = ad.silu(ad.add(ad.matmul(ad.as_tensor(features), w1), b1))
    return ad.add(ad.matmul(h, w2), b2)


def head_forward(head, features):
    """(B, 1) logits of a head, its four tensors, on (B, H) features,
    plus the cache for `head_backward`; the arithmetic of
    `head_logit_node`, without the tape."""
    w1, b1, w2, b2 = head
    a = features @ w1 + b1
    s = ad.stable_sigmoid(a)
    h = a * s
    return h @ w2 + b2, (features, a, s, h)


def head_backward(head, cache, g, grads=None, want_input: bool = False):
    """Reverse pass of `head_forward` for the logit gradient g: writes
    the parameter gradients into `grads`, four arrays shaped like the
    head's tensors, unless it is None, and returns the gradient with
    respect to the features when `want_input` is set. Same arithmetic
    as the tape's VJPs."""
    features, a, s, h = cache
    w1, _, w2, _ = head
    if grads is not None:
        np.add.reduce(g, 0, out=grads[3])
        np.matmul(h.T, g, out=grads[2])
    g = (g @ w2.T) * s * (1.0 + a * (1.0 - s))  # through silu
    if grads is not None:
        np.add.reduce(g, 0, out=grads[1])
        np.matmul(features.T, g, out=grads[0])
    return g @ w1.T if want_input else None


def _clip_prob(p):
    """Probabilities clamped away from {0, 1}, and the mask of those the
    clamp left alone (where the clamped value has a gradient)."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS), (p > PROB_EPS) & (p < 1.0 - PROB_EPS)


def g_loss_grad(logit_fake, scale: float):
    """`scale` times the non-saturating generator loss -mean(log p) on
    p = sigmoid(logit_fake), and its gradient with respect to the logits,
    in closed form. The operations follow the tape's VJPs of
    `g_loss_node` in order, so both values equal the tape's bit for bit."""
    p = ad.stable_sigmoid(logit_fake)
    pc, inside = _clip_prob(p)
    loss = -np.mean(np.log(pc)) * scale
    g = np.full(p.shape, float(-scale) / p.size) / pc * inside
    return float(loss), g * p * (1.0 - p)


def d_loss_grad(logit_real, logit_fake, scale: float):
    """`scale` times the discriminator loss on the real and fake logits,
    and its gradients with respect to each, in closed form; the
    operations follow the tape's VJPs of `d_loss_node` in order."""
    pr, pf = ad.stable_sigmoid(logit_real), ad.stable_sigmoid(logit_fake)
    prc, inside_r = _clip_prob(pr)
    pfc, inside_f = _clip_prob(pf)
    one_minus = 1.0 - pfc
    loss = -(np.mean(np.log(prc)) + np.mean(np.log(one_minus))) * scale
    g_r = np.full(pr.shape, float(-scale) / pr.size) / prc * inside_r
    g_f = -(np.full(pf.shape, float(-scale) / pf.size) / one_minus) * inside_f
    return float(loss), g_r * pr * (1.0 - pr), g_f * pf * (1.0 - pf)


def d_loss_node(p_real: ad.Tensor, p_fake: ad.Tensor) -> ad.Tensor:
    pr = ad.clip(p_real, PROB_EPS, 1.0 - PROB_EPS)
    pf = ad.clip(p_fake, PROB_EPS, 1.0 - PROB_EPS)
    return ad.neg(ad.add(ad.mean(ad.log(pr)), ad.mean(ad.log(ad.sub(1.0, pf)))))


def g_loss_node(p_fake: ad.Tensor) -> ad.Tensor:
    pf = ad.clip(p_fake, PROB_EPS, 1.0 - PROB_EPS)
    return ad.neg(ad.mean(ad.log(pf)))
