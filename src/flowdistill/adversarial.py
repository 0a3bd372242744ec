"""Discriminator machinery: frozen-model feature extraction, per-key-
timestep projection heads, and the GAN losses.

The discriminator never owns a feature extractor of its own: features
are hidden activations of the frozen teacher, tapped at one block for
noisy inputs (t > 0) and an earlier block for clean inputs (t = 0).
Each projection head maps a feature vector to a single logit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .nn import ParamSet, VelocityModel, forward_velocity, mlp_forward

PROB_EPS = 1e-7


@dataclass(frozen=True)
class FeatureTapConfig:
    """Which residual-block outputs serve as discriminator features.

    Block index 0 is the input projection's output; R is the last block.
    """

    noisy_block: int
    clean_block: int

    def block_for(self, t: float) -> int:
        return self.noisy_block if t > 0.0 else self.clean_block


def default_taps(model: VelocityModel) -> FeatureTapConfig:
    # deep features for noisy inputs, a mid-depth block for clean ones
    return FeatureTapConfig(noisy_block=model.R, clean_block=max(1, model.R // 2))


def features_node(teacher: VelocityModel, x, t: float, tap: FeatureTapConfig,
                  want_cache: bool = False):
    """Hidden activation of the frozen teacher at the tap for time t.

    For a (B, d) array `x` this is the explicit pass: the teacher runs
    only up to the tapped block, and the (B, H) features come back as
    an array, with the ForwardCache that `mlp_backward` needs to
    differentiate through them when `want_cache` is set. A Tensor `x` builds the same activation as a
    node of the autodiff tape, so gradients flow back through the input
    (the reference the explicit path is tested against). Either way
    the teacher parameters are constants and never receive gradients.
    """
    block = tap.block_for(t)
    if not 0 <= block <= teacher.R:
        raise ConfigError(
            f"feature tap {block} out of range for a model with R={teacher.R} blocks"
        )
    if isinstance(x, Tensor):
        _, hidden = forward_velocity(teacher.params, x, t, teacher.R, want_hidden=True)
        return hidden[block]
    X = np.asarray(x, dtype=np.float64)
    return mlp_forward(teacher.params, X, t, teacher.R, stop=block, want_cache=want_cache)


@dataclass
class ProjectionHead:
    """Small MLP (H -> H/2 -> 1) producing a real/fake logit for the key
    timestep it serves. The output layer starts at zero, so a fresh head
    reports probability exactly 0.5 everywhere."""

    index: int
    params: ParamSet

    @property
    def in_width(self) -> int:
        return self.params.tensors[0].shape[0]

    def with_params(self, params: ParamSet) -> "ProjectionHead":
        return ProjectionHead(self.index, params)


def build_projection_head(feature_width: int, index: int, seed: int) -> ProjectionHead:
    if feature_width < 2:
        raise ConfigError(f"feature width must be at least 2, got {feature_width}")
    rng = np.random.default_rng(seed)
    mid = feature_width // 2
    params = ParamSet(
        ("w1", "b1", "w2", "b2"),
        (
            rng.normal(0.0, 1.0 / np.sqrt(feature_width), size=(feature_width, mid)),
            np.zeros(mid),
            np.zeros((mid, 1)),
            np.zeros(1),
        ),
    )
    return ProjectionHead(index, params)


def head_logit_node(params, features) -> Tensor:
    """Logit of a head on (B, H) features, built on the autodiff tape;
    either side may carry grads. The reference for `head_forward` and
    `head_backward`."""
    w1, b1, w2, b2 = getattr(params, "tensors", params)
    h = ad.silu(ad.add(ad.matmul(ad.as_tensor(features), w1), b1))
    return ad.add(ad.matmul(h, w2), b2)


def head_forward(params: ParamSet, features):
    """(B, 1) logits of a head on (B, H) features, plus the cache for
    `head_backward`; the arithmetic of `head_logit_node`, without the
    tape."""
    w1, b1, w2, b2 = params.tensors
    a = features @ w1 + b1
    s = ad.stable_sigmoid(a)
    h = a * s
    return h @ w2 + b2, (features, a, s, h)


def head_backward(params: ParamSet, cache, g, grads: ParamSet | None = None,
                  want_input: bool = False):
    """Reverse pass of `head_forward` for the logit gradient g: writes
    the parameter gradients into `grads` unless it is None, and returns
    the gradient with respect to the features when `want_input` is
    set. Same arithmetic as the tape's VJPs."""
    features, a, s, h = cache
    w1, _, w2, _ = params.tensors
    if grads is not None:
        np.add.reduce(g, 0, out=grads.tensors[3])
        np.matmul(h.T, g, out=grads.tensors[2])
    g = (g @ w2.T) * s * (1.0 + a * (1.0 - s))  # through silu
    if grads is not None:
        np.add.reduce(g, 0, out=grads.tensors[1])
        np.matmul(features.T, g, out=grads.tensors[0])
    return g @ w1.T if want_input else None


def discriminate(head: ProjectionHead, features) -> np.ndarray:
    """(B,) probabilities that each row of the (B, H) `features` came
    from a real (stored) latent."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != head.in_width:
        raise ValueError(
            f"features have shape {feats.shape}, head expects (B, {head.in_width})"
        )
    logit, _ = head_forward(head.params, feats)
    return ad.stable_sigmoid(logit[:, 0])


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


def d_loss_node(p_real: Tensor, p_fake: Tensor) -> Tensor:
    pr = ad.clip(p_real, PROB_EPS, 1.0 - PROB_EPS)
    pf = ad.clip(p_fake, PROB_EPS, 1.0 - PROB_EPS)
    return ad.neg(ad.add(ad.mean(ad.log(pr)), ad.mean(ad.log(1.0 - pf))))


def g_loss_node(p_fake: Tensor) -> Tensor:
    pf = ad.clip(p_fake, PROB_EPS, 1.0 - PROB_EPS)
    return ad.neg(ad.mean(ad.log(pf)))
