import numpy as np
import pytest

import flowdistill as fd
import flowdistill.autodiff as ad
from flowdistill.adversarial import d_loss_grad, features_node, g_loss_grad, g_loss_node, \
    head_backward, head_forward, head_logit_node
from flowdistill.nn import forward_velocity

from helpers import rand_model
from oracles import adam_reference, max_grad_rel_error, tape_features


class TestFeatureExtraction:
    def test_feature_width_is_hidden_width(self, quick_teacher):
        feats = features_node(quick_teacher, np.array([[0.4]]), 0.5)
        assert feats.shape == (1, quick_teacher.H)

    def test_teacher_unmodified_by_extraction(self, quick_teacher):
        before = quick_teacher.fingerprint()
        features_node(quick_teacher, np.array([[0.4]]), 0.5)
        assert quick_teacher.fingerprint() == before

    def test_features_stable_across_student_updates(self, quick_teacher, quick_store):
        X, t = np.array([[0.3]]), 0.5
        before = features_node(quick_teacher, X, t)
        cfg = fd.DistillConfig(m=5, iterations=2, batch_size=4, seed=3)
        fd.distill(quick_teacher, quick_store, cfg)
        after = features_node(quick_teacher, X, t)
        assert np.array_equal(before, after)

    def test_clean_and_noisy_taps_differ(self, quick_teacher):
        assert quick_teacher.R != max(1, quick_teacher.R // 2)
        X = np.array([[0.8]])
        noisy = features_node(quick_teacher, X, 0.2)
        clean = features_node(quick_teacher, X, 0.0)
        assert not np.allclose(noisy, clean)

    def test_same_tap_same_features(self, quick_teacher):
        X = np.array([[0.8]])
        a = features_node(quick_teacher, X, 0.2)
        b = features_node(quick_teacher, X, 0.2)
        assert np.array_equal(a, b)

    def test_tap_matches_forward_hidden(self, quick_teacher):
        # block R for noisy inputs, block max(1, R // 2) for clean ones; the
        # tape oracle applies the same rule on its own
        R, X = quick_teacher.R, np.array([[0.4]])
        for t, block in ((0.5, R), (0.0, max(1, R // 2))):
            _, hidden = forward_velocity(quick_teacher.params, X, t, want_hidden=True)
            assert np.array_equal(tape_features(quick_teacher, X, t).data, hidden[block].data)
            assert np.array_equal(features_node(quick_teacher, X, t), hidden[block].data)


def _real_prob(head, feats):
    """(B,) probabilities the head gives each row of (B, H) features of
    coming from a real (stored) latent."""
    return ad.stable_sigmoid(head_forward(head, feats)[0][:, 0])


class TestDiscriminate:
    def test_fresh_head_outputs_exactly_half(self):
        heads = fd.build_heads(16, [4, 5, 6])
        feats = np.random.default_rng(0).standard_normal((5, 16))
        for i in range(3):
            assert np.all(_real_prob(fd.head_of(heads, i), feats) == 0.5)

    def test_probability_monotone_in_logit(self):
        head = list(fd.head_of(fd.build_heads(8, [5]), 0))
        feats = np.random.default_rng(1).standard_normal((1, 8))
        probs = []
        for bias in (-2.0, -0.5, 0.0, 0.5, 2.0):
            head[3] = np.array([bias])
            probs.append(_real_prob(head, feats)[0])
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_trains_to_separate_clusters(self):
        # the head update `distill` runs: the closed-form loss gradients on
        # the logits, back through each branch of the head, summed
        rng = np.random.default_rng(7)
        width = 12
        real = rng.normal(1.5, 0.5, size=(256, width))
        fake = rng.normal(-1.5, 0.5, size=(256, width))
        heads = fd.build_heads(width, [8])
        params = fd.ParamSet(heads.names, fd.head_of(heads, 0))
        opt, grads, g_fake = fd.init_optimizer(params), params.copy(), params.copy()
        for step in range(300):
            i = rng.integers(0, 256, 32)
            logit_real, cache_real = head_forward(params.tensors, real[i])
            logit_fake, cache_fake = head_forward(params.tensors, fake[i])
            _, g_r, g_f = d_loss_grad(logit_real, logit_fake, 1.0)
            head_backward(params.tensors, cache_real, g_r, grads.tensors)
            head_backward(params.tensors, cache_fake, g_f, g_fake.tensors)
            grads.flat += g_fake.flat
            params, opt = fd.optimizer_step(params, grads, opt, 5e-3)
        held_real = rng.normal(1.5, 0.5, size=(128, width))
        held_fake = rng.normal(-1.5, 0.5, size=(128, width))
        acc_real = np.mean(_real_prob(params.tensors, held_real) > 0.5)
        acc_fake = np.mean(_real_prob(params.tensors, held_fake) < 0.5)
        assert (acc_real + acc_fake) / 2 > 0.9


class TestStackedHeads:
    def test_one_adam_step_equals_the_reference_head_by_head(self):
        # all heads share one Adam state: each must step as it would alone
        rng = np.random.default_rng(11)
        heads = fd.build_heads(8, [1, 2, 3])
        opt = fd.init_optimizer(heads)
        # copies: the step updates heads and moments in place
        ref = [[[t.copy() for t in fd.head_of(ps, i)] for ps in (heads, opt.m, opt.v)]
               for i in range(3)]
        for step in (1, 2, 3):
            grads = heads.like(rng.standard_normal(heads.size))
            heads, opt = fd.optimizer_step(heads, grads, opt, 1e-2)
            for i in range(3):
                ref[i] = adam_reference(ref[i][0], fd.head_of(grads, i), *ref[i][1:], step, 1e-2)
                for got, want in zip((heads, opt.m, opt.v), ref[i]):
                    assert all(np.array_equal(a, b) for a, b in zip(fd.head_of(got, i), want))


def _adv_losses(logit_real, logit_fake):
    """(d_loss, g_loss) of the closed-form GAN losses on one logit pair."""
    real, fake = np.array([[logit_real]]), np.array([[logit_fake]])
    return d_loss_grad(real, fake, 1.0)[0], g_loss_grad(fake, 1.0)[0]


class TestAdvLosses:
    def test_symmetric_half_probabilities(self):
        d_loss, g_loss = _adv_losses(0.0, 0.0)
        assert d_loss == pytest.approx(2 * np.log(2))
        assert g_loss == pytest.approx(np.log(2))

    def test_perfect_discriminator_loss_vanishes(self):
        d_loss, _ = _adv_losses(40.0, -40.0)
        assert d_loss == pytest.approx(0.0, abs=1e-5)

    def test_d_loss_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d_loss, _ = _adv_losses(*rng.normal(0.0, 4.0, 2))
            assert d_loss >= 0.0

    def test_clamping_keeps_losses_finite(self):
        # logits whose sigmoid rounds to exactly 0 or 1
        for lr, lf in [(-1e3, -1e3), (1e3, 1e3), (-1e3, 1e3)]:
            real, fake = np.array([[lr]]), np.array([[lf]])
            d_loss, g_real, g_fake = d_loss_grad(real, fake, 1.0)
            g_loss, g_gen = g_loss_grad(fake, 1.0)
            assert np.isfinite(d_loss) and np.isfinite(g_loss)
            assert np.all(np.isfinite(np.concatenate([g_real, g_fake, g_gen])))

    def test_generator_gradient_through_euler_step(self, quick_teacher):
        # d(g_loss)/d(student params) through: euler step -> frozen
        # teacher features -> head -> logistic -> -log p
        student = rand_model(seed=41, H=quick_teacher.H, R=quick_teacher.R)
        heads = fd.build_heads(quick_teacher.H, [42])
        head = [t + np.random.default_rng(43).normal(0, 0.3, t.shape)
                for t in fd.head_of(heads, 0)]
        l_prev = np.array([[0.7]])
        t_hi, t_lo = 0.4, 0.2

        def g_loss_fn(ps):
            v = forward_velocity(ps, l_prev, t_hi)
            l_gen = ad.add(l_prev, ad.mul(v, t_lo - t_hi))
            feats = tape_features(quick_teacher, l_gen, t_lo)
            p_fake = ad.sigmoid(head_logit_node(head, feats))
            return g_loss_node(p_fake)

        _, grads = fd.value_and_grad(g_loss_fn, student.params)
        coords = np.random.default_rng(44).integers(0, student.params.size, 32)
        assert max_grad_rel_error(lambda ps: float(g_loss_fn(ps).data), student.params,
                                  grads, coords, floor=1e-6) < 1e-4

    def test_generator_loss_is_negative_log_p(self):
        # raising the fake logit lowers the loss: d/dl -log sigmoid(l) = -(1 - p)
        g_loss, g = g_loss_grad(np.array([[np.log(0.3 / 0.7)]]), 1.0)
        assert g_loss == pytest.approx(-np.log(0.3))
        assert g[0, 0] == pytest.approx(-0.7)
        assert float(g_loss_node(ad.Tensor(np.array([[0.3]]))).data) == \
            pytest.approx(-np.log(0.3))
