import numpy as np
import pytest

import flowdistill as fd
import flowdistill.autodiff as ad
from flowdistill.adversarial import PROB_EPS, d_loss_grad, features_node, g_loss_grad, \
    g_loss_node, head_logit_node
from flowdistill.errors import ConfigError
from flowdistill.nn import forward_velocity

from helpers import rand_model
from oracles import central_diff


class TestFeatureExtraction:
    def test_feature_width_is_hidden_width(self, quick_teacher):
        taps = fd.default_taps(quick_teacher)
        feats = features_node(quick_teacher, np.array([[0.4]]), 0.5, taps)
        assert feats.shape == (1, quick_teacher.H)

    def test_teacher_unmodified_by_extraction(self, quick_teacher):
        taps = fd.default_taps(quick_teacher)
        before = quick_teacher.fingerprint()
        features_node(quick_teacher, np.array([[0.4]]), 0.5, taps)
        assert quick_teacher.fingerprint() == before

    def test_features_stable_across_student_updates(self, quick_teacher, quick_store):
        taps = fd.default_taps(quick_teacher)
        X, t = np.array([[0.3]]), 0.5
        before = features_node(quick_teacher, X, t, taps)
        cfg = fd.DistillConfig(m=5, n=10, iterations=2, batch_size=4, seed=3)
        fd.distill(quick_teacher, quick_store, cfg)
        after = features_node(quick_teacher, X, t, taps)
        assert np.array_equal(before, after)

    def test_clean_and_noisy_taps_differ(self, quick_teacher):
        taps = fd.default_taps(quick_teacher)
        assert taps.noisy_block != taps.clean_block
        X = np.array([[0.8]])
        noisy = features_node(quick_teacher, X, 0.2, taps)
        clean = features_node(quick_teacher, X, 0.0, taps)
        assert not np.allclose(noisy, clean)

    def test_same_tap_same_features(self, quick_teacher):
        taps = fd.FeatureTapConfig(noisy_block=2, clean_block=2)
        X = np.array([[0.8]])
        a = features_node(quick_teacher, X, 0.2, taps)
        b = features_node(quick_teacher, X, 0.2, taps)
        assert np.array_equal(a, b)

    def test_out_of_range_tap_rejected(self, quick_teacher):
        taps = fd.FeatureTapConfig(noisy_block=quick_teacher.R + 1, clean_block=1)
        with pytest.raises(ConfigError):
            features_node(quick_teacher, np.array([[0.0]]), 0.5, taps)

    def test_tap_matches_forward_hidden(self, quick_teacher):
        taps = fd.default_taps(quick_teacher)
        X = np.array([[0.4]])
        _, hidden = forward_velocity(quick_teacher.params, X, 0.5, quick_teacher.R,
                                     want_hidden=True)
        feats = features_node(quick_teacher, X, 0.5, taps)
        assert np.array_equal(feats, hidden[taps.noisy_block].data)


class TestDiscriminate:
    def test_fresh_head_outputs_exactly_half(self):
        head = fd.build_projection_head(16, index=0, seed=4)
        feats = np.random.default_rng(0).standard_normal((5, 16))
        assert np.all(fd.discriminate(head, feats) == 0.5)

    def test_probability_monotone_in_logit(self):
        head = fd.build_projection_head(8, index=0, seed=5)
        feats = np.random.default_rng(1).standard_normal((1, 8))
        probs = []
        for bias in (-2.0, -0.5, 0.0, 0.5, 2.0):
            tensors = list(head.params.tensors)
            tensors[3] = np.array([bias])
            bumped = head.with_params(fd.ParamSet(head.params.names, tuple(tensors)))
            probs.append(fd.discriminate(bumped, feats)[0])
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_feature_width_mismatch_rejected(self):
        head = fd.build_projection_head(8, index=0, seed=6)
        with pytest.raises(ValueError):
            fd.discriminate(head, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            fd.discriminate(head, np.zeros(8))

    def test_trains_to_separate_clusters(self):
        rng = np.random.default_rng(7)
        width = 12
        real = rng.normal(1.5, 0.5, size=(256, width))
        fake = rng.normal(-1.5, 0.5, size=(256, width))
        head = fd.build_projection_head(width, index=0, seed=8)
        params = head.params
        opt = fd.init_optimizer(params, lr=5e-3)
        for step in range(300):
            i = rng.integers(0, 256, 32)
            fr, ff = real[i], fake[i]

            def loss(ps):
                pr = ad.sigmoid(head_logit_node(ps, fr))
                pf = ad.sigmoid(head_logit_node(ps, ff))
                return ad.neg(ad.add(ad.mean(ad.log(ad.clip(pr, PROB_EPS, 1 - PROB_EPS))),
                                     ad.mean(ad.log(ad.clip(1.0 - pf + 0.0, PROB_EPS,
                                                            1 - PROB_EPS)))))

            _, grads = fd.value_and_grad(loss, params)
            params, opt = fd.optimizer_step(params, grads, opt)
        trained = head.with_params(params)
        held_real = rng.normal(1.5, 0.5, size=(128, width))
        held_fake = rng.normal(-1.5, 0.5, size=(128, width))
        acc_real = np.mean(fd.discriminate(trained, held_real) > 0.5)
        acc_fake = np.mean(fd.discriminate(trained, held_fake) < 0.5)
        assert (acc_real + acc_fake) / 2 > 0.9


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
        head = fd.build_projection_head(quick_teacher.H, index=0, seed=42)
        head = head.with_params(head.params.map(
            lambda t: t + np.random.default_rng(43).normal(0, 0.3, t.shape)))
        taps = fd.default_taps(quick_teacher)
        l_prev = np.array([[0.7]])
        t_hi, t_lo = 0.4, 0.2

        def g_loss_fn(ps):
            v = forward_velocity(ps, l_prev, t_hi, student.R)
            l_gen = ad.add(l_prev, ad.mul(v, t_lo - t_hi))
            feats = features_node(quick_teacher, l_gen, t_lo, taps)
            p_fake = ad.sigmoid(head_logit_node(head.params, feats))
            return g_loss_node(p_fake)

        loss, grads = fd.value_and_grad(g_loss_fn, student.params)
        rng = np.random.default_rng(44)
        worst = 0.0
        for i in rng.integers(0, student.params.size, 32):
            ref = central_diff(
                lambda ps: float(g_loss_fn_on(ps, quick_teacher, head, taps, l_prev,
                                              t_hi, t_lo, student.R)),
                student.params, int(i),
            )
            got = grads.get_flat(int(i))
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-6))
        assert worst < 1e-4

    def test_generator_loss_is_negative_log_p(self):
        # raising the fake logit lowers the loss: d/dl -log sigmoid(l) = -(1 - p)
        g_loss, g = g_loss_grad(np.array([[np.log(0.3 / 0.7)]]), 1.0)
        assert g_loss == pytest.approx(-np.log(0.3))
        assert g[0, 0] == pytest.approx(-0.7)
        assert float(g_loss_node(ad.Tensor(np.array([[0.3]]))).data) == \
            pytest.approx(-np.log(0.3))


def g_loss_fn_on(ps, teacher, head, taps, l_prev, t_hi, t_lo, R):
    v = forward_velocity(ps, l_prev, t_hi, R)
    l_gen = ad.add(l_prev, ad.mul(v, t_lo - t_hi))
    feats = features_node(teacher, l_gen, t_lo, taps)
    p_fake = ad.sigmoid(head_logit_node(head.params, feats))
    return g_loss_node(p_fake).data
