"""Independent reference implementations used only to check the package:
finite differences for gradients, exhaustive loops for nearest-point
sums, and three alternative Wasserstein integrators. Deliberately written
with none of the package's vectorized shortcuts."""

import math

import numpy as np


def central_diff(loss_at, params, coord, h=1e-5):
    def at(value):
        bumped = params.copy()
        bumped.flat[coord] = value
        return loss_at(bumped)

    base = float(params.flat[coord])
    return (at(base + h) - at(base - h)) / (2.0 * h)


def max_grad_rel_error(loss_at, params, grads, coords, h=1e-5, floor=None):
    """Worst relative disagreement with central differences.

    The denominator is floored at 1e-6 of the loss scale: a central
    difference at step h cannot resolve gradient components much below
    eps * |loss| / h, so smaller coordinates are compared against that
    resolution rather than against themselves.
    """
    if floor is None:
        floor = 1e-6 * max(1.0, abs(loss_at(params)))
    worst = 0.0
    for i in coords:
        fd_g = central_diff(loss_at, params, int(i), h)
        an_g = float(grads.flat[int(i)])
        worst = max(worst, abs(an_g - fd_g) / max(abs(fd_g), floor))
    return worst


def mismatch_bruteforce(p_d, p):
    """Exhaustive double loop over both supports."""
    minima = []
    for a in np.atleast_2d(p_d):
        best = None
        for b in np.atleast_2d(p):
            acc = 0.0
            for j in range(len(a)):
                acc += (a[j] - b[j]) ** 2
            dist = math.sqrt(acc)
            if best is None or dist < best:
                best = dist
        minima.append(best)
    return math.fsum(minima)


def endpoint_error_bruteforce(samples, support):
    minima = []
    for s in np.atleast_2d(samples):
        best = None
        for b in np.atleast_2d(support):
            acc = 0.0
            for j in range(len(s)):
                acc += (s[j] - b[j]) ** 2
            dist = math.sqrt(acc)
            if best is None or dist < best:
                best = dist
        minima.append(best)
    return math.fsum(minima) / len(minima)


def w1_cdf_area(a, b):
    """Area between the two empirical CDFs, walked value by value."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    values = np.sort(np.concatenate([a, b]))
    total = 0.0
    for lo, hi in zip(values[:-1], values[1:]):
        fa = np.searchsorted(a, lo, side="right") / a.size
        fb = np.searchsorted(b, lo, side="right") / b.size
        total += abs(fa - fb) * (hi - lo)
    return total


def w1_quantile_grid(a, b):
    """Quantile functions evaluated on a common refinement: exact for
    step quantiles because the cell count is a multiple of both sizes."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    na, nb = a.size, b.size
    K = na * nb // math.gcd(na, nb)
    u = (np.arange(K) + 0.5) / K
    qa = a[np.minimum((u * na).astype(np.int64), na - 1)]
    qb = b[np.minimum((u * nb).astype(np.int64), nb - 1)]
    return float(np.mean(np.abs(qa - qb)))


def w1_merge_walk(a, b):
    """Integral of |Qa - Qb| over the merged quantile breakpoints of two
    1-D samples, walked one segment at a time with integer numerators:
    the loop `analysis.w1_distance` ran before it was vectorized, and so
    the same sum in the same order."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    na, nb = a.size, b.size
    total = 0.0
    prev = 0  # position in units of 1/(na*nb)
    ia = ib = 0
    while ia < na and ib < nb:
        next_a = (ia + 1) * nb
        next_b = (ib + 1) * na
        nxt = min(next_a, next_b)
        total += (nxt - prev) * abs(a[ia] - b[ib])
        if next_a == nxt:
            ia += 1
        if next_b == nxt:
            ib += 1
        prev = nxt
    return float(total / (na * nb))


def euler_reference(model, X, times):
    """Explicit Euler through `times` (integration order), updating one
    state row at a time: (B, d) to (len(times), B, d). Each step's
    velocity is one evaluation on the whole batch, as every sampler makes
    it, since a matrix product over one row and over B rows may round
    differently in the last bits."""
    from flowdistill.nn import eval_velocity

    X = np.array(X, dtype=np.float64)
    states = [X]
    for t, t_next in zip(times[:-1], times[1:]):
        v = eval_velocity(model, X, t)
        X = np.stack([X[b] + (t_next - t) * v[b] for b in range(X.shape[0])])
        states.append(X)
    return np.stack(states)


def adv_step_tape(teacher, student_params, head_params, l_prev, real, t_hi, t_lo, scale):
    """One adversarial step of distillation differentiated on the
    autodiff tape, as the training loop computed it before it had
    explicit gradients: the generator gradient on the student, then the
    student step and the teacher features again for the discriminator
    gradient on the head. Returns (d_loss, g_loss, generated latents,
    student gradient, head gradient)."""
    import flowdistill.autodiff as ad
    from flowdistill.adversarial import d_loss_node, features_node, g_loss_node, \
        head_logit_node
    from flowdistill.nn import forward_velocity, value_and_grad

    dt = t_lo - t_hi

    def gen_loss(ps):
        v = forward_velocity(ps, l_prev, t_hi, teacher.R)
        l_gen = ad.add(l_prev, ad.mul(v, dt))
        feats = features_node(teacher, l_gen, t_lo)
        p_fake = ad.sigmoid(head_logit_node(head_params, feats))
        return ad.mul(g_loss_node(p_fake), scale)

    g_scaled, s_grads = value_and_grad(gen_loss, student_params)
    l_gen = l_prev + dt * forward_velocity(student_params, l_prev, t_hi, teacher.R).data
    feats_fake = features_node(teacher, ad.Tensor(l_gen), t_lo).data
    feats_real = features_node(teacher, ad.Tensor(real), t_lo).data

    def disc_loss(ps):
        p_real = ad.sigmoid(head_logit_node(ps, feats_real))
        p_fake = ad.sigmoid(head_logit_node(ps, feats_fake))
        return ad.mul(d_loss_node(p_real, p_fake), scale)

    d_scaled, h_grads = value_and_grad(disc_loss, head_params)
    return d_scaled / scale, g_scaled / scale, l_gen, s_grads, h_grads


def adam_reference(params, grads, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step tensor by tensor, written out from the update rule;
    returns the new (params, m, v) as lists of arrays."""
    bias1, bias2 = 1.0 - beta1**step, 1.0 - beta2**step
    out = ([], [], [])
    for p, g, m_t, v_t in zip(params, grads, m, v):
        m_t = beta1 * m_t + (1.0 - beta1) * g
        v_t = beta2 * v_t + (1.0 - beta2) * (g * g)
        p = p - lr * ((m_t / bias1) / (np.sqrt(v_t / bias2) + eps))
        for acc, t in zip(out, (p, m_t, v_t)):
            acc.append(t)
    return out
