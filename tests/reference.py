"""Reference formulas the tests and the acceptance gate check the package
against; the run loop never calls them."""

import math

import numpy as np

from sedfosgd.noise import RngStream, _stable_draws
from sedfosgd.optim import DivergenceError, norm
from sedfosgd.problems import ar_generate
from sedfosgd.sed import two_sed


def uniform(rng):
    """One draw from (0, 1] of a `noise.RngStream`."""
    return ((rng.next_u64() >> 11) + 1) * 2.0 ** -53


def gaussian(rng, mean=0.0, std=1.0):
    """One N(mean, std^2) draw by Leva's ratio of uniforms: (u, u2) pairs
    until one is accepted, whose v / u is the draw."""
    while True:
        u = uniform(rng)
        v = 1.7156 * (uniform(rng) - 0.5)
        x = u - 0.449871
        y = abs(v) + 0.386595
        q = x * x + y * (0.19600 * y - 0.25472 * x)
        if q <= 0.27597 or (q <= 0.27846 and v * v <= -4.0 * math.log(u) * u * u):
            return mean + std * (v / u)


def _open_uniform(rng):
    """One draw from (0, 1): the stream's rare 1.0 is redrawn, so every other
    draw, and the sequence after it, is unchanged."""
    u = uniform(rng)
    while u == 1.0:
        u = uniform(rng)
    return u


def alpha_stable(rng, tail, skew=0.0, scale=1.0, location=0.0):
    """One S(tail, skew, scale, location) draw by the Chambers-Mallows-Stuck
    construction (an angle, then an exponential uniform)."""
    angle = _open_uniform(rng)
    return _stable_draws(tail, skew, scale, location, [angle], [_open_uniform(rng)])[0]


def quadratic_loss_grad(theta, a_mat, b):
    """The dense quadratic f = 0.5 theta' A theta - b' theta and its gradient
    A theta - b, for one theta or a stack of them (one per seed, along the
    leading axes); `problems.quadratic_loss_grad` is its case A = diag(d),
    b = 0, the one quadratic a config builds."""
    a_theta = np.matmul(a_mat, theta[..., None])[..., 0]
    return 0.5 * np.vecdot(theta, a_theta) - np.vecdot(b, theta), a_theta - b


def delta_radius(cfg, grad_bound, alpha_max=None):
    """Fixed point R = mu0 * max(1, (delta + R)^(1 - alpha_max)) * G.

    This is the consecutive-iterate bound; the max with 1 covers the first
    classical step, whose scaling factor is exactly 1.
    """
    if alpha_max is None:
        alpha_max = cfg.alpha0
    r = cfg.mu0 * grad_bound
    for _ in range(100):
        c_delta = max(1.0, (cfg.delta + r) ** (1.0 - alpha_max))
        r_next = cfg.mu0 * c_delta * grad_bound
        if abs(r_next - r) <= 1e-15 * max(1.0, r):
            r = r_next
            break
        r = r_next
    return r


def adapt_alpha(dzeta, d_max, cfg):
    """`sed.adapt_alpha` as one array formula: the per-layer dimensions
    `dzeta` on the last axis, seeds on any leading ones, and their running
    maximum `d_max` (one per seed, on a last axis of length 1)."""
    return np.maximum(cfg.alpha0 - cfg.beta * dzeta / (d_max + (d_max <= 0.0)),
                      cfg.alpha_min)


def exponents(logdets, dims, d_max, cfg):
    """`sed.exponents` as array formulas: from log-dets (seeds, layers) and
    the running maximum before the step (seeds,), the dimensions, the new
    running maximum and the exponents, as numpy arrays."""
    dzeta = np.stack([two_sed(logdets[:, j], d, cfg) for j, d in enumerate(dims)], axis=-1)
    peak = np.maximum(d_max, dzeta.max(axis=-1))
    return dzeta, peak, adapt_alpha(dzeta, peak[:, None], cfg)


def logdet_plus(m, s, diagonal=False):
    """`mathkit.logdet_plus` in its first order: the eigenvalues reversed
    into non-increasing order before the elementwise chain, not after."""
    w = m if diagonal else np.linalg.eigvalsh(m)[..., ::-1]
    return np.log1p(s * np.sqrt(np.maximum(w, 0.0))).sum(axis=-1)


def step(layers, steps, grads, mu, alphas, cfg):
    """`optim.step` out of place, one seed and layer at a time: theta -
    (mu / Gamma(2 - alpha)) * ((|Delta theta| + delta)^(1 - alpha) * g), or
    with the layer's step norm in "layer-norm" mode; returns the new layers
    and their steps new - theta."""
    new_layers, new_steps = [], []
    for j, (th, d, g) in enumerate(zip(layers, steps, grads)):
        new = np.empty_like(th)
        for k in range(len(th)):
            a = alphas[j][k]
            base = (norm([d[k]]) if cfg.scaling_mode == "layer-norm" else np.abs(d[k]))
            new[k] = th[k] - (mu / math.gamma(2.0 - a)) * ((base + cfg.delta) ** (1.0 - a) * g[k])
        new_layers.append(new)
        new_steps.append(new - th)
    return new_layers, new_steps


def run_one(config):
    """The trace rows of `harness.run(config)`, a run of one seed of the AR
    or quadratic problem, from the equations, one step at a time. Step t
    takes the loss and gradient at theta_{t-1}, clips the gradient to
    global norm `grad_clip`, and from step 2 on folds it into a dense EMA
    Fisher block F <- (1 - gamma) F + gamma g g^T (the classical first step
    folds nothing). The block's two-scale dimension comes from the
    eigenvalues of F scaled to trace d (if `normalize_fisher`), d_max is the
    running maximum from the row before, and the exponent is 1 at step 1 and
    for sgd, alpha0 for fosgd and alpha0 - beta * d_zeta / d_max, at least
    alpha_min, for 2sedfosgd. Then the out-of-place step (`step`). Raises
    the DivergenceError of a run whose loss, gradient or parameters turn
    non-finite, or whose |g|^2 overflows."""
    rng, t_max = RngStream(config.seed), config.iterations
    if config.problem == "ar":
        coeffs = np.asarray(config.ar_coeffs, dtype=float)
        draw = ((lambda: gaussian(rng, 0.0, config.noise_std)) if config.noise == "gaussian"
                else lambda: alpha_stable(rng, config.stable_tail, config.stable_skew,
                                          config.stable_scale, config.stable_location))
        phi, y = ar_generate(coeffs, [draw() for _ in range(t_max + coeffs.size)])
        theta = np.zeros(coeffs.size)

        def loss_grad(theta, t):
            e = y[t - 1] - phi[t - 1] @ theta
            return 0.5 * e * e, -e * phi[t - 1]

        def metrics(theta):
            return [*np.abs(theta - coeffs), np.linalg.norm(theta - coeffs)]
    else:
        diag = np.asarray(config.quad_diag, dtype=float)
        noise = [[gaussian(rng, 0.0, config.quad_noise_std) for _ in diag] for _ in range(t_max)]
        theta = np.ones(diag.size)

        def loss_grad(theta, t):
            return 0.5 * theta @ (diag * theta), diag * theta + noise[t - 1]

        def metrics(theta):  # the gap: the minimum is 0, at the origin
            return [0.5 * theta @ (diag * theta)]

    d, gamma = theta.size, config.fisher_decay
    s = config.epsilon ** (config.zeta - 1.0)
    fisher, last_step, d_max, rows = np.zeros((d, d)), np.zeros(d), 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, t_max + 1):
            mu = config.mu0 if t == 1 else config.mu0 / math.sqrt(t - 1)
            loss, g = loss_grad(theta, t)
            if config.grad_clip is not None:
                g = g * (config.grad_clip / max(np.linalg.norm(g), config.grad_clip))
            if not (math.isfinite(loss) and math.isfinite(g @ g)):
                raise DivergenceError(f"non-finite loss or gradient at step {t}", t)
            alpha, dzeta = 1.0, 0.0
            if t > 1:
                fisher = (1.0 - gamma) * fisher + gamma * np.outer(g, g)
                trace = np.trace(fisher)
                m = fisher if not config.normalize_fisher else (
                    d / trace * fisher if trace > 1e-12 else 0.0 * fisher)
                # after k < d folds from zero F has rank k: its d - k least
                # eigenvalues are 0, which a dense solve leaves at about eps |F|
                w = np.linalg.eigvalsh(m)[::-1][:t - 1]
                d_curv = np.log1p(s * np.sqrt(np.maximum(w, 0.0))).sum() / abs(math.log(s))
                dzeta = config.zeta * d + (1.0 - config.zeta) * d_curv
                d_max = max(d_max, dzeta)
                alpha = {"sgd": 1.0, "fosgd": config.alpha0}.get(
                    config.optimizer, max(config.alpha0 - config.beta * dzeta / d_max,
                                          config.alpha_min))
            (new,), (moved,) = step([theta[None]], [last_step[None]], [g[None]], mu,
                                    [[alpha]], config)
            theta, last_step = new[0], moved[0]
            if not np.isfinite(theta).all():
                raise DivergenceError(f"non-finite parameters in layer 0 at step {t}", t)
            rows.append([t, mu, loss, alpha, dzeta, np.linalg.norm(last_step), d_max,
                         *metrics(theta)])
    if not math.isfinite(rows[-1][-1]):  # the quadratic's last gap is the loss at T + 1
        raise DivergenceError(f"non-finite loss or gradient at step {t_max + 1}", t_max + 1)
    return np.array(rows)
