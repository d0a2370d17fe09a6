"""Reference formulas the tests and the acceptance gate check the package
against; the run loop never calls them."""


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
