import math

import numpy as np
import pytest
from scipy.linalg import sqrtm

from sedfosgd.mathkit import logdet_plus


def random_psd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T


class TestLogdetPlus:
    def test_zero_matrix(self):
        for d in (1, 2, 5):
            assert logdet_plus(np.zeros((d, d)), 3.7) == 0.0

    def test_identity_closed_form(self):
        assert logdet_plus(np.eye(2), 3.0) == pytest.approx(2 * math.log(4.0), rel=1e-12)

    def test_against_lu_oracle(self):
        rng = np.random.default_rng(5)
        m = random_psd(rng, 4)
        got = logdet_plus(m, 2.0)
        sign, expected = np.linalg.slogdet(np.eye(4) + 2.0 * sqrtm(m))
        assert sign > 0
        assert got == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_monotone_in_scale(self):
        rng = np.random.default_rng(6)
        m = random_psd(rng, 3)
        values = [logdet_plus(m, s) for s in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)
