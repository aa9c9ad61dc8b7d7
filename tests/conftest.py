from fractions import Fraction
from itertools import islice

import pytest

from aqrm.gfunction import _k_terms


def exact_k(N: int, g: float, delta: float, n_stop: int) -> list[Fraction]:
    """K_N..K_{n_stop} in exact rational arithmetic at Fraction(g) and
    Fraction(delta): shares no rounding with the double-precision series."""
    g2x4, d2 = 4 * Fraction(g) ** 2, Fraction(delta) ** 2
    ks = [Fraction(0), Fraction(1)]
    for n in range(N + 1, n_stop):
        ks.append(((g2x4 + n - N + d2 / (N - n)) * ks[-1] - g2x4 * ks[-2])
                  / (n + 1))
    return ks


@pytest.fixture
def assert_k_exact():
    """Check K_{N+1}..K_{n_stop} from gfunction._k_terms against exact_k to
    1e-12, relative above 1 and absolute below."""
    def check(N, g, delta, n_stop):
        want = exact_k(N, g, delta, n_stop)[1:]
        got = list(islice(_k_terms(N, g, delta), len(want)))
        assert [n for n, _ in got] == list(range(N + 1, n_stop + 1))
        for (n, k), w in zip(got, want):
            err = abs(Fraction(k) - w)
            assert err <= 1e-12 * max(1, abs(w)), (N, g, delta, n, float(err))
    return check
