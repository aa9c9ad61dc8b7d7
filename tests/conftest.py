from fractions import Fraction

import pytest


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
    """Check every stored K_n of a KSeries against exact_k to 1e-12,
    relative above 1 and absolute below."""
    def check(ks):
        want = exact_k(ks.N, ks.g, ks.delta, ks.n_stop)
        assert len(want) == len(ks.coeffs)
        for n, k in enumerate(want, start=ks.N):
            err = abs(Fraction(ks.k(n)) - k)
            assert err <= 1e-12 * max(1, abs(k)), (ks.N, ks.g, ks.delta, n,
                                                   float(err))
    return check
