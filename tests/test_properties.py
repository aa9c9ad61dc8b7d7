"""Property tests over random parameters (hypothesis)."""
from fractions import Fraction

from hypothesis import Phase, assume, given, settings, strategies as st

from aqrm.constraint import find_crossings
from aqrm.confirm import confirm_crossings

PREC = Fraction(1, 10**12)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 12), two_eps=st.integers(-3, 3),
       d=st.fractions(min_value=Fraction(1, 1000), max_value=100,
                      max_denominator=1000))
def test_every_exact_crossing_is_a_numerical_degeneracy(N, two_eps, d):
    # every isolated root of P_N is a level crossing of the truncated
    # spectrum, at lambda = N - g^2 + eps
    records = find_crossings(N, two_eps, d, PREC)
    for rec, obs in zip(records, confirm_crossings(records)):
        assert not isinstance(obs, ValueError), obs
        assert obs.gap < 1e-7
        assert abs(obs.lambda_star - rec.lambda_) < 1e-7


def sign_changes(N: int, two_eps: int, d: Fraction, x: Fraction) -> int:
    """V(x): the sign changes of (P_0(x), ..., P_N(x)) at fixed d, zeros
    dropped. Written here from the recurrence
    P_k = (k x + d - k^2 - k ell) P_{k-1} - k(k-1)(N-k+1) x P_{k-2},
    ell = 2 eps, and not through constraint: with x = u/v and d = p/q the
    integers Q_k = (v q)^k P_k have the signs of P_k."""
    u, v, p, q = x.numerator, x.denominator, d.numerator, d.denominator
    vq = v * q
    prev2, prev = 0, 1
    signs = [True]
    for k in range(1, N + 1):
        prev2, prev = prev, ((k * u * q + p * v - (k * k + k * two_eps) * vq)
                             * prev
                             - k * (k - 1) * (N - k + 1) * u * q * vq * prev2)
        if prev:
            signs.append(prev > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


# no shrink phase: shrinking a failure here takes minutes, and any failing
# draw is already a counterexample to report
@settings(max_examples=200, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(N=st.integers(1, 40), two_eps=st.integers(-2, 3),
       d=st.fractions(min_value=Fraction(1, 1000), max_value=100,
                      max_denominator=1000),
       start=st.integers(1, 1000), span=st.integers(1, 1000))
def test_sturm_count_matches_isolation(N, two_eps, d, start, span):
    # the recurrence behaves as a Sturm sequence on x > 0: V(a) - V(b) is the
    # number of roots of P_N in (a, b). Unproven; a counterexample is a
    # finding. 0 < a < b < 2 top; top = 4N + 8 lies above the largest
    # positive root at N <= 40, 2 eps in -2..3 and d in
    # {1/1000, 1/3, 7/3, 40, 100}
    top = 4 * N + 8
    a = Fraction(start * top, 1000)
    b = a + Fraction(span * top, 1000)
    intervals = [rec.root_interval
                 for rec in find_crossings(N, two_eps, d, Fraction(1, 16))]
    assume(not any(lo <= x <= hi for lo, hi in intervals for x in (a, b)))
    inside = sum(a < lo and hi < b for lo, hi in intervals)
    assert (sign_changes(N, two_eps, d, a) - sign_changes(N, two_eps, d, b)
            == inside)
