"""Property tests over random parameters (hypothesis)."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from aqrm.constraint import find_crossings
from aqrm.spectrum import confirm_crossings

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
