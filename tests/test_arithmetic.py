"""Property tests: integer evaluation of polynomials and independence
profiles against the Fraction oracles, at 0, 1, negative rationals and
denominators up to 2^64."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import fraction_bernstein, fraction_eval  # noqa: E402
from trifree import IndependenceProfile, Poly  # noqa: E402

# derandomized: the same examples on every run, no example database on disk
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
BIG = 1 << 64

# the empty list is the zero polynomial; trailing zeros are stripped by Poly
coefficient_lists = st.lists(st.integers(-(10**12), 10**12), max_size=14)


@st.composite
def rationals(draw):
    """0, 1, -1 and rationals with either sign and denominators up to 2^64."""
    if draw(st.booleans()):
        return draw(st.sampled_from((0, 1, -1, Fraction(0), Fraction(1))))
    return Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))


@st.composite
def unit_rationals(draw):
    """0, 1 and rationals in [0, 1] with denominators up to 2^64."""
    if draw(st.booleans()):
        return draw(st.sampled_from((0, 1, Fraction(0), Fraction(1))))
    b = draw(st.integers(1, BIG))
    return Fraction(draw(st.integers(0, b)), b)


@st.composite
def profiles(draw):
    """Nonnegative counts on up to v + 1 sizes, as for v vertices."""
    v = draw(st.integers(0, 16))
    counts = draw(st.lists(st.integers(0, 1 << 40), max_size=v + 1))
    return IndependenceProfile(v, tuple(counts))


@PROPERTY
@given(coefficient_lists, rationals())
def test_eval_matches_fraction_horner(coeffs, p):
    value = Poly(coeffs).eval(p)
    assert type(value) is Fraction
    assert value == fraction_eval(coeffs, p)


@PROPERTY
@given(profiles(), unit_rationals())
def test_probability_matches_fraction_bernstein(profile, p):
    value = profile.probability(p)
    assert type(value) is Fraction
    assert value == fraction_bernstein(profile.counts, profile.vertex_count, p)


@PROPERTY
@given(profiles(), st.integers(1, BIG), st.integers(1, BIG))
def test_probability_rejects_p_outside_the_unit_interval(profile, a, b):
    for p in (Fraction(-a, b), 1 + Fraction(a, b)):
        with pytest.raises(ValueError):
            profile.probability(p)


def test_profile_rejects_impossible_shapes():
    # a negative power would turn the integer sum into a float
    for v, counts in ((1, (1, 2, 3)), (-1, ())):
        with pytest.raises(ValueError):
            IndependenceProfile(v, counts)
