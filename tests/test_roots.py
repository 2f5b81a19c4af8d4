"""Property tests: Sturm root counting and isolation against sympy's real
roots, on integer polynomials with negative leading coefficients, repeated
factors and dyadic roots."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from trifree import Poly, isolate_roots  # noqa: E402
from trifree.search import _descartes_no_root_in_unit_interval, count_roots  # noqa: E402

# derandomized: the same examples on every run, no example database on disk
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
X = sympy.Symbol("x")
TOL = Fraction(1, 2**20)


@st.composite
def integer_polys(draw):
    """A random integer factor times one to three powers of linear factors
    b*p - a, most with dyadic roots a/b, and a random overall sign."""
    f = Poly(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    if f.is_zero():
        f = Poly.one()
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.sampled_from((1, 2, 4, 8, 3, 5)))
        a = draw(st.integers(-2 * b, 2 * b))
        f = f * Poly((-a, b)) ** draw(st.integers(1, 3))
    return f if draw(st.booleans()) else -f


@st.composite
def dyadic_intervals(draw):
    lo = Fraction(draw(st.integers(-20, 12)), 8)
    return lo, lo + Fraction(draw(st.integers(1, 32)), 8)


def as_sympy(f: Poly):
    return sympy.Poly(list(reversed(f.coeffs)), X)


def as_rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


@PROPERTY
@given(integer_polys(), dyadic_intervals())
def test_count_roots_matches_sympy(f, interval):
    lo, hi = interval
    oracle = as_sympy(f)
    # sympy counts distinct roots on the closed [lo, hi]; count_roots on (lo, hi]
    closed = oracle.count_roots(as_rational(lo), as_rational(hi))
    assert count_roots(f, lo, hi) == closed - (oracle.eval(as_rational(lo)) == 0)


@PROPERTY
@given(integer_polys(), dyadic_intervals())
def test_isolate_roots_encloses_each_sympy_root_once(f, interval):
    lo, hi = interval
    oracle = as_sympy(f)
    if oracle.eval(as_rational(lo)) == 0 or oracle.eval(as_rational(hi)) == 0:
        with pytest.raises(ValueError):
            isolate_roots(f, lo, hi, TOL)
        return
    inside = [r for r in set(sympy.real_roots(oracle)) if as_rational(lo) < r < as_rational(hi)]
    intervals = isolate_roots(f, lo, hi, TOL)
    assert len(intervals) == len(inside)
    for prev, cur in zip(intervals, intervals[1:]):
        assert prev.hi <= cur.lo
    for r in intervals:
        assert r.hi - r.lo <= TOL
        a, b = as_rational(r.lo), as_rational(r.hi)
        assert sum(1 for x in inside if a <= x <= b) == 1


@PROPERTY
@given(integer_polys())
def test_descartes_test_never_hides_a_unit_interval_root(f):
    if _descartes_no_root_in_unit_interval(f):
        assert as_sympy(f).count_roots(0, 1) == (f[0] == 0) + (f.sign_at(1) == 0)
