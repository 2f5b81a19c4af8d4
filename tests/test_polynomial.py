from fractions import Fraction

import pytest

from conftest import fraction_divmod, fraction_eval
from trifree import Poly


def test_normalization_strips_trailing_zeros():
    assert Poly((1, 0, 2, 0, 0)).coeffs == (1, 0, 2)
    assert Poly((0, 0)).coeffs == ()
    assert Poly.zero().is_zero()
    assert Poly.one().degree == 0


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        Poly((1, 0.5))


def test_arithmetic():
    a = Poly((1, 2, 3))
    b = Poly((0, 1))
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - a).is_zero()
    assert (a * b).coeffs == (0, 1, 2, 3)
    assert (b**3).coeffs == (0, 0, 0, 1)
    assert a.scale(-2).coeffs == (-2, -4, -6)
    assert b.shift(2).coeffs == (0, 0, 0, 1)


def test_one_minus_x_power():
    assert Poly.one_minus_x_power(0) == Poly.one()
    assert Poly.one_minus_x_power(3).coeffs == (1, -3, 3, -1)


def test_eval_horner():
    p = Poly((1, 0, 0, -3, 0, 3, 0, -1))
    assert p.eval(0) == 1
    assert p.eval(Fraction(1, 2)) == Fraction(91, 128)
    assert p.eval(1) == 0
    assert Poly.zero().eval(Fraction(-5, 3)) == 0


def test_sign_at_matches_eval():
    p = Poly((1, 0, 0, -3, 0, 3, 0, -1))  # a root at 1
    for x in (0, 1, 2, -1, Fraction(1, 2), Fraction(-7, 3), Fraction(5, 4)):
        v = p.eval(x)
        assert p.sign_at(x) == (v > 0) - (v < 0)
    assert Poly((-1, 2)).sign_at(Fraction(1, 2)) == 0
    assert Poly.zero().sign_at(Fraction(3, 7)) == 0
    assert Poly((-5,)).sign_at(9) == -1


def test_exact_division():
    # (1-p)^3 * (1 + p + p^2) recovered by quotient
    prod = Poly.one_minus_x_power(3) * Poly((1, 1, 1))
    assert Poly.one_minus_x_power(3).divides(prod)
    assert prod.quotient(Poly.one_minus_x_power(3)) == Poly((1, 1, 1))
    assert not Poly((1, 1)).divides(Poly((1, 0, 1)))
    with pytest.raises(ValueError, match="remainder"):
        Poly((1, 0, 1)).quotient(Poly((1, 1)))
    # divides means "over the rationals"; quotient needs integer coefficients
    assert Poly((2,)).divides(Poly((1, 1)))
    with pytest.raises(ValueError, match="non-integer"):
        Poly((1, 1)).quotient(Poly((2,)))
    assert Poly.zero().quotient(Poly((1, 1))) == Poly.zero()
    assert Poly.zero().divides(Poly.zero())
    with pytest.raises(ZeroDivisionError):
        Poly((1,)).quotient(Poly.zero())
    with pytest.raises(ZeroDivisionError):
        Poly.zero().divides(Poly((1,)))


def test_divmod_random_reconstruction():
    import random

    rng = random.Random(99)
    for _ in range(50):
        a = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
        b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        assert (a * b).quotient(b) == a
        assert b.divides(a * b)
        quot, rem = fraction_divmod(a.coeffs, b.coeffs)
        # the oracle's a == q*b + r over the rationals, deg r < deg b
        x = Fraction(7, 11)
        assert a.eval(x) == fraction_eval(quot, x) * b.eval(x) + fraction_eval(rem, x)
        assert len(rem) < len(b.coeffs)
        exact = not rem and all(q.denominator == 1 for q in quot)
        assert b.divides(a) == (not rem)
        if exact:
            assert a.quotient(b) == Poly([q.numerator for q in quot])
        else:
            with pytest.raises(ValueError):
                a.quotient(b)


def test_derivative():
    assert Poly((5, 1, 0, 2)).derivative().coeffs == (1, 0, 6)
    assert Poly((7,)).derivative().is_zero()


def test_text_rendering():
    assert Poly((1, 0, 0, -3, 0, 3, 0, -1)).to_text() == "1 - 3*p^3 + 3*p^5 - p^7"
    assert Poly((0, 1)).to_text() == "p"
    assert Poly((0, -2)).to_text() == "-2*p"
    assert Poly((-1, 0, 1)).to_text() == "-1 + p^2"
    assert Poly.zero().to_text() == "0"
    assert Poly((1, 0, 0, -6, 0, 9, 6, -14, -3, 12, -6, 1)).to_text() == (
        "1 - 6*p^3 + 9*p^5 + 6*p^6 - 14*p^7 - 3*p^8 + 12*p^9 - 6*p^10 + p^11"
    )


def test_json_roundtrip():
    p = Poly((1, 0, -3, 10**40))
    d = p.to_json_dict()
    assert d["coeffs"][-1] == str(10**40)
    assert Poly.from_json_dict(d) == p
