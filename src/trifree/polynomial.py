"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Coefficients are plain Python ints (exact at any size) and the arithmetic
stays in integers: evaluation at a/b is an integer Horner sum made into one
``fractions.Fraction``, and exact division is integer long division.  This
is all the symbolic machinery the package needs: probability polynomials in
p, their differences, exact division for factorization checks, and the
integer primitive remainders that Sturm chains are built from.

A yes/no question about values, such as "is f(p) > g(p)?", is asked as the
sign of one difference, (f - g).sign_at(p): an integer Horner sum whose
sign is the answer, with no Fraction built.  eval is for values that are
reported.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


def check_probability(p, interior: bool = False) -> Fraction:
    """The one probability-range check: p as a Fraction if it lies in
    [0, 1] (strictly inside (0, 1) if interior is True); else ValueError."""
    p = Fraction(p)
    if interior and not 0 < p < 1:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p


class Poly:
    """Polynomial sum(coeffs[j] * p**j); trailing zero coefficients stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c).__name__}")
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def one_minus_x_power(cls, e: int) -> "Poly":
        """(1 - p)**e expanded via the binomial theorem."""
        if e < 0:
            raise ValueError("negative exponent")
        return cls(tuple((-1) ** j * comb(e, j) for j in range(e + 1)))

    # -- basics --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, j: int) -> int:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, c: int) -> "Poly":
        return Poly(tuple(c * a for a in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by p**k."""
        if not self.coeffs:
            return self
        return Poly((0,) * k + self.coeffs)

    def _horner(self, a: int, b: int) -> tuple[int, int]:
        """(sum_k c_k a^k b^(d-k), b^(d+1)); (0, 1) for the zero polynomial."""
        acc, den = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * den
            den *= b
        return acc, den

    def eval(self, p) -> Fraction:
        """Exact value at a rational point a/b: the integer Horner sum
        sum_k c_k a^k b^(d-k), over b^d."""
        p = Fraction(p)
        acc, den = self._horner(p.numerator, p.denominator)
        return Fraction(acc * p.denominator, den)

    def sign_at(self, p) -> int:
        """Sign (-1, 0 or 1) of the value at a rational p (int or Fraction):
        the sign of the integer Horner sum, with no Fraction built."""
        acc, _ = self._horner(p.numerator, p.denominator)
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "Poly":
        return Poly(tuple(j * c for j, c in enumerate(self.coeffs) if j >= 1))

    def divides(self, dividend: "Poly") -> bool:
        """True iff self divides dividend over the rationals."""
        return dividend.is_zero() or dividend.primitive_rem(self).is_zero()

    def quotient(self, divisor: "Poly") -> "Poly":
        """Exact quotient by integer long division; raises ValueError when a
        leading coefficient does not divide or a remainder is left."""
        b = divisor.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(b) + 1)
        for k in reversed(range(len(quot))):
            q, r = divmod(rem[k + len(b) - 1], b[-1])
            if r:
                raise ValueError("quotient has non-integer coefficients")
            quot[k] = q
            for j, c in enumerate(b):
                rem[j + k] -= q * c
        if any(rem):
            raise ValueError("division leaves a remainder")
        return Poly(quot)

    def primitive(self) -> "Poly":
        """self divided by the positive gcd of its coefficients."""
        g = gcd(*self.coeffs)
        return self if g <= 1 else Poly(tuple(c // g for c in self.coeffs))

    def primitive_rem(self, divisor: "Poly") -> "Poly":
        """Primitive part of a pseudo-remainder of self by divisor.

        Each reduction step first scales the running remainder by
        |lc(divisor)|, never by lc(divisor) itself: the result is a
        positive multiple of the rational remainder, so it has the same
        sign at every point, which Sturm chains rely on.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = divisor.coeffs
        lead = b[-1]
        scale, sign = abs(lead), (1 if lead > 0 else -1)
        rem = list(self.coeffs)
        while len(rem) >= len(b):
            q = sign * rem[-1]
            k = len(rem) - len(b)
            rem = [scale * c for c in rem]
            for j, c in enumerate(b):
                rem[j + k] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(rem).primitive()

    # -- rendering -------------------------------------------------------

    def to_text(self) -> str:
        """Human form, ascending degree, zero terms omitted: "1 - 3*p^3 + p^7"."""
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "p" if j == 1 else f"p^{j}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        """JSON form with decimal-string coefficients (safe for big ints)."""
        return {"coeffs": [str(c) for c in self.coeffs]}
