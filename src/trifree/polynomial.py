"""Dense univariate polynomials with arbitrary-precision integer coefficients.

Coefficients are plain Python ints (exact at any size); evaluation returns
``fractions.Fraction``.  This is all the symbolic machinery the package
needs: probability polynomials in p, their differences, exact division for
factorization checks, and the integer primitive remainders that Sturm
chains are built from.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd


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

    def eval(self, p) -> Fraction:
        """Exact value at a rational point (Horner)."""
        p = Fraction(p)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(j * c for j, c in enumerate(self.coeffs) if j >= 1))

    def divmod_exact(self, divisor: "Poly"):
        """Quotient and remainder over the rationals.

        Returns (quotient, remainder) as Fraction-coefficient lists; use
        :meth:`divides` for the common "does it factor" question.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        div = [Fraction(c) for c in divisor.coeffs]
        dq = len(rem) - len(div)
        if dq < 0:
            return [], rem
        quot = [Fraction(0)] * (dq + 1)
        lead = div[-1]
        for k in range(dq, -1, -1):
            q = rem[len(div) - 1 + k] / lead
            quot[k] = q
            if q:
                for j, d in enumerate(div):
                    rem[j + k] -= q * d
        while rem and rem[-1] == 0:
            rem.pop()
        return quot, rem

    def divides(self, dividend: "Poly") -> bool:
        """True iff self divides dividend exactly (zero remainder)."""
        if dividend.is_zero():
            return True
        _, rem = dividend.divmod_exact(self)
        return not rem

    def quotient(self, divisor: "Poly") -> "Poly":
        """Exact quotient; raises ValueError if the division leaves a remainder
        or a non-integer coefficient."""
        quot, rem = self.divmod_exact(divisor)
        if rem:
            raise ValueError("division leaves a remainder")
        out = []
        for q in quot:
            if q.denominator != 1:
                raise ValueError("quotient has non-integer coefficients")
            out.append(q.numerator)
        return Poly(out)

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

    @classmethod
    def from_json_dict(cls, d: dict) -> "Poly":
        return cls(tuple(int(s) for s in d["coeffs"]))
