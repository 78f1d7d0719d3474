"""Exact complex scalars with rational real and imaginary parts.

A ``GaussianRational`` stores three Python ints ``(a, b, d)`` for the
value ``(a + b*i) / d``, in the normal form ``d > 0`` and
``gcd(a, b, d) == 1``. The normal form is unique, so ``==`` compares
ints. A sum or product costs a few integer operations and at most one
three-way ``math.gcd``: a sum or product over denominator 1 takes none,
and a sum over equal denominators does no cross-multiplication.

Callers see the rational components, not the representation. ``re`` and
``im`` are ``Fraction``s, the hash is that of the pair ``(re, im)``, and
``complex()`` divides each numerator by ``d`` with int true division,
which is correctly rounded, as ``Fraction.__float__`` is. So every
value, every zero test and every float drawn from a scalar is the one
its two rational components give, and polynomials built from scalars
keep their term order and the bits of their evaluations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational components.

    All arithmetic is exact, equality is exact, and instances are
    immutable. ``GaussianRational(re, im)`` takes ints, ``Fraction``s or
    floats (converted exactly).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        rn, rd = re.numerator, re.denominator
        imn, imd = im.numerator, im.denominator
        if rd == imd:
            self._a, self._b, self._d = rn, imn, rd
        else:
            # both pairs are in lowest terms, so the lcm is the least
            # common denominator and gcd(a, b, d) is already 1
            d = rd // gcd(rd, imd) * imd
            self._a, self._b, self._d = rn * (d // rd), imn * (d // imd), d

    # -- components --------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def ints(self) -> tuple:
        """(a, b, d) with the value (a + b*i)/d, d > 0 and gcd(a, b, d) == 1."""
        return self._a, self._b, self._d

    @staticmethod
    def from_ints(a: int, b: int, d: int) -> "GaussianRational":
        """The value (a + b*i)/d of ints with d > 0."""
        return _normal(a, b, d)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_one(self) -> bool:
        return self._a == 1 and self._d == 1 and not self._b

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self._d
        if d == other._d:
            a = self._a + other._a
            b = self._b + other._b
            if d == 1:
                return _raw(a, b, 1)
        else:
            od = other._d
            a = self._a * od + other._a * d
            b = self._b * od + other._b * d
            d *= od
        return _normal(a, b, d)

    __radd__ = __add__

    def __sub__(self, other):
        other = other if other.__class__ is GaussianRational else _coerce(other)
        return NotImplemented if other is NotImplemented else self + -other

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = self._d * other._d
        if d == 1:
            return _raw(a, b, 1)
        return _normal(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2)
        #   = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n2 = a2 * a2 + b2 * b2
        if not n2:
            raise ZeroDivisionError("division by zero GaussianRational")
        d2 = other._d
        return _normal((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                       self._d * n2)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return GR_ONE / self ** (-k)
        result = GR_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons / conversions ----------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        d = self._d
        return complex(self._a / d, self._b / d)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if im == 1:
            im_part = "i"
        elif im == -1:
            im_part = "-i"
        else:
            im_part = f"{im}*i"
        if not re:
            return im_part
        sign = "-" if im_part.startswith("-") else "+"
        return f"{re}{sign}{im_part.lstrip('-')}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _raw(a, b, d):
    """The value (a + b*i)/d, for (a, b, d) already in normal form."""
    out = _new(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _normal(a, b, d):
    """The value (a + b*i)/d for d > 0, brought to normal form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


def _coerce(x):
    """``x`` as a GaussianRational if it is an int or Fraction."""
    if isinstance(x, int):
        return _raw(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _raw(x.numerator, 0, x.denominator)
    return NotImplemented


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
