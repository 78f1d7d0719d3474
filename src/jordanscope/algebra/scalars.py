"""Exact complex scalars with rational real and imaginary parts."""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational components.

    All arithmetic is exact, equality is exact, and instances are
    treated as immutable (do not assign to ``re``/``im`` after
    construction). ``Fraction`` keeps denominators positive and in
    lowest terms, which is what makes ``==`` and ``hash`` reliable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n2 = other.re * other.re + other.im * other.im
        if not n2:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        result = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparisons / conversions ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        if self.im == 1:
            im_part = "i"
        elif self.im == -1:
            im_part = "-i"
        else:
            im_part = f"{self.im}*i"
        if not self.re:
            return im_part
        sign = "-" if im_part.startswith("-") else "+"
        return f"{self.re}{sign}{im_part.lstrip('-')}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
