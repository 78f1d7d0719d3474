"""Univariate polynomials with exchangeable coefficient rings.

Coefficients may be complex floats, GaussianRationals, or MultiPolys
(for families of polynomials depending on parameters). Pseudo-division
and the subresultant remainder sequence work over any exact ring
without introducing fractions, and give the square-free part of a
monic polynomial over GaussianRational and MultiPoly alike.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, one_like, zero_like
from .scalars import GaussianRational

#: a floating leading coefficient c counts as one when
#: |c - 1| <= MONIC_REL_TOL * (1 + |c|)
MONIC_REL_TOL = 1e-12


def _coerce(c):
    if isinstance(c, (MultiPoly, GaussianRational)):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c)
    return complex(c)


class UniPoly:
    """Dense coefficient list, index = power of the indeterminate."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [_coerce(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zero(cls):
        return cls([])

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        """Leading coefficient exactly one on exact rings; within
        MONIC_REL_TOL of one on floats."""
        if self.is_zero():
            return False
        lead = self.leading
        if isinstance(lead, (GaussianRational, MultiPoly)):
            return lead == one_like(lead)
        return abs(lead - 1.0) <= MONIC_REL_TOL * (1 + abs(lead))

    def coeffs_nonzero(self):
        return [c for c in self.coeffs if c]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return UniPoly([x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):])

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        zero = zero_like(self.coeffs[0])
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def scale(self, c):
        return UniPoly([a * c for a in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    # -- evaluation ---------------------------------------------------------

    def eval(self, x):
        """Horner evaluation; x may be any scalar compatible with coeffs."""
        if self.is_zero():
            return 0 * x
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"UniPoly({self.coeffs!r})"


def derivative(p: UniPoly) -> UniPoly:
    """Formal derivative; degree drops by exactly 1 for nonconstant input."""
    if p.degree < 1:
        return UniPoly.zero()
    return UniPoly([p.coeffs[k] * k for k in range(1, len(p.coeffs))])


def pseudo_divmod(a: UniPoly, b: UniPoly):
    """Pseudo-division over a ring: lc(b)**(deg a - deg b + 1) * a = q*b + r.

    Uses no division at all, so it is valid over MultiPoly coefficients.
    """
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    d = a.degree - b.degree
    if d < 0:
        return UniPoly.zero(), a
    c = b.leading
    q = UniPoly.zero()
    r = UniPoly(list(a.coeffs))
    steps = 0
    while not r.is_zero() and r.degree >= b.degree:
        k = r.degree - b.degree
        t = UniPoly([zero_like(r.leading)] * k + [r.leading])
        q = q.scale(c) + t
        r = r.scale(c) - t * b
        steps += 1
    # pad so the multiplier is exactly lc(b)**(d+1) regardless of early exit
    for _ in range(d + 1 - steps):
        q = q.scale(c)
        r = r.scale(c)
    return q, r


def subresultant_prs(f: UniPoly, g: UniPoly):
    """Subresultant polynomial remainder sequence (Collins/Brown form).

    Controls coefficient growth over MultiPoly coefficients without
    computing any gcds along the way; every division below is exact in
    the coefficient ring.
    """
    if f.degree < g.degree:
        f, g = g, f
    seq = [f, g]
    a, b = f, g
    one = one_like(f.leading)
    gg = one
    h = one
    while True:
        delta = a.degree - b.degree
        _, r = pseudo_divmod(a, b)
        if r.is_zero():
            break
        divisor = gg * h**delta
        r = UniPoly([c / divisor for c in r.coeffs])
        seq.append(r)
        a, b = b, r
        gg = a.leading
        if delta == 1:
            h = gg
        elif delta > 1:
            h = gg**delta / h ** (delta - 1)
    return seq


def subresultant_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Last element of the subresultant PRS: a gcd up to content."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    return subresultant_prs(f, g)[-1]


def square_free_part(p: UniPoly) -> UniPoly:
    """The square-free part q0 = p / gcd(p, p') of a monic p of degree >= 1
    over an exact ring: monic, with the zeros of p, each simple.

    The gcd g comes from a subresultant remainder sequence. p is monic, so
    by Gauss's lemma the primitive part of g is monic up to a unit and g's
    content is its leading coefficient: g divided by it (``/``, which is
    ``exact_div`` on MultiPoly) is monic, and the pseudo-division of p by
    it is exact, with multiplier one.
    """
    g = subresultant_gcd(p, derivative(p))
    lead = g.leading
    g = UniPoly([c / lead for c in g.coeffs])
    q0, remainder = pseudo_divmod(p, g)
    if not remainder.is_zero():
        raise ArithmeticError(
            "gcd of the remainder sequence does not divide the polynomial "
            "(non-generic content)"
        )
    return q0
