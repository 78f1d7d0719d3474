"""Univariate polynomials with exchangeable coefficient rings.

Coefficients may be complex floats, GaussianRationals, or MultiPolys
(for families of polynomials depending on parameters). Exact-field
algorithms (Euclidean gcd, the square-free oracle) require exact
scalars; the subresultant remainder sequence works over the MultiPoly
ring without introducing fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, one_like, zero_like
from .scalars import GaussianRational

#: a floating leading coefficient c counts as one when
#: |c - 1| <= MONIC_REL_TOL * (1 + |c|)
MONIC_REL_TOL = 1e-12


def _is_zero_scalar(x) -> bool:
    if isinstance(x, (MultiPoly, GaussianRational)):
        return x.is_zero()
    return x == 0


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
        while coeffs and _is_zero_scalar(coeffs[-1]):
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def from_roots(cls, roots, one=None):
        """Monic product of (x - r) over the given roots (with repeats)."""
        roots = list(roots)
        one = one if one is not None else (one_like(roots[0]) if roots else 1.0)
        p = cls([one])
        for r in roots:
            p = p * cls([-_coerce(r), one])
        return p

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

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        if self.coeffs:
            return zero_like(self.coeffs[0])
        return 0.0

    def coeffs_nonzero(self):
        return [c for c in self.coeffs if not _is_zero_scalar(c)]

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            a = self.coeff(k) if k < len(self.coeffs) else None
            b = other.coeff(k) if k < len(other.coeffs) else None
            if a is None:
                out.append(b)
            elif b is None:
                out.append(a)
            else:
                out.append(a + b)
        return UniPoly(out)

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
            if _is_zero_scalar(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def scale(self, c):
        return UniPoly([a * c for a in self.coeffs])

    def shift(self, k: int):
        """Multiply by x**k."""
        if self.is_zero() or k == 0:
            return self
        zero = zero_like(self.coeffs[0])
        return UniPoly([zero] * k + self.coeffs)

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


class MonicPoly(UniPoly):
    """UniPoly whose leading coefficient is one.

    Exact coefficients must be exactly one; floating inputs are
    normalized by the leading coefficient on construction.
    """

    def __init__(self, coeffs):
        super().__init__(coeffs)
        if self.is_zero():
            raise ValueError("monic polynomial cannot be the zero polynomial")
        lead = self.coeffs[-1]
        if isinstance(lead, (GaussianRational, MultiPoly)):
            if lead != one_like(lead):
                raise ValueError("leading coefficient is not exactly 1")
        else:
            if lead == 0:
                raise ValueError("zero leading coefficient")
            if lead != 1.0:
                self.coeffs = [c / lead for c in self.coeffs]
                self.coeffs[-1] = 1.0 + 0j


def derivative(p: UniPoly) -> UniPoly:
    """Formal derivative; degree drops by exactly 1 for nonconstant input."""
    if p.degree < 1:
        return UniPoly.zero()
    return UniPoly([p.coeffs[k] * k for k in range(1, len(p.coeffs))])


def divmod_field(a: UniPoly, b: UniPoly):
    """Quotient and remainder over a field (exact or floating scalars)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return UniPoly.zero(), a
    lead = b.leading
    q = {}
    rem = UniPoly(list(a.coeffs))
    while not rem.is_zero() and rem.degree >= b.degree:
        k = rem.degree - b.degree
        c = rem.leading / lead
        q[k] = c
        rem = rem - b.scale(c).shift(k)
    zero = zero_like(a.coeffs[0])
    qc = [zero] * (max(q) + 1 if q else 0)
    for k, c in q.items():
        qc[k] = c
    return UniPoly(qc), rem


def gcd_monic(a: UniPoly, b: UniPoly) -> UniPoly:
    """Euclidean gcd over an exact field, normalized monic."""
    r0, r1 = a, b
    while not r1.is_zero():
        _, r = divmod_field(r0, r1)
        r0, r1 = r1, r
    if r0.is_zero():
        return r0
    lead = r0.leading
    return r0.scale(one_like(lead) / lead)


def gcd_squarefree_oracle(p: UniPoly):
    """Distinct-zero count and square-free part of an exact monic polynomial.

    Returns ``(m, q0)`` where ``q0 = p / gcd(p, p')`` is monic with the
    same zero set as ``p`` but all zeros simple, and ``m = deg q0`` is
    the number of distinct zeros. This is the independent oracle the
    rank-based counting is tested against.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    if not all(isinstance(c, GaussianRational) for c in p.coeffs):
        raise ValueError("oracle requires exact coefficients")
    if not p.is_monic():
        raise ValueError("oracle requires a monic polynomial")
    g = gcd_monic(p, derivative(p))
    q0, rem = divmod_field(p, g)
    if not rem.is_zero():
        raise ArithmeticError("gcd does not divide p")  # cannot happen
    return q0.degree, MonicPoly(q0.coeffs)


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
        divisor = gg * _scalar_pow(h, delta)
        r = UniPoly([c / divisor for c in r.coeffs])
        seq.append(r)
        a, b = b, r
        gg = a.leading
        if delta == 1:
            h = gg
        elif delta > 1:
            h = _scalar_pow(gg, delta) / _scalar_pow(h, delta - 1)
    return seq


def subresultant_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Last element of the subresultant PRS: a gcd up to content."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    return subresultant_prs(f, g)[-1]


def _scalar_pow(c, k: int):
    if k == 0:
        return one_like(c)
    return c**k
