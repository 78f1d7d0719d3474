"""Sparse multivariate polynomials over Gaussian rationals.

Terms are stored as a map from exponent vectors (tuples of nonnegative
ints, one slot per parameter) to nonzero GaussianRational coefficients.
The graded-lex order on exponent vectors fixes leading terms, canonical
string output and the deterministic orderings used elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .scalars import GR_ONE, GR_ZERO, GaussianRational

#: floats per working array of a stacked evaluation: points are taken in
#: blocks of at most this many slot values, so memory stays bounded
BLOCK_CELLS = 2**15


class NonFiniteError(ValueError):
    """A floating value beyond the float64 range."""

    def __init__(self, message: str = "matrix has non-finite entries"):
        super().__init__(message)  # one argument, so that pickling works


def _grade_key(expo):
    return (sum(expo), expo)


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValueError(
                        f"exponent vector {expo} does not have length {nvars}"
                    )
                if not isinstance(coeff, GaussianRational):
                    coeff = GaussianRational(coeff)
                if coeff.is_zero():
                    continue
                expo = tuple(int(e) for e in expo)
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                clean[expo] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "MultiPoly":
        return cls.constant(nvars, GR_ONE)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        if not isinstance(value, GaussianRational):
            value = GaussianRational(value)
        if value.is_zero():
            return cls.zero(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): GR_ONE})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return GR_ZERO
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0,) * self.nvars]

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        expo = max(self.terms, key=_grade_key)
        return expo, self.terms[expo]

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("parameter count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for expo, c in other.terms.items():
            s = terms.get(expo, GR_ZERO) + c
            if s.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = s
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(expo, GR_ZERO) + c1 * c2
                if s.is_zero():
                    terms.pop(expo, None)
                else:
                    terms[expo] = s
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "MultiPoly":
        if not isinstance(c, GaussianRational):
            c = GaussianRational(c)
        if c.is_zero():
            return MultiPoly.zero(self.nvars)
        out = MultiPoly.__new__(MultiPoly)
        out.nvars = self.nvars
        out.terms = {e: k * c for e, k in self.terms.items()}
        return out

    def __truediv__(self, other):
        """Exact division by a nonzero integer, or by a polynomial that
        divides this one (:meth:`exact_div`)."""
        if isinstance(other, MultiPoly):
            return self.exact_div(other)
        if not isinstance(other, int):
            return NotImplemented
        return self.scale(Fraction(1, other))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient ``self / divisor``; raises if not divisible.

        Repeatedly cancels graded-lex leading terms, which terminates
        exactly when the quotient exists in the ring.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.nvars)
        if divisor.is_constant():
            return self.scale(GR_ONE / divisor.constant_value())
        d_expo, d_coeff = divisor.leading()
        quotient = {}
        rem = self
        while not rem.is_zero():
            r_expo, r_coeff = rem.leading()
            q_expo = tuple(a - b for a, b in zip(r_expo, d_expo))
            if any(e < 0 for e in q_expo):
                raise ValueError("polynomial division is not exact")
            q_coeff = r_coeff / d_coeff
            quotient[q_expo] = q_coeff
            piece = MultiPoly(self.nvars, {q_expo: q_coeff})
            rem = rem - piece * divisor
        return MultiPoly(self.nvars, quotient)

    # -- evaluation ------------------------------------------------------------

    def eval_complex(self, point) -> complex:
        """Evaluate at a point with complex (floating) coordinates."""
        return complex(StackedEvaluator([self], self.nvars)([point])[0, 0])

    def eval_exact(self, point) -> GaussianRational:
        """Evaluate at a point with GaussianRational coordinates."""
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = GR_ZERO
        for expo, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    if not isinstance(x, GaussianRational):
                        x = GaussianRational(x)
                    v = v * x**e
            total = total + v
        return total

    # -- comparisons / rendering -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return not self.is_zero()

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grade_key(t[0]), reverse=True)

    def to_string(self, names) -> str:
        """Canonical rendering, e.g. ``2*z*w - z^2``.

        Gaussian-integer coefficients render in the entry grammar, so
        integer-coefficient polynomials round-trip through the parser.
        """
        if not self.terms:
            return "0"
        if len(names) != self.nvars:
            raise ValueError("need one name per variable")
        parts = []
        for expo, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, expo)
                if e
            )
            parts.append(_render_term(coeff, mono))
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += " - " + part[1:]
            else:
                text += " + " + part
        return text

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MultiPoly[{self.nvars}]({self.to_string(names)})"


class StackedEvaluator:
    """A list of polynomials compiled for evaluation at a stack of points.

    Each value has the bits of the term loop at its point alone (README,
    "How a scan node is classified"): powers from Python's ``**``, with
    its OverflowError; written-out products; and per polynomial a row of
    slots (0j, its terms in insertion order, pads of -0.0) summed in
    order by ``np.add.accumulate``.
    """

    def __init__(self, polys: Sequence[MultiPoly], nvars: int):
        self.nvars, self.count = nvars, len(polys)
        self.width = 1 + max((len(p.terms) for p in polys), default=0)
        # real and imaginary parts of slot k of polynomial j at [:, k, j]
        terms = np.full((2, self.width, self.count), -0.0)
        terms[:, 0] = 0.0
        expos = np.zeros((self.width, self.count, nvars), dtype=np.intp)
        for j, p in enumerate(polys):
            for k, (e, c) in enumerate(p.terms.items(), start=1):
                try:
                    c = complex(c)
                except OverflowError:
                    raise NonFiniteError("polynomial coefficient too large") from None
                terms[:, k, j] = c.real, c.imag
                expos[k, j] = e
        self.terms = terms.reshape(2, 1, -1)
        expos = expos.reshape(-1, nvars)
        # per parameter: the slots it enters, its distinct exponents, and
        # which of them each of those slots takes
        self.factors = []
        for v in range(nvars):
            cols = np.flatnonzero(expos[:, v])
            distinct, index = np.unique(expos[cols, v], return_inverse=True)
            if len(cols):
                self.factors.append((v, cols, distinct.tolist(), index))
        self.block = max(1, BLOCK_CELLS // max(1, self.terms.size))

    def __call__(self, points) -> np.ndarray:
        """Values at a stack of points: shape (N, len(polys))."""
        x = np.asarray(points, dtype=complex)
        if x.ndim != 2 or x.shape[1] != self.nvars:
            raise ValueError("point dimension mismatch")
        out = np.empty((len(x), self.count), dtype=complex)
        with np.errstate(all="ignore"):
            for start in range(0, len(x), self.block):
                part = out[start : start + self.block]
                part.real, part.imag = self._sums(x[start : start + self.block])
        return out

    def _sums(self, x):
        """Real and imaginary parts of the values at the points x."""
        slots = np.repeat(self.terms, len(x), axis=1)
        for v, cols, distinct, index in self.factors:
            powers = np.array(
                [z**e for z in x[:, v].tolist() for e in distinct], dtype=complex
            ).reshape(len(x), -1)[:, index]
            re, im = slots[:, :, cols]
            slots[:, :, cols] = complex_product(re, im, powers.real, powers.imag)
        slots = slots.reshape(2, len(x), self.width, self.count)
        return np.add.accumulate(slots, axis=2)[:, :, -1]


def complex_product(ar, ai, br, bi):
    """Python's complex product, written out on real and imaginary parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def complex_modulus(re, im):
    """abs of every value, and where Python's abs would raise
    OverflowError instead: a finite value whose modulus overflows."""
    size = np.hypot(re, im)
    return size, np.isinf(size) & np.isfinite(re) & np.isfinite(im)


def _render_term(coeff: GaussianRational, mono: str) -> str:
    if not mono:
        s = str(coeff)
        return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s
    if coeff.is_one():
        return mono
    if (-coeff).is_one():
        return "-" + mono
    s = str(coeff)
    if "+" in s[1:] or "-" in s[1:]:
        return f"({s})*{mono}"
    return f"{s}*{mono}"


# -- ring dispatch helpers used by the generic matrix/polynomial code --------


def zero_like(x):
    if isinstance(x, MultiPoly):
        return MultiPoly.zero(x.nvars)
    if isinstance(x, GaussianRational):
        return GR_ZERO
    return type(x)(0)


def one_like(x):
    if isinstance(x, MultiPoly):
        return MultiPoly.one(x.nvars)
    if isinstance(x, GaussianRational):
        return GR_ONE
    return type(x)(1)


# -- multivariate gcd ------------------------------------------------------------
#
# Recursive content/primitive-part gcd: pick a variable, view both inputs
# as univariate with MultiPoly coefficients, run a subresultant remainder
# sequence on the primitive parts and recurse on the contents. Adequate at
# the small sizes this package targets.


def mp_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd in QQ(i)[params], normalized to leading coefficient 1."""
    if f.nvars != g.nvars:
        raise ValueError("parameter count mismatch")
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if f.is_constant() or g.is_constant():
        return MultiPoly.one(f.nvars)
    var = _pick_variable(f, g)
    if f.degree_in(var) == 0 or g.degree_in(var) == 0:
        # var occurs in only one input: gcd divides the other's content
        lo, hi = (f, g) if f.degree_in(var) == 0 else (g, f)
        return mp_gcd(lo, _content_in(hi, var))
    from .unipoly import UniPoly, subresultant_gcd  # local import to avoid a cycle

    fu = to_unipoly_in(f, var)
    gu = to_unipoly_in(g, var)
    cf = _content(fu)
    cg = _content(gu)
    fp = UniPoly([c.exact_div(cf) for c in fu.coeffs])
    gp = UniPoly([c.exact_div(cg) for c in gu.coeffs])
    h = subresultant_gcd(fp, gp)
    hc = _content(h)
    h_prim = UniPoly([c.exact_div(hc) for c in h.coeffs])
    result = from_unipoly_in(h_prim, var, f.nvars) * mp_gcd(cf, cg)
    return _monic(result)


def mp_content(polys) -> MultiPoly:
    """gcd of a collection of MultiPolys (their common content)."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty collection")
    acc = polys[0]
    for p in polys[1:]:
        acc = mp_gcd(acc, p)
        if acc.is_constant() and not acc.is_zero():
            return MultiPoly.one(p.nvars)
    return _monic(acc)


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    _, lead = p.leading()
    if lead.is_one():
        return p
    return p.scale(GR_ONE / lead)


def _pick_variable(f: MultiPoly, g: MultiPoly) -> int:
    for v in range(f.nvars):
        if f.degree_in(v) > 0 or g.degree_in(v) > 0:
            return v
    raise ValueError("no active variable")  # unreachable: constants handled above


def _content_in(p: MultiPoly, var: int) -> MultiPoly:
    return mp_content(to_unipoly_in(p, var).coeffs_nonzero())


def _content(u) -> MultiPoly:
    return mp_content(u.coeffs_nonzero())


def to_unipoly_in(p: MultiPoly, var: int):
    """View a MultiPoly as univariate in ``var`` with MultiPoly coefficients."""
    from .unipoly import UniPoly

    deg = max(0, p.degree_in(var))
    buckets = [dict() for _ in range(deg + 1)]
    for expo, coeff in p.terms.items():
        k = expo[var]
        rest = expo[:var] + (0,) + expo[var + 1 :]
        buckets[k][rest] = coeff
    return UniPoly([MultiPoly(p.nvars, b) for b in buckets])


def from_unipoly_in(u, var: int, nvars: int) -> MultiPoly:
    total = MultiPoly.zero(nvars)
    shift = [0] * nvars
    for k, coeff in enumerate(u.coeffs):
        if coeff.is_zero():
            continue
        shift[var] = k
        mono = MultiPoly(nvars, {tuple(shift): GR_ONE})
        total = total + coeff * mono
    return total
