"""Dense matrices over every scalar ring, and the characteristic
polynomial via the Faddeev-LeVerrier recursion.

Matrices are numpy arrays: complex for floating points, ``dtype=object``
for GaussianRational and MultiPoly entries. Numpy runs the object
arrays' ``@``, ``+`` and ``trace`` element by element in Python, a sum
of products starting from its first product, so each algorithm below is
written once for every ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .multipoly import MultiPoly, _sum_terms, one_like, zero_like
from .scalars import GaussianRational
from .unipoly import UniPoly


def as_matrix(rows) -> np.ndarray:
    """The matrix of ``rows`` in the ring its entries decide: numeric
    arrays pass through, a float, complex or numpy scalar entry anywhere
    makes it complex128, and otherwise it is an object array, int and
    Fraction entries becoming GaussianRational (others pass through)."""
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        return rows
    rows = [list(row) for row in rows]
    if not rows or not rows[0]:
        raise ValueError("empty matrix")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    kinds = {type(x) for row in rows for x in row}
    if any(issubclass(t, (float, complex, np.number)) for t in kinds):
        return np.array(rows, dtype=complex)
    if any(issubclass(t, (int, Fraction)) for t in kinds):
        rows = [[GaussianRational(x) if isinstance(x, (int, Fraction)) else x
                 for x in row] for row in rows]
    return np.array(rows, dtype=object)


def identity_like(a: np.ndarray) -> np.ndarray:
    """The n x n identity in the ring of the entries of an (..., n, n)
    array."""
    n = a.shape[-1]
    if a.dtype != object:
        return np.eye(n, dtype=a.dtype)
    sample = a.flat[0]
    out = np.full((n, n), zero_like(sample), dtype=object)
    np.fill_diagonal(out, one_like(sample))
    return out


def poly_at_matrix(coeffs, a: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] * a**k by Horner."""
    diagonal = np.arange(a.shape[-1])
    acc = coeffs[-1] * identity_like(a)
    for c in reversed(coeffs[:-1]):
        acc = acc @ a
        acc[diagonal, diagonal] += c
    return acc


def char_poly(matrix) -> UniPoly:
    """Monic characteristic polynomial det(lam*I - matrix), by
    :func:`char_poly_stack` on a stack of one (of :func:`_keyed` entries)."""
    a = as_matrix(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    if not isinstance(a.flat[0], MultiPoly):
        return UniPoly(char_poly_stack(a[None])[0].tolist())
    (keyed, digits, d), coeffs = _keyed(a), [MultiPoly.one(a.flat[0].nvars)]
    for k, c in enumerate(char_poly_stack(keyed[None])[0, -2::-1], 1):
        coeffs.insert(0, MultiPoly(len(digits), {
            tuple(key // place % radix for place, radix in digits): GaussianRational.from_ints(
                *((int(v.real), int(v.imag)) if v.__class__ is complex else v.ints[:2]), d**k)
            for key, v in c.terms.items()}))
    return UniPoly(coeffs)


class _KeyedPoly:
    """A MultiPoly of :func:`char_poly`, or a constant: int keys, Python
    complex or GaussianRational values. ``+`` and ``*`` make MultiPoly's
    dict insertions and deletions with exact zero tests, so every result
    has the MultiPoly one's terms in their order."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms if type(terms) is dict else {0: terms} if terms else {}

    def __add__(self, other):
        return _KeyedPoly(_sum_terms(dict(self.terms), other.terms.items()))

    def __mul__(self, other):  # _sum_terms, inlined: the loop of char_poly
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if (s := terms.get(k1 + k2)) is None:
                    terms[k1 + k2] = c1 * c2
                elif s := s + c1 * c2:
                    terms[k1 + k2] = s
                else:
                    del terms[k1 + k2]
        return _KeyedPoly(terms)

    def __neg__(self):
        return _KeyedPoly({key: -c for key, c in self.terms.items()})

    def __truediv__(self, k: int):
        return _KeyedPoly({key: c / k for key, c in self.terms.items()})


def _keyed(a: np.ndarray):
    """(D*A, (place, radix) per parameter, D) of a square MultiPoly matrix
    A: D the lcm of its denominators, D*A of :class:`_KeyedPoly` entries.

    Exponent e has the key sum_v e_v * place_v, with radix n * deg_v + 1,
    so key sums are exponent sums in products of up to n entries. Step k
    of Faddeev-LeVerrier on D*A scales every value on A by D**k, keeping
    each zero test. The values are complex, and exact, if B = n * 2**n *
    alpha**n < 2**53, alpha the largest row sum of ||D*a_ij||, ||p|| the
    sum of |re| + |im| over the terms of p (submultiplicative; it bounds
    each term and partial sum). A k x k minor is at most alpha**k, so
    ||c_{n-k}|| <= C(n, k) * alpha**k; an entry of M_k = sum_{j<=k} c_{n-j}
    (D*A)**(k-j), and a product or partial sum forming D*A @ M_{k-1}, is
    at most 2**n * alpha**k, and a partial trace or diagonal update at most
    n * 2**n * alpha**k <= B. Float sums and products of Gaussian integers
    below 2**53 are exact, and so is -tr/k, a Gaussian integer as c_{n-k}(D*A)
    lies in Z[i][zeta]. Else the values are GaussianRationals, exact.
    """
    n, polys = len(a), a.ravel().tolist()
    if len({p.nvars for p in polys}) > 1:
        raise ValueError("parameter count mismatch")
    radices = [n * max((e[v] for p in polys for e in p.terms), default=0) + 1
               for v in range(polys[0].nvars)]
    digits = [(prod(radices[:v]), radix) for v, radix in enumerate(radices)]
    d = lcm(*(c.ints[2] for p in polys for c in p.terms.values()))
    ints = [{sum(x * w for x, (w, _) in zip(e, digits)): (c * d).ints[:2]
             for e, c in p.terms.items()} for p in polys]
    alpha = max(sum(abs(re) + abs(im) for t in ints[i:i + n] for re, im in t.values())
                for i in range(0, n * n, n))
    scalar = complex if n * 2**n * alpha**n < 2**53 else GaussianRational
    keyed = [_KeyedPoly({key: scalar(*z) for key, z in t.items()}) for t in ints]
    return as_matrix([keyed[i:i + n] for i in range(0, n * n, n)]), digits, d


def char_poly_stack(a) -> np.ndarray:
    """The characteristic polynomial of every matrix of an (N, n, n)
    stack: shape (N, n + 1), constant term first.

    Faddeev-LeVerrier, from M_1 = A (object) or A @ I (numeric): exact
    over GaussianRational, MultiPoly and :class:`_KeyedPoly` scalars (the
    divisions by k are exact); numeric stacks run in complex float64, for
    the supported sizes n <= 8, where its conditioning weakness does not bite.
    Floating coefficients beyond float64 come out non-finite, silently.
    """
    a = np.asarray(a)
    if a.dtype != object:
        a = a.astype(complex)
    n = a.shape[-1]
    coeffs = np.empty((len(a), n + 1), dtype=a.dtype)
    coeffs[:, n] = one_like(a.flat[0])
    diagonal = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        m = a.copy() if a.dtype == object else a @ identity_like(a)
        for k in range(1, n + 1):
            if k > 1:
                m = a @ m
            coeffs[:, n - k] = -np.trace(m, axis1=1, axis2=2) / k
            m[:, diagonal, diagonal] += coeffs[:, n - k, None]
    return coeffs
