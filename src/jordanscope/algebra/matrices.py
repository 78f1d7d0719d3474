"""Dense matrices over exchangeable scalar rings, and the characteristic
polynomial via the Faddeev-LeVerrier recursion.

Matrices are plain lists of lists so the same code runs over complex
floats, GaussianRationals and MultiPolys. Floating callers that want
speed use numpy directly; these helpers are for the exact and symbolic
paths (n <= 8 or so), except :func:`char_poly_stack`, the recursion on
a numpy stack of complex matrices.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .multipoly import divide_by_int, one_like, zero_like
from .scalars import GaussianRational
from .unipoly import MonicPoly


def coerce_matrix(rows):
    """Normalize to a rectangular list-of-lists, coercing int/Fraction
    entries to GaussianRational (complex and MultiPoly pass through)."""
    out = []
    width = None
    for row in rows:
        row = list(row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        coerced = []
        for x in row:
            if isinstance(x, (int, Fraction)):
                x = GaussianRational(x)
            coerced.append(x)
        out.append(coerced)
    if not out or width == 0:
        raise ValueError("empty matrix")
    return out


def identity(n: int, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("inner dimension mismatch")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def trace(a):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def shifted(lam, a):
    """lam*I - a, with lam a scalar in the matrix's ring."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(lam - a[i][j] if i == j else -a[i][j])
        out.append(row)
    return out


def poly_at_matrix(coeffs, a):
    """Evaluate sum_k coeffs[k] * a**k by Horner."""
    n = len(a)
    sample = a[0][0]
    one = one_like(sample)
    zero = zero_like(sample)
    if not coeffs:
        return identity(n, zero, zero)
    acc = mat_scale(coeffs[-1], identity(n, one, zero))
    for c in reversed(coeffs[:-1]):
        acc = mat_mul(acc, a)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return acc


def char_poly(matrix) -> MonicPoly:
    """Monic characteristic polynomial det(lam*I - matrix).

    Faddeev-LeVerrier: exact over GaussianRational and MultiPoly
    scalars (the integer divisions are exact in characteristic zero);
    over complex floats it is adequate for the supported sizes n <= 8,
    where its known conditioning weakness does not bite.
    """
    a = coerce_matrix(matrix)
    n = len(a)
    if len(a[0]) != n:
        raise ValueError("characteristic polynomial needs a square matrix")
    sample = a[0][0]
    one = one_like(sample)
    zero = zero_like(sample)
    coeffs = [zero] * n + [one]  # coeffs[k] multiplies lam**k
    m = identity(n, one, zero)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = divide_by_int(-trace(m), k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = m[i][i] + c
    return MonicPoly(coeffs)


def char_poly_stack(a) -> np.ndarray:
    """:func:`char_poly` of every matrix of an (N, n, n) complex stack,
    by the same recursion in float64: shape (N, n + 1), constant term
    first. Coefficients beyond float64 come out non-finite, silently."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    coeffs = np.ones((len(a), n + 1), dtype=complex)
    diagonal = np.arange(n)
    m = np.broadcast_to(np.eye(n, dtype=complex), a.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            m = a @ m
            coeffs[:, n - k] = -np.trace(m, axis1=1, axis2=2) / k
            m[:, diagonal, diagonal] += coeffs[:, n - k, None]
    return coeffs
