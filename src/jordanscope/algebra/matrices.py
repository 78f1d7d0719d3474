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

import numpy as np

from .multipoly import one_like, zero_like
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
    :func:`char_poly_stack` on a stack of one."""
    a = as_matrix(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("characteristic polynomial needs a square matrix")
    return UniPoly(char_poly_stack(a[None])[0].tolist())


def char_poly_stack(a) -> np.ndarray:
    """The characteristic polynomial of every matrix of an (N, n, n)
    stack: shape (N, n + 1), constant term first.

    Faddeev-LeVerrier: exact over GaussianRational and MultiPoly
    scalars (the integer divisions are exact in characteristic zero);
    numeric stacks run in complex float64, adequate for the supported
    sizes n <= 8, where its known conditioning weakness does not bite.
    Floating coefficients beyond float64 come out non-finite, silently.
    """
    a = np.asarray(a)
    if a.dtype != object:
        a = a.astype(complex)
    n = a.shape[-1]
    coeffs = np.empty((len(a), n + 1), dtype=a.dtype)
    coeffs[:, n] = one_like(a.flat[0])
    diagonal = np.arange(n)
    m = identity_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            m = a @ m
            coeffs[:, n - k] = -np.trace(m, axis1=1, axis2=2) / k
            m[:, diagonal, diagonal] += coeffs[:, n - k, None]
    return coeffs
