"""The splitting matrix of a monic polynomial.

For monic p of degree n, the linear map (s, q) |-> p*s - p'*q from
polynomials of degree <= n-2 (s) and <= n-1 (q) into polynomials of
degree <= 2n-2 has rank n + m - 1, where m is the number of distinct
zeros of p. Its representation matrix therefore counts distinct zeros
by rank alone, and its maximal minors cut out the set of parameter
points where zeros collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .algebra.matrices import as_matrix
from .algebra.multipoly import MultiPoly, StackedEvaluator, complex_modulus
from .algebra.multipoly import zero_like
from .algebra.unipoly import MONIC_REL_TOL, UniPoly
from .ranklab import (
    DEFAULT_REL_TOL,
    check_minor_size,
    generic_rank,
    minors,
    stacked_ranks,
)


def _require_monic(p: UniPoly) -> UniPoly:
    if p.is_zero() or p.degree < 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if not p.is_monic():
        raise ValueError("polynomial is not monic")
    return p


def split_matrices(coeffs) -> np.ndarray:
    """The (N, 2n-1, 2n-1) splitting matrices of an (N, n + 1) array of
    monic coefficients, constant term first, complex or object.

    Rows are indexed by the monomial basis 1, lam, ..., lam**(2n-2) of
    the codomain. The first n-1 columns hold the coefficients of
    p*lam**j (j = 0..n-2); the remaining n columns hold the
    coefficients of -p'*lam**t (t = 0..n-1). Entries outside those
    bands are zero. The rank does not depend on this column convention,
    being the rank of the underlying linear map.
    """
    n = coeffs.shape[1] - 1
    dc = coeffs[:, 1:] * np.arange(1, n + 1).astype(coeffs.dtype)
    sm = np.full((len(coeffs), 2 * n - 1, 2 * n - 1), zero_like(coeffs.flat[0]),
                 dtype=coeffs.dtype)
    for j in range(n - 1):
        sm[:, j : j + n + 1, j] = coeffs
    for t in range(n):
        sm[:, t : t + n, n - 1 + t] = -dc
    return sm


def build_split_matrix(p: UniPoly) -> np.ndarray:
    """The (2n-1) x (2n-1) splitting matrix of a monic p, over the ring
    of its coefficients (:func:`split_matrices`)."""
    return split_matrices(as_matrix([_require_monic(p).coeffs]))[0]


def distinct_zero_count(p: UniPoly, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Number of distinct zeros of monic p, from the split-matrix rank.

    rank = n + m - 1, so m = rank - n + 1. The rank follows the ring of
    the coefficients (:func:`ranklab.stacked_ranks`): Bareiss elimination
    for exact ones, the SVD rank for floating ones.
    """
    if isinstance(p.coeffs[0], MultiPoly):
        raise TypeError("evaluate the family at a point first")
    (rank,) = stacked_ranks(build_split_matrix(p)[None], rel_tol)
    return _count_from_rank(int(rank), p.degree)


def distinct_zero_counts(coeffs, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """:func:`distinct_zero_count` for a stack of monic polynomials.

    ``coeffs`` is an (N, n + 1) array of complex coefficients, constant
    term first. The N splitting matrices are ranked by one stacked SVD.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] < 2:
        raise ValueError("need a monic polynomial of degree >= 1")
    lead = c[:, -1]
    if np.any(np.abs(lead - 1.0) > MONIC_REL_TOL * (1 + np.abs(lead))):
        raise ValueError("polynomial is not monic")
    n = c.shape[1] - 1
    ranks = stacked_ranks(split_matrices(c), rel_tol)
    return np.array([_count_from_rank(int(r), n) for r in ranks])


def _count_from_rank(rank: int, n: int) -> int:
    m = rank - n + 1
    if not 1 <= m <= n:
        raise ArithmeticError(f"rank {rank} outside the admissible band")
    return m


@dataclass
class SplitSetResult:
    """Defining polynomials of the set of splitting points."""

    functions: List[MultiPoly]
    r_max: int
    n: int
    generic_rank_note: str


def split_defining_functions(
    family: UniPoly, seed: int = 0
) -> SplitSetResult:
    """Symbolic defining functions h_1..h_l of the splitting set.

    ``family`` is a monic polynomial whose coefficients are MultiPolys
    in the parameters. The h's are the order-r_max minors of the
    symbolic splitting matrix that are not identically zero, where
    r_max is the generic rank; their common zero set is exactly the set
    of parameter points where the distinct-zero count drops below its
    generic value.
    """
    if not all(isinstance(c, MultiPoly) for c in family.coeffs):
        raise TypeError("family coefficients must be MultiPoly")
    sm = build_split_matrix(family)
    check_minor_size(*sm.shape)  # before the costly generic rank
    r_max, note = generic_rank(sm, seed=seed)
    if r_max == 0:
        raise ArithmeticError("splitting matrix cannot be identically zero")
    hs = minors(sm, r_max)
    return SplitSetResult(
        functions=hs,
        r_max=r_max,
        n=family.degree,
        generic_rank_note=note,
    )


@dataclass
class BoundReport:
    label: str
    checked: int
    violations: list
    max_ratio: float
    applicable: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations


def bound_report(label: str, points: Sequence, functions: Sequence[MultiPoly],
                 constant: float, scales: Sequence[float],
                 exponent: int) -> BoundReport:
    """Check |f| <= constant * max(1, scale)**exponent for every function
    f at every sample point, given one scale per point.

    Each point's bound is computed once, and the function list is
    evaluated once over all points. A value violates its bound when it
    exceeds it by more than a relative 1e-12; each violation is kept with
    its witness point, in point order.
    """
    bounds = [constant * max(1.0, s) ** exponent for s in scales]
    values = _moduli(functions, points)
    limits = np.array(bounds)[:, None]
    with np.errstate(all="ignore"):
        ratios = values / limits
        bad = np.nonzero(values > limits * (1 + 1e-12))
    violations = [
        {"point": list(points[i]), "value": float(values[i, j]), "bound": bounds[i]}
        for i, j in zip(*bad)
    ]
    max_ratio = float(np.fmax.reduce(ratios, axis=None, initial=0.0))
    return BoundReport(label, values.size, violations, max_ratio)


def _moduli(polys: Sequence[MultiPoly], points) -> np.ndarray:
    """|p| of every polynomial (columns) at every point (rows), with
    Python's OverflowError where abs would raise one."""
    values = StackedEvaluator(polys, len(points[0]))(points)
    sizes, overflow = complex_modulus(values.real, values.imag)
    if overflow.any():
        raise OverflowError("absolute value too large")
    return sizes


def check_coeff_bound(
    functions: Sequence[MultiPoly],
    family: UniPoly,
    sample_points: Sequence[Sequence[complex]],
) -> BoundReport:
    """Check |h| <= (2n)^(4n) * max(1, max_mu |P_mu|)^(2n) for every h
    at the samples.

    The coefficient maximum is floored at 1: the splitting matrix also
    contains constant entries coming from the monic leading
    coefficient, so the per-entry estimate that produces this bound is
    by max(1, |P_0|, ..., |P_(n-1)|). A violation indicates a bug in
    the minor construction, and is reported with its witness point.
    """
    n = family.degree
    lower = _moduli(family.coeffs[:-1], sample_points).tolist()
    largest = [max(row, default=0.0) for row in lower]
    return bound_report("split-set minor", sample_points, functions,
                        float((2 * n) ** (4 * n)), largest, 2 * n)
