"""The splitting matrix of a monic polynomial.

For monic p of degree n, the linear map (s, q) |-> p*s - p'*q from
polynomials of degree <= n-2 (s) and <= n-1 (q) into polynomials of
degree <= 2n-2 has rank n + m - 1, where m is the number of distinct
zeros of p. Its representation matrix therefore counts distinct zeros
by rank alone, and its maximal minors cut out the set of parameter
points where zeros collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .algebra.matrices import as_matrix
from .algebra.multipoly import MultiPoly, NonFiniteError, StackedEvaluator
from .algebra.multipoly import zero_like
from .algebra.unipoly import UniPoly
from .ranklab import (
    DEFAULT_REL_TOL,
    ScaleBounds,
    generic_points,
    minors,
    stacked_ranks,
)


class RankBandError(ValueError):
    """A splitting-matrix rank outside n..2n-1: a tolerance too loose for the family."""


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
    """Number of distinct zeros of monic p: :func:`split_counts` of a
    stack of one splitting matrix."""
    if isinstance(p.coeffs[0], MultiPoly):
        raise TypeError("evaluate the family at a point first")
    (count,) = split_counts(build_split_matrix(p)[None], rel_tol)
    return int(count)


def split_counts(split, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Distinct-zero counts m from a stack of :func:`split_matrices`, of
    degree n polynomials: their ranks n + m - 1, each m in [1, n]."""
    n = (split.shape[-1] + 1) // 2
    counts = stacked_ranks(split, rel_tol) - n + 1
    if np.any((counts < 1) | (counts > n)):
        raise RankBandError("splitting-matrix rank outside the admissible band")
    return counts


def split_defining_functions(family: UniPoly, seed: int = 0) -> Tuple[List[MultiPoly], int]:
    """(functions, r_max): symbolic defining functions h_1..h_l of the
    splitting set, and the generic rank r_max of the splitting matrix;
    the report adds ``ranklab.GENERIC_RANK_NOTE`` to them.

    ``family`` is a monic polynomial whose coefficients are MultiPolys
    in the parameters. The h's are the order-r_max minors of the
    symbolic splitting matrix that are not identically zero; their
    common zero set is exactly the set of parameter points where the
    distinct-zero count drops below its generic value.

    The determinant is swept first: the (2n-1)-square matrix has rank
    2n - 1 - deg gcd(p, p'), so a nonzero determinant proves r_max =
    2n - 1 (p generically square-free) and is the one h, with no random
    point. Only a zero determinant takes the coefficients of p at the
    ``ranklab.generic_points``: r_max = n - 1 plus the largest
    :func:`split_counts` of their splitting matrices, each the splitting
    matrix at its point.
    """
    if not all(isinstance(c, MultiPoly) for c in family.coeffs):
        raise TypeError("family coefficients must be MultiPoly")
    sm = build_split_matrix(family)
    if det := minors(sm, len(sm)):
        return det, len(sm)
    values = as_matrix([[c.eval_exact(pt) for c in family.coeffs]
                        for pt in generic_points(family.coeffs[0].nvars, seed)])
    r_max = family.degree - 1 + int(split_counts(split_matrices(values)).max())
    return minors(sm, r_max), r_max


def certifies_empty(pool: Sequence[MultiPoly]) -> bool:
    """Does the pool hold a nonzero constant? Then its functions have no
    common zero: a sufficient certificate, not a decision procedure."""
    return any(f and f.is_constant() for f in pool)


#: relative widening of the scale intervals that pick the candidate points
#: of :func:`bound_report`, far above the rounding of the powers that bound
#: them (a few ulps) and far below any gap that matters to a report
CANDIDATE_SLACK = 1e-9
#: the exact ratios of this many top candidates raise the floor
FEW_CANDIDATES = 16


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
                 constant: float, scales: ScaleBounds,
                 exponent: int) -> BoundReport:
    """Check |f| <= constant * max(1, S_i)**exponent for every function f
    at every sample point i, S_i the point's scale, known as an interval
    lo_i <= S_i <= hi_i (:class:`ranklab.ScaleBounds`).

    The function list is evaluated once over all points. A value violates
    its bound when it exceeds it by more than a relative 1e-12; each
    violation is kept with its witness point, in point order. A power
    beyond float64 makes the bound inf, which no value violates.

    Only candidate points take the exact bound B(S_i), computed in Python
    floats with S_i from ``scales.exact`` on index arrays of candidates
    whose hi_i exceeds 1 (max(1, S_i) is 1.0 at the rest), once a point.
    With m_i the largest value at point i and the bounds B(lo_i) and
    B(hi_i) of the interval widened by CANDIDATE_SLACK, point i is a
    candidate when m_i > 0 and either m_i / B(lo_i) reaches the floor (the
    largest m_k / B(hi_k)) or m_i reaches B(lo_i). The floor then rises to
    the largest exact ratio of the (at most) FEW_CANDIDATES candidates with
    the largest m_i / B(lo_i), which the report takes, and the candidates
    are picked again: B(lo_i) <= B(S_i) keeps those. Every other point's
    ratios lie strictly below a candidate's, and none of its values
    violates, so the report has the bits of checking every point exactly.
    """
    values = _moduli(functions, points)
    peaks = np.fmax.reduce(values, axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        low = constant * np.fmax(1.0, scales.lo * (1 - CANDIDATE_SLACK)) ** exponent
        high = constant * np.fmax(1.0, scales.hi * (1 + CANDIDATE_SLACK)) ** exponent
        upper = peaks / low
        floor = np.fmax.reduce(peaks / high, initial=0.0)
    picked = np.flatnonzero((peaks > 0) & ~((upper < floor) & (peaks < low)))
    exact, known = np.ones(len(peaks)), ~(scales.hi > 1)  # max(1, S_i) = 1 where hi_i <= 1

    def bounds_at(index):
        if len(ask := index[~known[index]]):
            exact[ask], known[ask] = scales.exact(ask), True
        return [constant * _power(max(1.0, s), exponent) for s in exact[index].tolist()]

    top = picked[np.argsort(-upper[picked], kind="stable")[:FEW_CANDIDATES]]
    with np.errstate(all="ignore"):
        tops = values[top] / np.array(bounds_at(top))[:, None]
    floor = max(floor, np.fmax.reduce(tops, axis=None, initial=0.0))
    picked = picked[~((upper[picked] < floor) & (peaks[picked] < low[picked]))]
    bounds = bounds_at(picked)
    limits, kept = np.array(bounds)[:, None], values[picked]
    with np.errstate(all="ignore"):
        ratios = kept / limits
        bad = np.nonzero(kept > limits * (1 + 1e-12))
    violations = [
        {"point": list(points[picked[i]]), "value": float(kept[i, j]), "bound": bounds[i]}
        for i, j in zip(*bad)
    ]
    max_ratio = float(np.fmax.reduce(ratios, axis=None, initial=0.0))
    return BoundReport(label, values.size, violations, max_ratio)


def _power(base: float, exponent: int) -> float:
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _moduli(polys: Sequence[MultiPoly], points) -> np.ndarray:
    """|p| of every polynomial (columns) at every point (rows); a value or
    modulus beyond float64 raises NonFiniteError."""
    values = StackedEvaluator(polys, len(points[0]))(points)
    with np.errstate(all="ignore"):
        sizes = np.hypot(values.real, values.imag)
    if not np.isfinite(sizes).all():
        raise NonFiniteError("sampled value beyond float64")
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

    The coefficient maxima come from one evaluation and one numpy
    reduction; they are exact scales (lo = hi) for :func:`bound_report`,
    so this check takes no SVD.
    """
    n = family.degree
    largest = _moduli(family.coeffs[:-1], sample_points).max(axis=1)
    return bound_report("split-set minor", sample_points, functions,
                        float((2 * n) ** (4 * n)),
                        ScaleBounds(largest, largest, largest.__getitem__), 2 * n)
