"""Rank computation, kernel bases, and minor enumeration.

Floating ranks use the SVD threshold rule
``sigma > rel_tol * sigma_max * max(rows, cols)``; exact ranks use
fraction-free (Bareiss) elimination with full pivoting over Gaussian
rationals. Minors of polynomial matrices are fraction-free as well.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra.multipoly import MultiPoly, NonFiniteError
from .algebra.scalars import GaussianRational

DEFAULT_REL_TOL = 1e-8

#: roundoff floor multiplier: products of k factors carry relative error
#: of order (a few) * eps * prod of factor norms
ROUNDOFF_MARGIN = 1e3

#: minor enumeration refuses matrices larger than this (C(9, r)**2 blow-up)
MINOR_DIMENSION_CAP = 9


class MinorSizeError(ValueError):
    pass


@dataclass
class RankResult:
    rank: int
    tolerance_used: float
    singular_values: Optional[tuple] = None


def _as_complex_array(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("need a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError()
    return a


def rank_threshold(smax, rel_tol: float, scale, shape):
    """The singular-value threshold of every floating rank in the package.

    ``max(rel_tol * smax, 1e3 * eps * scale) * max(rows, cols)``:
    relative to the largest singular value, floored at the roundoff
    level of a product whose factor norms multiply to ``scale``.
    ``smax`` and ``scale`` may be arrays, one entry per matrix.
    """
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    per_sigma = np.maximum(rel_tol * smax,
                           ROUNDOFF_MARGIN * np.finfo(float).eps * scale)
    return per_sigma * max(shape)


def numerical_rank(m, rel_tol: float = DEFAULT_REL_TOL,
                   scale: float = 0.0) -> RankResult:
    """Rank of a complex matrix by singular-value thresholding.

    A singular value counts toward the rank iff it exceeds
    ``rel_tol * sigma_max * max(rows, cols)``. The zero matrix has
    rank 0 (and threshold 0).

    ``scale`` matters when the matrix is a product (e.g. a matrix
    power) whose honest value is zero: pass the product of the factor
    norms, and the threshold is floored at the roundoff level of that
    computation (``~1e3 * eps * scale``), so that pure rounding residue
    is never mistaken for rank.
    """
    a = _as_complex_array(m)
    sigma = np.linalg.svd(a, compute_uv=False)
    smax = float(sigma[0]) if sigma.size else 0.0
    threshold = float(rank_threshold(smax, rel_tol, scale, a.shape))
    rank = int(np.sum(sigma > threshold))
    return RankResult(rank=rank, tolerance_used=threshold,
                      singular_values=tuple(float(s) for s in sigma))


def stacked_ranks(stack, rel_tol: float = DEFAULT_REL_TOL,
                  scales=0.0) -> np.ndarray:
    """:func:`numerical_rank` of every matrix of an (N, rows, cols)
    stack, from one stacked SVD; ``scales`` is one roundoff scale per
    matrix (or one for all)."""
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.size == 0:
        raise ValueError("need a nonempty stack of 2-d matrices")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError()
    sigma = np.linalg.svd(a, compute_uv=False)
    threshold = rank_threshold(sigma[:, 0], rel_tol,
                               np.asarray(scales, dtype=float), a.shape[1:])
    return np.sum(sigma > threshold[:, None], axis=1)


def power_ranks(bases, count: int, scales,
                rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """rank B^k for k = 1..count of every B of an (N, n, n) stack.

    The powers are formed by sequential products and ranked in one
    stacked SVD; the threshold of B^k is floored at the roundoff level
    of ``scales[i]**k`` (:func:`rank_threshold`), ``scales[i]`` being
    the product of the factor norms of the i-th base.
    Powers stop at the first one with a non-finite entry or a roundoff
    scale beyond float64, so the (N, K) result has K <= count columns,
    column k-1 holding rank B^k.
    """
    bases = np.asarray(bases, dtype=complex)
    powers, floors = [], []
    power = np.broadcast_to(np.eye(bases.shape[-1], dtype=complex), bases.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count + 1):
            power = power @ bases
            try:
                floor = [s**k for s in scales]
            except OverflowError:
                break
            if not (np.all(np.isfinite(power)) and np.all(np.isfinite(floor))):
                break
            powers.append(power)
            floors.extend(floor)
    if not powers:
        return np.zeros((len(bases), 0), dtype=int)
    ranks = stacked_ranks(np.concatenate(powers), rel_tol, floors)
    return ranks.reshape(len(powers), len(bases)).T


def kernel_basis(m, rel_tol: float = DEFAULT_REL_TOL,
                 scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, as matrix columns.

    Returns a (cols, cols - rank) array; the columns are the right
    singular vectors whose singular values fall below the rank
    threshold of :func:`numerical_rank` (same ``scale`` semantics).
    """
    a = _as_complex_array(m)
    _, sigma, vh = np.linalg.svd(a, full_matrices=True)
    smax = float(sigma[0]) if sigma.size else 0.0
    rank = int(np.sum(sigma > rank_threshold(smax, rel_tol, scale, a.shape)))
    return vh[rank:].conj().T


def _coerce_exact(m):
    rows = []
    for row in m:
        out = []
        for x in row:
            if isinstance(x, GaussianRational):
                out.append(x)
            elif isinstance(x, (int, Fraction)):
                out.append(GaussianRational(x))
            else:
                raise TypeError(f"exact rank needs exact entries, got {type(x)}")
        rows.append(out)
    return rows


def _bareiss(work, divide):
    """Fraction-free (Bareiss) elimination with full pivoting, in place.

    ``divide`` is the exact division of the entries' ring. Returns the
    rank and the sign of the row and column swaps; for a square matrix
    of full rank the determinant is that sign times the last pivot,
    ``work[-1][-1]``.
    """
    nrows, ncols = len(work), len(work[0])
    sign = 1
    prev = None
    for r in range(min(nrows, ncols)):
        # full pivot: any nonzero entry of the remaining submatrix
        pivot = next(((i, j) for i in range(r, nrows) for j in range(r, ncols)
                      if not work[i][j].is_zero()), None)
        if pivot is None:
            return r, sign
        pi, pj = pivot
        if pi != r:
            work[r], work[pi] = work[pi], work[r]
            sign = -sign
        if pj != r:
            for row in work:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        p = work[r][r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                num = p * work[i][j] - work[i][r] * work[r][j]
                work[i][j] = num if prev is None else divide(num, prev)
        prev = p
    return min(nrows, ncols), sign


def exact_rank(m) -> int:
    """True rank over QQ(i) by Bareiss elimination with full pivoting."""
    work = _coerce_exact(m)
    if not work or not work[0]:
        return 0
    return _bareiss(work, operator.truediv)[0]


# ---------------------------------------------------------------------------
# Determinants and minors of MultiPoly matrices


def det_multipoly(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Fraction-free (Bareiss) determinant over the polynomial ring."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    work = [list(r) for r in rows]
    rank, sign = _bareiss(work, MultiPoly.exact_div)
    if rank < n:
        return MultiPoly.zero(rows[0][0].nvars)
    return work[n - 1][n - 1] if sign > 0 else -work[n - 1][n - 1]


def check_minor_size(nrows: int, ncols: int):
    """Refuse matrices beyond the minor enumeration cap."""
    if max(nrows, ncols) > MINOR_DIMENSION_CAP:
        raise MinorSizeError(
            f"minor enumeration capped at dimension {MINOR_DIMENSION_CAP}"
        )


def minors(m: Sequence[Sequence[MultiPoly]], order: int):
    """All order-r minors that are not identically zero.

    Ordered by (row-index tuple, column-index tuple), both lexicographic,
    so the output is deterministic regardless of evaluation schedule.
    Size-capped: matrices beyond 9x9 (or r > 9) are refused. The
    input is read into lists once: the submatrix loop indexes entries
    far faster there than in an array.
    """
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if order > min(nrows, ncols):
        raise ValueError("minor order exceeds matrix dimensions")
    if order < 1:
        raise ValueError("minor order must be >= 1")
    check_minor_size(nrows, ncols)
    out = []
    for ri in itertools.combinations(range(nrows), order):
        for ci in itertools.combinations(range(ncols), order):
            sub = [[m[i][j] for j in ci] for i in ri]
            d = det_multipoly(sub)
            if not d.is_zero():
                out.append(d)
    return out


# ---------------------------------------------------------------------------
# Generic rank of a polynomial matrix by exact random evaluation


#: random points per generic-rank estimate
GENERIC_RANK_POINTS = 3
#: largest numerator and denominator of a random rational coordinate
RATIONAL_BOUND = 10**4

GENERIC_RANK_NOTE = (
    f"generic rank estimated as the max exact rank at {GENERIC_RANK_POINTS} "
    "random rational points (coordinates with numerator/denominator up to "
    f"{RATIONAL_BOUND}); by a Schwartz-Zippel count the probability of "
    "underestimating is vanishingly small for the polynomial degrees "
    "involved, but it is not a proof"
)


def random_rational_point(rng: random.Random, nvars: int):
    bound = RATIONAL_BOUND
    pt = []
    for _ in range(nvars):
        re = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        im = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        pt.append(GaussianRational(re, im))
    return pt


def generic_rank(m: Sequence[Sequence[MultiPoly]], seed: int = 0):
    """Max exact rank over a few random rational points, plus a note.

    Exact evaluation keeps the rank decision exact at each sample; only
    the claim of genericity is probabilistic.
    """
    if len(m) == 0 or len(m[0]) == 0:
        return 0, GENERIC_RANK_NOTE
    nvars = m[0][0].nvars
    rng = random.Random(seed)
    best = 0
    for _ in range(GENERIC_RANK_POINTS):
        pt = random_rational_point(rng, nvars)
        value = [[entry.eval_exact(pt) for entry in row] for row in m]
        best = max(best, exact_rank(value))
    return best, GENERIC_RANK_NOTE
