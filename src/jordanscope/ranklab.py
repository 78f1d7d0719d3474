"""Rank computation, kernel bases, and minor enumeration.

Floating ranks use the SVD threshold rule
``sigma > rel_tol * sigma_max * max(rows, cols)``; exact ranks use
fraction-free (Bareiss) elimination with full pivoting over Gaussian
rationals; :func:`stacked_ranks` picks the rule from the ring of the
stack. Minors of polynomial matrices come from one sweep over the rows
that expands every order-k minor along its last row in terms of the
order-(k-1) minors above it: sums and products only, no division, and
each nonzero lower minor is computed once for all minors above it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra.matrices import as_matrix, identity_like
from .algebra.multipoly import MultiPoly, NonFiniteError
from .algebra.scalars import GaussianRational

DEFAULT_REL_TOL = 1e-8

#: roundoff floor multiplier: products of k factors carry relative error
#: of order (a few) * eps * prod of factor norms
ROUNDOFF_MARGIN = 1e3

#: minor enumeration refuses matrices larger than this: the row sweep
#: holds up to C(9, k)**2 polynomial minors at level k (15,876 at k = 4)
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
    """The rank of every matrix of an (N, rows, cols) stack, by the rule
    of its ring: :func:`exact_rank` of each matrix of an object stack,
    else :func:`numerical_rank` of each from one stacked SVD, ``scales``
    being one roundoff scale per matrix (or one for all)."""
    a = np.asarray(stack)
    if a.ndim != 3 or a.size == 0:
        raise ValueError("need a nonempty stack of 2-d matrices")
    if a.dtype == object:
        return np.array([exact_rank(m) for m in a])
    a = a.astype(complex, copy=False)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError()
    sigma = np.linalg.svd(a, compute_uv=False)
    threshold = rank_threshold(sigma[:, 0], rel_tol,
                               np.asarray(scales, dtype=float), a.shape[1:])
    return np.sum(sigma > threshold[:, None], axis=1)


def power_ranks(bases, count: int, scales,
                rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """rank B^k for k = 1..count of every B of an (N, n, n) stack.

    The powers are formed by sequential products and ranked together by
    :func:`stacked_ranks`. On a numeric stack the threshold of B^k is
    floored at the roundoff level of ``scales[i]**k``, ``scales[i]``
    being the product of the factor norms of the i-th base, and powers
    stop at the first one with a non-finite entry or scale, so the
    (N, K) result has K <= count columns, column k-1 holding rank B^k.
    An object stack is ranked exactly, up to ``count``; ``scales`` is unused.
    """
    bases = np.asarray(bases)
    exact = bases.dtype == object
    powers, floors = [], []
    power = np.broadcast_to(identity_like(bases), bases.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count + 1):
            power = power @ bases
            if not exact:
                try:
                    floor = [s**k for s in scales]
                except OverflowError:
                    break
                if not (np.all(np.isfinite(power)) and np.all(np.isfinite(floor))):
                    break
                floors.extend(floor)
            powers.append(power)
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


def _bareiss(work) -> int:
    """Rank by fraction-free (Bareiss) elimination with full pivoting,
    in place, over Gaussian rationals."""
    nrows, ncols = len(work), len(work[0])
    prev = None
    for r in range(min(nrows, ncols)):
        # full pivot: any nonzero entry of the remaining submatrix
        pivot = next(((i, j) for i in range(r, nrows) for j in range(r, ncols)
                      if not work[i][j].is_zero()), None)
        if pivot is None:
            return r
        pi, pj = pivot
        work[r], work[pi] = work[pi], work[r]
        for row in work:
            row[r], row[pj] = row[pj], row[r]
        p = work[r][r]
        for i in range(r + 1, nrows):
            for j in range(r + 1, ncols):
                num = p * work[i][j] - work[i][r] * work[r][j]
                work[i][j] = num if prev is None else num / prev
        prev = p
    return min(nrows, ncols)


def exact_rank(m) -> int:
    """True rank over QQ(i) by Bareiss elimination with full pivoting,
    of a matrix whose entries :func:`as_matrix` reads as exact."""
    a = as_matrix(m)
    if a.dtype != object:
        raise TypeError("exact rank needs exact entries")
    return _bareiss(a.tolist())


# ---------------------------------------------------------------------------
# Determinants and minors of MultiPoly matrices


def det_multipoly(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant over the polynomial ring: the order-n case of
    :func:`minors`."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    found = minors(rows, n)
    return found[0] if found else MultiPoly.zero(rows[0][0].nvars)


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
    Each minor holds its terms in ``sorted_terms()`` order: a floating
    evaluation sums terms in insertion order, so this order fixes the
    bits of the bound checks whatever the arithmetic that built them.
    Size-capped: matrices beyond 9x9 (or r > 9) are refused.

    One sweep over the rows, a generalized Laplace expansion along the
    last row: the minor on rows R + (i,), i > max R, and columns C + {j}
    sums (-1)**(len(R) + t) * m[i][j] * minor(R, C) over j, t being j's
    position in the new column tuple. Each level keeps, per row tuple,
    only its nonzero minors; zero entries are skipped, and a row tuple
    too late to reach order r is not extended. Only sums and products
    are formed, never a quotient. Building the order-k minors costs one
    polynomial product per nonzero order-(k-1) minor and nonzero entry
    of a later row outside its columns; each lower minor is formed once
    for all the minors above it.
    """
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if order > min(nrows, ncols):
        raise ValueError("minor order exceeds matrix dimensions")
    if order < 1:
        raise ValueError("minor order must be >= 1")
    check_minor_size(nrows, ncols)
    # per row: its nonzero entries j, as (m[i][j], -m[i][j]) indexed by sign
    signed = [[(j, (e, -e)) for j, e in enumerate(row) if not e.is_zero()]
              for row in m]
    level = {(): {(): MultiPoly.one(m[0][0].nvars)}}
    for k in range(order):
        following = {}
        for rows, table in level.items():
            first = rows[-1] + 1 if rows else 0
            for i in range(first, nrows - order + k + 1):
                sums = {}
                for cols, minor in table.items():
                    for j, entry in signed[i]:
                        if j in cols:
                            continue
                        t = sum(c < j for c in cols)
                        key = cols[:t] + (j,) + cols[t:]
                        term = entry[(k + t) % 2] * minor
                        sums[key] = sums[key] + term if key in sums else term
                nonzero = {c: d for c, d in sums.items() if not d.is_zero()}
                if nonzero:
                    following[rows + (i,)] = nonzero
        level = following
    return [MultiPoly(d.nvars, dict(d.sorted_terms()))
            for rows in sorted(level) for _, d in sorted(level[rows].items())]


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
