"""Rank computation, kernel bases, and minor enumeration.

Floating ranks use the SVD threshold rule
``sigma > rel_tol * sigma_max * max(rows, cols)``; exact ranks use
fraction-free (Bareiss) elimination with full pivoting, over Gaussian
integers after scaling each row by the lcm of its denominators;
:func:`stacked_ranks` picks the rule from the ring of the stack. Minors
of polynomial matrices come from one sweep over the rows that expands
every order-k minor along its last row in terms of the order-(k-1)
minors above it: sums and products only, no division, and each nonzero
lower minor is computed once for all minors above it, on the packed
Gaussian-integer image of ``algebra.matrices`` (its module docstring) or,
past ``matrices.PACKED_BITS_CAP`` bits, on the ``MultiPoly`` entries.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import matrices
from .algebra.multipoly import MultiPoly, NonFiniteError
from .algebra.scalars import GaussianRational

DEFAULT_REL_TOL = 1e-8

#: roundoff floor multiplier: products of k factors carry relative error
#: of order (a few) * eps * prod of factor norms
ROUNDOFF_MARGIN = 1e3

#: relative widening of :func:`norm_bounds`, far above their roundoff and the SVD's
NORM_BOUND_MARGIN = 1e-6
_TINY = np.finfo(float).tiny

#: minor enumeration refuses matrices larger than this: the row sweep
#: holds up to C(9, k)**2 minors at level k (15,876 at k = 4), each a pair
#: of packed ints of at most matrices.PACKED_BITS_CAP bits, or a MultiPoly
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
    being one roundoff scale per matrix (or one for all), or a (2, N)
    pair of them, which ranks each matrix at both from its one SVD. A
    matrix whose :func:`norm_bounds` bound on sigma_1 is at most its
    floor ``1e3 * eps * scale * max(rows, cols)`` (the smaller of a pair)
    has no singular value above the threshold: rank 0, without an SVD."""
    a = np.asarray(stack)
    if a.ndim != 3 or a.size == 0:
        raise ValueError("need a nonempty stack of 2-d matrices")
    if a.dtype == object:
        return np.array([exact_rank(m) for m in a])
    a = a.astype(complex, copy=False)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError()
    scales, rest = np.asarray(scales, dtype=float), slice(None)
    if scales.any():  # a pair's smaller floor is the floor of its smaller scale
        floor = rank_threshold(0.0, rel_tol, scales.min(axis=0) if scales.ndim == 2
                               else scales, a.shape[1:])
        rest = np.flatnonzero(~(_frobenius_bound(a)[2] <= floor))
    sigma = np.zeros((len(a), min(a.shape[1:])))  # a certified matrix counts none
    sigma[rest] = np.linalg.svd(a[rest], compute_uv=False)
    threshold = rank_threshold(sigma[:, 0], rel_tol, scales, a.shape[1:])
    return np.sum(sigma > threshold[..., None], axis=-1)


class ScaleBounds(NamedTuple):
    """Scales of a stack: lo[i] <= S_i <= hi[i], exact(i) = S_i. The
    scales of :func:`norm_scales` also take an index array in ``exact``."""

    lo: np.ndarray
    hi: np.ndarray
    exact: Callable[[int], float]


def norm_bounds(stack):
    """(lo, hi) with lo <= ||M||_2 <= hi for every M of an (N, rows, cols)
    stack: the largest row or column 2-norm and the Frobenius norm (Golub
    & Van Loan, Matrix Computations, 2.3), widened by NORM_BOUND_MARGIN.
    A zero matrix gets (0, 0), and any other whose squared sum may have
    left the normal float range (0, inf)."""
    a = np.asarray(stack)
    squares, normal, hi = _frobenius_bound(a)
    with np.errstate(over="ignore", invalid="ignore"):
        rows, cols = squares.sum(axis=2).max(axis=1), squares.sum(axis=1).max(axis=1)
    lo = np.sqrt(np.maximum(rows, cols)) * (1 - NORM_BOUND_MARGIN)
    return np.where(normal, lo, 0.0), hi


def _frobenius_bound(a: np.ndarray):
    """(squares, normal, hi) of a stack: its squared moduli, where their sum
    lies in the normal float range, and the upper bound of :func:`norm_bounds`."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = a.real**2 + a.imag**2
        total = squares.sum(axis=(1, 2))
    normal = (total >= _TINY) & (total < np.inf)
    hi = np.sqrt(total) * (1 + NORM_BOUND_MARGIN)
    wide = np.where(a.any(axis=(1, 2)), np.inf, 0.0)
    return squares, normal, np.where(normal, hi, wide)


def svd_norms(stack) -> np.ndarray:
    """The 2-norms of an (N, rows, cols) stack, from one stacked SVD; each
    has the bits of the SVD norm of its matrix alone."""
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def norm_scales(stack) -> ScaleBounds:
    """The 2-norms of a stack: :func:`norm_bounds`, and :func:`svd_norms` on
    demand, of one matrix (a float) or of an index array (an array)."""
    a = np.asarray(stack)

    def exact(i):
        norms = svd_norms(a[i])
        return norms if np.ndim(i) else float(norms)

    return ScaleBounds(*norm_bounds(a), exact)


def power_ranks(bases, count: int, scales, done,
                rel_tol: float = DEFAULT_REL_TOL) -> list:
    """rank B^k for k = 0..count of every B of an (N, n, n) stack, one
    list per base from rank B^0 = n: the one rank chain of the package.

    Step k forms B^k = B^(k-1) B (B itself at k = 1) for the bases still
    in the chain and ranks them with one :func:`stacked_ranks` call,
    exactly for an object stack (``scales`` None), else floored at S_i**k,
    S_i in [lo_i, hi_i] the roundoff scale of the i-th base (a
    :class:`ScaleBounds`). The threshold is monotone in the floor, so
    where the ranks at lo_i**k and hi_i**k agree and both floors are
    normal (or hi_i = 0) that is the rank; elsewhere S_i is asked of
    ``scales.exact``, once per base. A base leaves once ``done(its
    list)`` holds after some k >= 1. Only a power that a base still needs
    is formed, and a non-finite entry there or exact floor raises
    NonFiniteError; a list is the same in any stack.
    """
    bases = np.asarray(bases)
    rows = [[bases.shape[-1]] for _ in bases]
    active = list(range(len(bases)))
    power, exact = bases, {}
    # a non-finite power or floor is refused where it is ranked
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count + 1):
            if not active:
                break
            if k > 1:
                power = power @ bases[active]
            if bases.dtype == object:
                got = stacked_ranks(power)
            else:
                lo, hi = scales.lo[active] ** k, scales.hi[active] ** k
                got, top = stacked_ranks(power, rel_tol, np.stack([lo, hi]))
                known = (lo >= _TINY) & (hi < np.inf) | (scales.hi[active] == 0)
                ask = np.flatnonzero((got != top) | ~known)
                need = [active[j] for j in ask.tolist()]
                exact.update((i, scales.exact(i)) for i in need if i not in exact)
                try:
                    floors = [exact[i] ** k for i in need]
                except OverflowError:
                    raise NonFiniteError() from None
                if not all(map(math.isfinite, floors)):
                    raise NonFiniteError()
                if floors:
                    got[ask] = stacked_ranks(power[ask], rel_tol, floors)
            for i, r in zip(active, got.tolist()):
                rows[i].append(r)
            keep = [j for j, i in enumerate(active) if not done(rows[i])]
            power, active = power[keep], [active[j] for j in keep]
    return rows


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


def _bareiss(matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination with full pivoting over
    the Gaussian integers, of a list of rows of Gaussian rationals.

    Each row is scaled by the lcm of its denominators and each entry held
    as its (re, im) pair of ints; a step divides exactly in Z[i] by the
    previous pivot. Every entry is then a minor of the row-scaled matrix,
    a nonzero int multiple of the same minor over the rationals, so the
    zero tests, the pivots and the rank are those of elimination over
    Q(i)."""
    rows = []
    for row in matrix:
        ints = [x.ints for x in row]
        scale = math.lcm(*(d for _, _, d in ints))
        rows.append([(a * (scale // d), b * (scale // d)) for a, b, d in ints])
    nrows, ncols = len(rows), len(rows[0])
    prev = None
    for r in range(min(nrows, ncols)):
        # full pivot: any nonzero entry of the remaining submatrix
        pivot = next(((i, j) for i in range(r, nrows) for j in range(r, ncols)
                      if rows[i][j] != (0, 0)), None)
        if pivot is None:
            return r
        pi, pj = pivot
        rows[r], rows[pi] = rows[pi], rows[r]
        for row in rows:
            row[r], row[pj] = row[pj], row[r]
        top = rows[r]
        pr, pm = top[r]
        if prev is not None:  # (x + y i) / q = (x + y i) * conj(q) / |q|**2
            qr, qm = prev
            size = qr * qr + qm * qm
        for row in rows[r + 1:]:
            cr, cm = row[r]
            for j in range(r + 1, ncols):
                (ar, am), (br, bm) = row[j], top[j]
                x = pr * ar - pm * am - cr * br + cm * bm
                y = pr * am + pm * ar - cr * bm - cm * br
                if prev is not None:
                    x, y = (x * qr + y * qm) // size, (y * qr - x * qm) // size
                row[j] = (x, y)
        prev = pr, pm
    return min(nrows, ncols)


def exact_rank(m) -> int:
    """True rank over QQ(i) by Bareiss elimination with full pivoting,
    of a matrix whose entries :func:`as_matrix` reads as exact."""
    a = matrices.as_matrix(m)
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

    The sweep runs on ``matrices._Packing`` ints, or on the ``MultiPoly``
    entries past ``matrices.PACKED_BITS_CAP`` bits; the minors are the same.
    """
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if order > min(nrows, ncols):
        raise ValueError("minor order exceeds matrix dimensions")
    if order < 1:
        raise ValueError("minor order must be >= 1")
    check_minor_size(nrows, ncols)
    nvars = m[0][0].nvars
    packing = matrices._Packing.of(m, order)
    if packing is None:
        level = _sweep(m, order, MultiPoly.one(nvars))

        def emit(d, rows):
            return MultiPoly(nvars, dict(d.sorted_terms()))
    else:
        level, emit = _sweep(packing.rows, order, matrices._Packed(1, 0)), packing.unpack
    return [emit(d, rows) for rows in sorted(level) for _, d in sorted(level[rows].items())]


def _sweep(m, order: int, one) -> dict:
    """{row tuple: {column tuple: minor}} of the nonzero order-``order``
    minors of ``m`` by the row sweep of :func:`minors`, over any ring
    whose elements have ``+``, ``*``, unary ``-`` and ``is_zero()``."""
    nrows = len(m)
    # per row: its nonzero entries j, as (m[i][j], -m[i][j]) indexed by sign
    signed = [[(j, (e, -e)) for j, e in enumerate(row) if not e.is_zero()]
              for row in m]
    level = {(): {(): one}}
    for k in range(order):
        following = {}
        for rows, table in level.items():
            first = rows[-1] + 1 if rows else 0
            for i in range(first, nrows - order + k + 1):
                sums = {}
                for cols, minor in table.items():
                    for j, entry in signed[i]:
                        t = bisect_left(cols, j)
                        if t < len(cols) and cols[t] == j:
                            continue
                        key = cols[:t] + (j,) + cols[t:]
                        term = entry[(k + t) & 1] * minor
                        sums[key] = sums[key] + term if key in sums else term
                nonzero = {c: d for c, d in sums.items() if not d.is_zero()}
                if nonzero:
                    following[rows + (i,)] = nonzero
        level = following
    return level


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


def generic_points(nvars: int, seed: int = 0) -> list:
    """The GENERIC_RANK_POINTS random rational points of a generic rank,
    drawn in order from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [random_rational_point(rng, nvars) for _ in range(GENERIC_RANK_POINTS)]


def generic_rank(m: Sequence[Sequence[MultiPoly]], seed: int = 0,
                 powers: int = 1) -> list:
    """[rank m^k for k = 1..powers] of a polynomial matrix (square if
    powers > 1), each the max exact rank at the :func:`generic_points`;
    the list ends after its first 0.

    m is evaluated once at each point, and one exact :func:`power_ranks`
    chain ranks the powers of the values: evaluation at a point is a
    ring map, so m(pt)^k is m^k at pt. A point leaves the chain at its
    first rank 0. The rank decisions are exact; only the claim of
    genericity is probabilistic (``GENERIC_RANK_NOTE``).
    """
    values = np.array([[[e.eval_exact(pt) for e in row] for row in m]
                       for pt in generic_points(m[0][0].nvars, seed)], dtype=object)
    chains = power_ranks(values, powers, None, lambda ranks: ranks[-1] == 0)
    return [max(ranks) for ranks in itertools.zip_longest(*chains, fillvalue=0)][1:]
