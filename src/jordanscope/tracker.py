"""Eigenvalue branch continuation and splitting-point machinery.

Branches are advanced by residue integrals over circles that isolate
one distinct root each; steps are accepted only after the dominance
inequality |P_new(z) - P_old(z)| < |P_old(z)| has been sampled on every
circle, which guarantees the root counts inside persist.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .algebra.matrices import identity_like
from .algebra.multipoly import complex_modulus, complex_product
from .algebra.unipoly import UniPoly, derivative
from .family import MatrixFamily
from .ranklab import (DEFAULT_REL_TOL, NonFiniteError, ScaleBounds, norm_bounds,
                      norm_scales, power_ranks)

#: nodes per circle at the first quadrature level; each later level doubles
FIRST_QUADRATURE_NODES = 32
MAX_QUADRATURE_NODES = 2**14
ROUCHE_BOUNDARY_SAMPLES = 64
MAX_STEP_HALVINGS = 20
#: probes per ring around a point (see probe_stacks)
PROBE_COUNT = 8


class ContourError(RuntimeError):
    """Non-convergent residue integral (a root too close to the circle)."""


class ProbeDisagreementError(RuntimeError):
    """Probe ring saw inconsistent eigenvalue counts."""


# ---------------------------------------------------------------------------
# eigenvalue clustering (the numerical stand-in for "the distinct eigenvalues")


def cluster_tolerance(norm: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    return 1e3 * rel_tol * (1.0 + norm)


def _clusters(values: np.ndarray, close: np.ndarray) -> list:
    """The cluster lists of the rows of an (N, k) array of values,
    ``close[r, i, j]`` marking the pairs of row r within tolerance: the
    connected components of the close pairs, each centered at Python's
    ``sum(g) / len(g)`` of its values in row order, ordered by (re, im)
    and on ties by first member. A row without a close pair is a list of
    singletons, sorted at once. In the others the components come from
    one transitive closure, and each row is summed and sorted value by
    value."""
    k = values.shape[1]
    ordered = np.take_along_axis(values, np.lexsort((values.imag, values.real)), 1)
    singles = (ordered + 0.0).tolist()  # the bits of sum([v]) / 1 for finite v
    for r in np.flatnonzero(~np.isfinite(ordered).all(axis=1)).tolist():
        singles[r] = [sum([v]) / 1 for v in ordered[r].tolist()]
    out = [[(c, 1) for c in line] for line in singles]
    (joined,) = np.nonzero(np.triu(close, 1).any(axis=(1, 2)))
    if not len(joined):
        return out
    reach = close[joined] | np.eye(k, dtype=bool)
    for m in range(k):
        reach |= reach[:, :, m, None] & reach[:, None, m, :]
    label = reach.argmax(axis=2)  # each value's least fellow member
    for r, group in zip(joined.tolist(), label.tolist()):
        groups = {}
        for g, v in zip(group, values[r].tolist()):
            groups.setdefault(g, []).append(v)
        out[r] = sorted(((sum(g) / len(g), len(g)) for g in groups.values()),
                        key=lambda c: (c[0].real, c[0].imag))
    return out


def cluster_stack(values: np.ndarray, scales: ScaleBounds,
                  rel_tol: float = DEFAULT_REL_TOL) -> list:
    """The distinct eigenvalues of each row of an (N, k) array, as
    [(center, count)]: the groups of values within transitive distance
    :func:`cluster_tolerance` of the matrix's 2-norm, centered at their
    means and ordered by (re, im). The norms come as
    :class:`ranklab.ScaleBounds` (:func:`ranklab.norm_scales`); the
    tolerance is monotone in the norm, so only a row with a distance in
    (tol(lo), tol(hi)] asks ``scales.exact``, and the others get the same
    clusters at tol(lo). Distances are the hypot of the parts, which has
    the bits of Python's abs(complex).
    """
    values = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = values[:, :, None] - values[:, None, :]
        dist = np.hypot(diff.real, diff.imag)
    tol = cluster_tolerance(scales.lo, rel_tol)
    top = cluster_tolerance(scales.hi, rel_tol)[:, None, None]
    between = ((dist > tol[:, None, None]) & (dist <= top)).any(axis=(1, 2))
    for i in np.flatnonzero(between):
        tol[i] = cluster_tolerance(scales.exact(i), rel_tol)
    return _clusters(values, dist <= tol[:, None, None])


def distinct_eigenvalues(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL):
    """Distinct eigenvalues with multiplicities, by clustering: a
    :func:`cluster_stack` of one."""
    stack = np.asarray(matrix)[None]
    return cluster_stack(np.linalg.eigvals(stack), norm_scales(stack), rel_tol)[0]


# ---------------------------------------------------------------------------
# branch state


@dataclass
class BranchState:
    """Distinct roots with multiplicities plus a shared isolation radius."""

    centers: Tuple[complex, ...]
    multiplicities: Tuple[int, ...]
    radius: float

    def __post_init__(self):
        if len(self.centers) != len(self.multiplicities):
            raise ValueError("centers/multiplicities length mismatch")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        m = len(self.centers)
        for i in range(m):
            for j in range(i + 1, m):
                if 2 * self.radius >= abs(self.centers[i] - self.centers[j]):
                    raise ValueError("isolation disks are not disjoint")


def isolate(roots_with_multiplicities) -> BranchState:
    """Isolation radius = quarter of the minimal pairwise root distance
    (1.0 for a single distinct root)."""
    roots = [complex(r) for r, _ in roots_with_multiplicities]
    mults = [int(k) for _, k in roots_with_multiplicities]
    if len(roots) == 1:
        eps = 1.0
    else:
        dmin = min(
            abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
        )
        if dmin == 0:
            raise ValueError("repeated root in the distinct-root list")
        eps = dmin / 4.0
    return BranchState(tuple(roots), tuple(mults), eps)


def nearest_disks(values, state: BranchState):
    """Index of the isolation disk of ``state`` nearest to each value
    (the first on a tie), or None when some value lies in no disk."""
    out = []
    for value in values:
        dists = [abs(value - c) for c in state.centers]
        j = dists.index(min(dists))
        if dists[j] >= state.radius:
            return None
        out.append(j)
    return out


def disk_means(eigenvalues, state: BranchState):
    """Mean of the eigenvalues in each isolation disk of ``state``, or
    None unless every disk holds exactly its multiplicity of them."""
    disks = nearest_disks(eigenvalues, state)
    if disks is None:
        return None
    groups = [[] for _ in state.centers]
    for value, j in zip(eigenvalues, disks):
        groups[j].append(value)
    if tuple(len(g) for g in groups) != state.multiplicities:
        return None
    return tuple(sum(g) / len(g) for g in groups)


# ---------------------------------------------------------------------------
# residue integrals and the dominance check, stacked over circles
#
# Every value is computed at once for all nodes of all circles, on float64
# arrays that hold real and imaginary parts apart. The formulas are
# Python's own complex arithmetic written out (products, CPython's
# quotient, ``abs`` as ``hypot``, sums in node order), so that each value
# equals, bit for bit, what a Python loop over the nodes computes; numpy's
# complex loops fuse multiply-adds and differ from it in the last bit.

#: nodes per circle evaluated in one array pass; a level with more nodes
#: is evaluated block by block, so memory stays bounded
QUADRATURE_BLOCK = 1024

#: the finest level so far: levels are powers of two, and node k of level q
#: is node k * (Q // q) of level Q >= q bit for bit (the angle scales exactly)
_UNIT_NODES = np.ones(1, dtype=complex)


def _unit_nodes(q: int, start: int, stop: int):
    """Real and imaginary parts of cmath.exp(2j*pi*k/q), k in [start, stop)."""
    global _UNIT_NODES
    if len(_UNIT_NODES) < q:
        _UNIT_NODES = np.fromiter((cmath.exp(2j * math.pi * k / q) for k in range(q)),
                                  complex, q)
    e = _UNIT_NODES[:: len(_UNIT_NODES) // q][start:stop]
    return e.real, e.imag


def _circle_points(centers, radius: float, q: int, start: int, stop: int):
    """z = center + radius * e_k for every center (rows) and node k in
    [start, stop) (columns): the radius is promoted to complex(radius, 0)."""
    er, ei = _unit_nodes(q, start, stop)
    wr = radius * er - 0.0 * ei
    wi = radius * ei + 0.0 * er
    cr = np.array([c.real for c in centers])[:, None]
    ci = np.array([c.imag for c in centers])[:, None]
    return cr + wr, ci + wi, cr, ci


def _horners(coeff_lists, zr, zi):
    """UniPoly.eval of each coefficient list at every z, one (re, im) pair
    per list, from one Horner pass over their rows stacked. A list joins at
    its leading coefficient: a padded zero would make a -0.0 part +0.0."""
    m, count = len(zr), len(coeff_lists)
    d = max(1, *map(len, coeff_lists))
    c = np.array([list(cs) + [0j] * (d - len(cs)) for cs in coeff_lists], complex)
    # coefficient k at every row and node: a plane adds faster than a column
    cr, ci = np.repeat(c.view(float).reshape(count, d, 2).T[..., None], zr.size,
                       axis=-1).reshape(2, d, count * m, *zr.shape[1:])
    zr, zi = np.concatenate([zr] * count), np.concatenate([zi] * count)
    blocks = [slice(j * m, (j + 1) * m) for j in range(count)]
    ar, ai = cr[d - 1], ci[d - 1]  # the longest lists start at their leading coefficient
    for k in reversed(range(d - 1)):
        re, im = ar * zr, ar * zi
        re -= ai * zi
        im += ai * zr
        ar, ai = np.add(re, cr[k], out=re), np.add(im, ci[k], out=im)
        for rows, cs in zip(blocks, coeff_lists):
            if len(cs) == k + 1:
                ar[rows], ai[rows] = cs[k].real, cs[k].imag
    for rows, cs in zip(blocks, coeff_lists):
        if not cs:  # the zero polynomial evaluates to 0 * z
            ar[rows], ai[rows] = 0.0 * zr[rows] - 0.0 * zi[rows], 0.0 * zi[rows] + 0.0 * zr[rows]
    return [(ar[rows], ai[rows]) for rows in blocks]


def _quotient(ar, ai, br, bi):
    """a / b by CPython's complex division: the larger part of b (the real
    one on a tie) divides the other, both branches in one formula; NaN
    where a part of b is NaN. b must not be 0."""
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    ratio = small / big
    denom = big + small * ratio
    pr, pi = ar * ratio, ai * ratio
    return (np.where(by_real, ar + pi, pr + ai) / denom,
            np.where(by_real, ai - pr, pi - ar) / denom)


def _coefficients(p):
    """The complex coefficients of p and of p'; ``track_path`` keeps this
    pair for each point it visits, and passes it for p."""
    if not isinstance(p, UniPoly):
        return p
    return [complex(c) for c in p.coeffs], [complex(c) for c in derivative(p).coeffs]


def _terms(zr, zi, cr, ci, pr, pi, dr, di):
    """The integrand z p'(z)/p(z) (z - c) from z, c, p(z) and p'(z) at the
    nodes of circles about centers c, one row per circle, and two masks:
    where the node loop stops (|p| vanishes or abs(p) overflows) and where
    abs(p) overflows."""
    size, overflow = complex_modulus(pr, pi)
    tr, ti = _quotient(*complex_product(zr, zi, dr, di), pr, pi)
    # dz/dtheta = i*(z - center)
    tr, ti = complex_product(tr, ti, zr - cr, zi - ci)
    return tr, ti, overflow | (size < 1e-300), overflow


def _first_errors(errors, bad, overflow):
    """Each row's error at its first bad node of a ``_terms`` block, if it has none yet."""
    for row in np.flatnonzero(bad.any(axis=1)) if np.count_nonzero(bad) else ():
        if errors[row] is None:
            errors[row] = (OverflowError("absolute value too large")
                           if overflow[row, bad[row].argmax()]
                           else ContourError("|p| vanishes on the contour"))
    return errors


def _node_sums(blocks, count: int):
    """Per circle, the sum of the integrand over the nodes, in node order
    from 0j, from the blocks of ``_terms`` that cover a level, and the
    error the node loop raises first (None if none): ContourError where
    |p| vanishes, OverflowError where abs(p) overflows."""
    acc = np.zeros((2 * count, 1))  # real parts, then imaginary parts
    errors = [None] * count
    for tr, ti, bad, overflow in blocks:
        _first_errors(errors, bad, overflow)
        acc = np.add.accumulate(np.hstack([acc, np.vstack([tr, ti])]), axis=1)[:, -1:]
    return [complex(r, i) for r, i in zip(*acc.reshape(2, count).tolist())], errors


def _known_sums(q_known: int, values):
    """``_node_sums`` of every circle at each level of q_known / 2^j >=
    FIRST_QUADRATURE_NODES nodes, from the ``_terms`` arguments at q_known
    nodes: one integrand pass, then one accumulate over the levels stacked
    and right-padded with +0.0, exact for a running sum from 0j."""
    tr, ti, bad, overflow = _terms(*values)
    count = len(tr)
    strides = [2**j for j in range((q_known // FIRST_QUADRATURE_NODES).bit_length())]
    table = np.zeros((len(strides), 2, count, 1 + q_known))
    for k, s in enumerate(strides):
        table[k, :, :, 1:1 + q_known // s] = tr[:, ::s], ti[:, ::s]
    acc = np.add.accumulate(table, axis=-1)[..., -1].tolist()
    return {q_known // s: ([complex(r, i) for r, i in zip(*acc[k])],
                           _first_errors([None] * count, bad[:, ::s], overflow[:, ::s]))
            for k, s in enumerate(strides)}


@np.errstate(all="ignore")
def contour_roots(
    p: UniPoly,
    centers: Sequence[complex],
    radius: float,
    multiplicities: Sequence[int],
    known=None,
) -> Tuple[complex, ...]:
    """The unique distinct root inside each circle |z - center| = radius,
    by the residue formula.

    Trapezoidal quadrature of z p'(z)/p(z) over each circle (spectrally
    accurate for this analytic integrand), with node doubling from
    FIRST_QUADRATURE_NODES until two successive values agree to 1e-12
    relative. The circles that have not converged share the node count
    and are evaluated in one array pass per level. When several circles
    fail, the error raised is that of the first of them in order.
    ``known`` is a pair (Q, the arguments of ``_terms`` at all Q nodes of
    every circle) already computed for this p. Every level whose nodes
    are among them is summed from one integrand pass (``_known_sums``);
    the coefficients of p and p' are built only for a level beyond them.
    p may also be given as its ``_coefficients``.
    """
    centers = [complex(c) for c in centers]
    radius = float(radius)
    roots = [None] * len(centers)
    prev = [None] * len(centers)  # each circle's value at the last level
    known_sums = {} if known is None else _known_sums(*known)
    coeffs = []  # of p and p', once a level needs them

    def level(rows, q):
        if not coeffs:
            coeffs.extend(_coefficients(p))
        for start in range(0, q, QUADRATURE_BLOCK):
            zr, zi, cr, ci = _circle_points([centers[i] for i in rows], radius, q,
                                            start, min(q, start + QUADRATURE_BLOCK))
            (pr, pi), (dr, di) = _horners(coeffs, zr, zi)
            yield _terms(zr, zi, cr, ci, pr, pi, dr, di)

    # the first failing circle so far: no later circle can decide the error
    failed, failure = len(centers), None
    for i, multiplicity in enumerate(multiplicities):
        if multiplicity < 1:
            failed, failure = i, ValueError("multiplicity must be >= 1")
            break
    rows = list(range(failed))
    q = FIRST_QUADRATURE_NODES
    while rows:
        sums, errors = (([part[i] for i in rows] for part in known_sums[q]) if q in known_sums
                        else _node_sums(level(rows, q), len(rows)))
        for i, total, err in zip(rows, sums, errors):
            if err is None:
                try:
                    # (1 / (multiplicity * 2*pi*i)) * i * (2*pi/q) * sum
                    cur = total / (q * multiplicities[i])
                    if prev[i] is not None and abs(cur - prev[i]) < 1e-12 * (1.0 + abs(cur)):
                        roots[i] = cur
                    elif q > MAX_QUADRATURE_NODES:
                        err = ContourError(
                            f"no convergence with {MAX_QUADRATURE_NODES} nodes; "
                            "a root is probably near the contour"
                        )
                    prev[i] = cur
                except ArithmeticError as error:
                    err = error
            if err is not None:
                failed, failure = i, err
                break
        rows = [i for i in rows if i < failed and roots[i] is None]
        q *= 2
    if failure is not None:
        raise failure
    return tuple(roots)


def contour_root(p: UniPoly, center: complex, radius: float, multiplicity: int) -> complex:
    """The unique distinct root inside one circle (see contour_roots)."""
    return contour_roots(p, [center], radius, [multiplicity])[0]


def _rouche_values(p_old, p_new, state: BranchState):
    """The dominance inequality |p_new - p_old| < |p_old| at
    ROUCHE_BOUNDARY_SAMPLES nodes of every circle of the state. None when
    it fails at some node; else the ``known`` values of p_new and p_new'
    at those nodes, for ``contour_roots``."""
    q = ROUCHE_BOUNDARY_SAMPLES
    (old, _), (new, dnew) = _coefficients(p_old), _coefficients(p_new)
    with np.errstate(all="ignore"):
        zr, zi, cr, ci = _circle_points([complex(c) for c in state.centers],
                                        float(state.radius), q, 0, q)
        (new_r, new_i), (old_r, old_i), (dr, di) = _horners([new, old, dnew], zr, zi)
        change, change_overflow = complex_modulus(new_r - old_r, new_i - old_i)
        size, size_overflow = complex_modulus(old_r, old_i)
        stop = (change_overflow | size_overflow | (change >= size)).ravel()
    first = stop.argmax()
    if not stop[first]:
        return q, (zr, zi, cr, ci, new_r, new_i, dr, di)
    if change_overflow.flat[first] or size_overflow.flat[first]:
        raise OverflowError("absolute value too large")
    return None


# ---------------------------------------------------------------------------
# path tracking


@dataclass
class TrackSample:
    t: float
    point: tuple
    branches: Tuple[complex, ...]
    multiplicities: Tuple[int, ...]


@dataclass
class SplitEvent:
    t_bracket: Tuple[float, float]
    point_bracket: Tuple[tuple, tuple]


@dataclass
class TrackResult:
    samples: List[TrackSample]
    events: List[SplitEvent]


def _polyline(vertices):
    verts = [tuple(complex(c) for c in v) for v in vertices]
    if len(verts) < 2:
        raise ValueError("path needs at least two vertices")
    lengths = []
    for a, b in zip(verts, verts[1:]):
        lengths.append(math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b))))
    total = sum(lengths)
    if total == 0:
        raise ValueError("path has zero length")
    offsets = [0.0]
    for ln in lengths:
        offsets.append(offsets[-1] + ln)

    def at(t: float) -> tuple:
        s = t * total
        for k, (a, b) in enumerate(zip(verts, verts[1:])):
            if s <= offsets[k + 1] or k == len(verts) - 2:
                seg = lengths[k]
                u = 0.0 if seg == 0 else (s - offsets[k]) / seg
                u = min(max(u, 0.0), 1.0)
                return tuple(x + (y - x) * u for x, y in zip(a, b))

    return at


def track_path(
    family: MatrixFamily,
    path: Sequence[Sequence[complex]],
    steps: int,
    rel_tol: float = DEFAULT_REL_TOL,
) -> TrackResult:
    """Continue all eigenvalue branches along a polyline in parameter space.

    Each step is validated by the boundary dominance inequality before
    branches advance by residue integrals. When repeated halving cannot
    produce an acceptable step the collision is reported as a bracketed
    split event and tracking re-seeds just past the bracket.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    zeta = _polyline(path)
    base_h = 1.0 / steps
    h_min = base_h / 2**MAX_STEP_HALVINGS

    # A rejected trial point is tried again from a later t, and a re-seed
    # may land on one, so each point's polynomial is kept for the path.
    polys = {}  # t -> _coefficients of the characteristic polynomial at zeta(t)

    def char_poly(t_at, point):
        if t_at not in polys:
            polys[t_at] = _coefficients(family.char_poly_at(point))
        return polys[t_at]

    def seed(t_at):
        """The point, its branch state from its eigenvalues, and its
        characteristic polynomial."""
        point = zeta(t_at)
        clusters = distinct_eigenvalues(family.at(point), rel_tol)
        p = char_poly(t_at, point)
        return point, isolate(clusters), p

    t = 0.0
    here, state, p_cur = seed(t)
    # While every step is accepted, t runs through this grid, so its points
    # are evaluated as one stack. A rejected step leaves the grid, and a
    # point off it is evaluated alone. If a value at some grid point leaves
    # float64, every point is evaluated alone when the path visits it, so
    # the error comes where the path reaches that point.
    grid, t_at = [], t
    while t_at < 1.0 - 1e-14:
        t_at = min(t_at + base_h, 1.0)
        grid.append(t_at)
    try:
        polys.update(zip(grid, map(_coefficients, family.char_poly_at_many(
            [zeta(g) for g in grid]))))
    except NonFiniteError:
        pass
    samples = [TrackSample(t, here, state.centers, state.multiplicities)]
    events: List[SplitEvent] = []
    h = base_h

    while t < 1.0 - 1e-14:
        t_try = min(t + h, 1.0)
        there = zeta(t_try)
        p_try = char_poly(t_try, there)
        known = _rouche_values(p_cur, p_try, state)
        if known is not None:
            new_centers = contour_roots(
                p_try, state.centers, state.radius, state.multiplicities,
                known=known,
            )
            state = isolate(list(zip(new_centers, state.multiplicities)))
            t, here, p_cur = t_try, there, p_try
            samples.append(TrackSample(t, here, state.centers,
                                       state.multiplicities))
            h = min(base_h, 2 * h)
        else:
            h /= 2
            if h < h_min:
                events.append(SplitEvent((t, t_try), (here, there)))
                t_resume = min(t + base_h, 1.0)
                if t_resume >= 1.0 - 1e-14:
                    break
                t = t_resume
                here, state, p_cur = seed(t)
                samples.append(TrackSample(t, here, state.centers,
                                           state.multiplicities))
                h = base_h
    return TrackResult(samples=samples, events=events)


# ---------------------------------------------------------------------------
# splitting amounts and the extended nilpotent product


@dataclass
class SplittingAmounts:
    eigenvalues: Tuple[complex, ...]
    multiplicities: Tuple[int, ...]
    amounts: Tuple[int, ...]

    def __post_init__(self):
        for kappa, nj in zip(self.amounts, self.multiplicities):
            if not 1 <= kappa <= nj:
                raise ValueError("splitting amount outside [1, multiplicity]")


@functools.lru_cache(maxsize=None)
def _probe_direction(nparams: int) -> tuple:
    # fixed generic complex direction, unit norm
    raw = [cmath.exp(1j * (0.7548776662 * (k + 1) + 0.3)) for k in range(nparams)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in raw))
    return tuple(x / norm for x in raw)


_RING = [cmath.exp(2j * math.pi * k / PROBE_COUNT) for k in range(PROBE_COUNT)]


def _ring_offsets(radius: float, nparams: int) -> list:
    """The PROBE_COUNT offsets ``radius * unit * d`` of a probe ring, one
    tuple of ``nparams`` Python complex numbers per unit node; a probe is
    the point plus its offset, coordinate by coordinate."""
    u = _probe_direction(nparams)
    return [tuple(radius * unit * d for d in u) for unit in _RING]


@dataclass
class ProbeStack:
    """A point and two rings of probes around it, evaluated as one stack.

    ``points`` is a (17, nparams) complex array: row 0 is the point, then
    come PROBE_COUNT probes at the probe radius and PROBE_COUNT at half
    of it. ``matrices`` holds the family at every point and ``clusters``
    their distinct eigenvalues, from one stacked eigensolve and one
    stacked norm.
    """

    points: np.ndarray
    matrices: np.ndarray
    clusters: list

    @property
    def rings(self):
        """Cluster lists of the outer ring, then of the inner ring."""
        c = PROBE_COUNT
        return self.clusters[1 : 1 + c], self.clusters[1 + c :]

    def eigen_split(self) -> bool:
        """Sampling test: does some probe carry more distinct eigenvalues
        than the point?"""
        here = len(self.clusters[0])
        return any(len(c) > here for c in self.clusters[1:])


def probe_stacks(
    family: MatrixFamily,
    points,
    probe_radius: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> List[ProbeStack]:
    """One :class:`ProbeStack` per point, all evaluated as one stack.

    The 2 * PROBE_COUNT ring offsets are formed once
    (:func:`_ring_offsets`), and every probe is its point plus its offset
    in one complex addition over an (N, 17, nparams) array. That addition
    is componentwise, so each probe has the bits of the same addition
    made probe by probe.
    The 17 * N points go through one ``at_many`` call, one ``eigvals``
    call and one :func:`cluster_stack`, which takes an SVD norm only
    where the norm bounds leave a cluster open; each row depends only on
    its own matrix, so a stack has the bits it has alone.
    """
    nparams = family.nparams
    nodes = np.array([[complex(c) for c in point] for point in points],
                     dtype=complex).reshape(len(points), nparams)
    ring = np.array(_ring_offsets(probe_radius, nparams)
                    + _ring_offsets(probe_radius / 2, nparams), dtype=complex)
    rows = np.concatenate([nodes[:, None], nodes[:, None] + ring], axis=1)
    matrices = family.at_many(rows.reshape(-1, nparams))
    clusters = cluster_stack(np.linalg.eigvals(matrices), norm_scales(matrices), rel_tol)
    size = 1 + 2 * PROBE_COUNT
    return [ProbeStack(rows[i], matrices[i * size : (i + 1) * size],
                       clusters[i * size : (i + 1) * size]) for i in range(len(rows))]


def amounts_from_stack(stack: ProbeStack) -> SplittingAmounts:
    """Splitting amounts read off a probe stack: the outer ring, or the
    inner one when the outer ring disagrees."""
    state = isolate(stack.clusters[0])
    for ring in stack.rings:
        # distinct eigenvalues of each probe in each disk; None for a
        # probe with one outside every disk (the probe is too far)
        counts = set()
        for clusters in ring:
            disks = nearest_disks([lam for lam, _ in clusters], state)
            counts.add(None if disks is None
                       else tuple(disks.count(j) for j in range(len(state.centers))))
        if len(counts) == 1 and None not in counts:
            return SplittingAmounts(
                eigenvalues=state.centers,
                multiplicities=state.multiplicities,
                amounts=counts.pop(),
            )
    raise ProbeDisagreementError(
        "probe ring disagrees on eigenvalue counts; the ring may cross the "
        "splitting set or the radius is too large"
    )


def splitting_amounts(
    family: MatrixFamily,
    xi,
    probe_radius: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> SplittingAmounts:
    """How many distinct eigenvalues each eigenvalue of A(xi) splits into,
    counted at the probes of one :func:`probe_stacks` evaluation: the
    outer ring if all its probes agree, else the inner ring at half the
    probe radius, else a ProbeDisagreementError (:func:`amounts_from_stack`)."""
    return amounts_from_stack(probe_stacks(family, [xi], probe_radius, rel_tol)[0])


def factors_from_stack(stack: ProbeStack):
    """Factor list [(eigenvalue, power)] of the extended nilpotent product
    at the point of a probe stack: powers are 1 off the splitting set and
    the splitting amounts on it."""
    # Eigenvalue clustering, not the splitting-matrix rank that
    # classify_point uses, decides the split here. Both agree on every
    # scan node measured, but on [[z, 1, 0], [0, z, 0], [0, 0, 1]] at
    # z = 1 with probe radius 1e-3 the rank misses the 1e-3 root gap,
    # and the extended product would then jump at the split point.
    if not stack.eigen_split():
        return [(lam, 1) for lam, _ in stack.clusters[0]]
    sa = amounts_from_stack(stack)
    return list(zip(sa.eigenvalues, sa.amounts))


def extended_theta_factors(
    family: MatrixFamily,
    point,
    rel_tol: float = DEFAULT_REL_TOL,
    probe_radius: float = 1e-2,
):
    """Factor list [(eigenvalue, power)] of the extended nilpotent product.

    Powers are 1 off the splitting set and the splitting amounts on it.
    """
    return factors_from_stack(probe_stacks(family, [point], probe_radius, rel_tol)[0])


def theta_stack(matrices: np.ndarray, factor_lists):
    """The products Theta = prod (lam - A)^power for a stack of matrices,
    in the ring of the stack: complex, or exact for an object stack.

    ``factor_lists[i]`` is the [(lam, power)] list of ``matrices[i]``.
    Shorter lists are padded with identity factors, which leaves every
    product bit-for-bit what the unpadded product would be. Returns the
    (N, n, n) stack and, as :class:`ranklab.ScaleBounds`, the roundoff
    scales of the products, the products of the factor norms
    ``||lam - A||**power``: bounded by the same products of the factors'
    :func:`ranklab.norm_bounds` (0 with a zero factor, (0, inf) if a factor
    or partial product leaves the normal range), exact from SVDs on demand.
    An object stack takes powers of 1 only (numpy forms no powers of
    object stacks) and has no roundoff: its scales are None.
    """
    a = np.asarray(matrices)
    exact = a.dtype == object
    if not exact:
        a = a.astype(complex, copy=False)
    count, n = a.shape[0], a.shape[-1]
    width = max((len(f) for f in factor_lists), default=0)
    used = np.arange(width) < np.array([len(f) for f in factor_lists], dtype=int)[:, None]
    lams = np.zeros((count, width), dtype=a.dtype)
    powers = np.ones((count, width), dtype=int)
    pairs = [pair for factors in factor_lists for pair in factors]  # row by row, as used
    lams[used] = [lam for lam, _ in pairs]
    powers[used] = [power for _, power in pairs]
    eye = identity_like(a)
    factor = np.broadcast_to(eye, (count, width, n, n)).copy()
    for j in range(width):  # a column at a time keeps the temporaries small
        rows = used[:, j]
        factor[rows, j] = lams[rows, j, None, None] * eye - a[rows]
    scales = None
    if not exact:
        lo, hi = (b.reshape(count, width) for b in norm_bounds(factor.reshape(-1, n, n)))
        low, high, normal = np.ones(count), np.ones(count), np.ones(count, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(width):  # an identity pad takes the power 0
                power = np.where(used[:, j], powers[:, j], 0)
                term = lo[:, j] ** power
                low, high = low * term, high * hi[:, j] ** power
                normal &= np.minimum(term, low) >= np.finfo(float).tiny
        zero = np.any(used & (hi == 0), axis=1) & (high == 0)  # a zero factor

        def exact_scale(i):  # SVD norms, each to its power, multiplied in list order
            norms = np.linalg.svd(factor[i, : len(factor_lists[i])], compute_uv=False)
            scale = 1.0
            for norm, (_, power) in zip(norms[:, 0].tolist(), factor_lists[i]):
                try:
                    scale *= norm ** int(power)
                except OverflowError:  # power_ranks refuses a non-finite scale it needs
                    scale = math.inf
            return scale

        scales = ScaleBounds(np.where(normal, low, 0.0),
                             np.where(normal, high, np.where(zero, 0.0, np.inf)), exact_scale)
    powered = factor.copy() if np.any(powers[used] > 1) else factor
    for power in set(powers[used].tolist()) - {1}:
        pick = used & (powers == power)
        powered[pick] = np.linalg.matrix_power(factor[pick], power)
    theta = np.broadcast_to(eye, a.shape).copy()
    # an overflowing product is reported where it is ranked (power_ranks)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(width):
            theta = theta @ powered[:, j]
    return theta, scales


def theta_power_ranks(theta: np.ndarray, scales, rel_tol: float = DEFAULT_REL_TOL):
    """rank Theta^k for k = 1..n-1 of every product of a ``theta_stack``
    result, as one tuple per matrix, from one :func:`power_ranks` chain.

    A Theta of rank 0 leaves the chain at k = 1 with higher ranks 0,
    which is exact: either Theta = 0 exactly, or rel_tol * n >= 1, or
    ||Theta^k|| <= ||Theta||^k <= (1e3 * eps * n * S)^k lies below the
    floor 1e3 * eps * n * S^k of Theta^k, S being its roundoff scale.
    """
    n = theta.shape[-1]
    rows = power_ranks(theta, n - 1, scales, lambda ranks: ranks[1] == 0, rel_tol)
    return [tuple(row[1:] + [0] * (n - len(row))) for row in rows]

