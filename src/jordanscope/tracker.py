"""Eigenvalue branch continuation and splitting-point machinery.

Branches are advanced by residue integrals over circles that isolate
one distinct root each; steps are accepted only after the dominance
inequality |P_new(z) - P_old(z)| < |P_old(z)| has been sampled on every
circle, which guarantees the root counts inside persist.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .algebra.multipoly import complex_modulus, complex_product
from .algebra.unipoly import UniPoly, derivative
from .family import MatrixFamily
from .ranklab import DEFAULT_REL_TOL, NonFiniteError, power_ranks

#: nodes per circle at the first quadrature level; each later level doubles
FIRST_QUADRATURE_NODES = 32
MAX_QUADRATURE_NODES = 2**14
ROUCHE_BOUNDARY_SAMPLES = 64
MAX_STEP_HALVINGS = 20
#: probes per ring around a point (see probe_stack)
PROBE_COUNT = 8


class ContourError(RuntimeError):
    """Non-convergent residue integral (a root too close to the circle)."""


class ProbeDisagreementError(RuntimeError):
    """Probe ring saw inconsistent eigenvalue counts."""


# ---------------------------------------------------------------------------
# eigenvalue clustering (the numerical stand-in for "the distinct eigenvalues")


def cluster_tolerance(norm: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    return 1e3 * rel_tol * (1.0 + norm)


def cluster_values(values: Sequence[complex], tol: float):
    """Group values whose transitive pairwise distance is below tol.

    Returns [(center, count)] with centers = cluster means, ordered by
    (re, im) of the center. Deterministic.
    """
    values = list(values)
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(values[i])
    clusters = [(sum(g) / len(g), len(g)) for g in groups.values()]
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return clusters


def cluster_eigenvalues(values: np.ndarray, norm: float,
                        rel_tol: float = DEFAULT_REL_TOL):
    """Distinct eigenvalues with multiplicities, from precomputed
    eigenvalues of a matrix with operator norm ``norm``."""
    return cluster_values(values.tolist(), cluster_tolerance(float(norm), rel_tol))


def distinct_eigenvalues(matrix: np.ndarray, rel_tol: float = DEFAULT_REL_TOL):
    """Distinct eigenvalues with multiplicities, by clustering."""
    return cluster_eigenvalues(np.linalg.eigvals(matrix),
                               np.linalg.norm(matrix, 2), rel_tol)


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


def isolate(p: UniPoly, roots_with_multiplicities) -> BranchState:
    """Isolation radius = quarter of the minimal pairwise root distance
    (1.0 for a single distinct root)."""
    roots = [complex(r) for r, _ in roots_with_multiplicities]
    mults = [int(k) for _, k in roots_with_multiplicities]
    if p is not None and sum(mults) != p.degree:
        raise ValueError("multiplicities do not sum to the degree")
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

_UNIT_NODES = {}  # q -> unit circle nodes, for q <= QUADRATURE_BLOCK


def _unit_nodes(q: int, start: int, stop: int):
    """Real and imaginary parts of cmath.exp(2j*pi*k/q), k in [start, stop)."""
    if q in _UNIT_NODES:
        re, im = _UNIT_NODES[q]
        return re[start:stop], im[start:stop]
    e = np.array([cmath.exp(2j * math.pi * k / q) for k in range(start, stop)])
    parts = (e.real.copy(), e.imag.copy())
    if q <= QUADRATURE_BLOCK and (start, stop) == (0, q):
        _UNIT_NODES[q] = parts
    return parts


def _circle_points(centers, radius: float, q: int, start: int, stop: int):
    """z = center + radius * e_k for every center (rows) and node k in
    [start, stop) (columns): the radius is promoted to complex(radius, 0)."""
    er, ei = _unit_nodes(q, start, stop)
    wr = radius * er - 0.0 * ei
    wi = radius * ei + 0.0 * er
    cr = np.array([c.real for c in centers])[:, None]
    ci = np.array([c.imag for c in centers])[:, None]
    return cr + wr, ci + wi, cr, ci


def _horner(coeffs, zr, zi):
    """UniPoly.eval at every z: Horner's rule on complex coefficients."""
    if not coeffs:  # the zero polynomial evaluates to 0 * z
        return 0.0 * zr - 0.0 * zi, 0.0 * zi + 0.0 * zr
    ar = np.full(zr.shape, coeffs[-1].real)
    ai = np.full(zr.shape, coeffs[-1].imag)
    for c in reversed(coeffs[:-1]):
        ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
    return ar, ai


def _quotient(ar, ai, br, bi):
    """a / b with the two branches of CPython's complex division; NaN
    where a part of b is NaN. b must not be 0."""
    by_real = np.abs(br) >= np.abs(bi)
    by_imag = ~by_real & (np.abs(bi) >= np.abs(br))
    ratio = bi / br
    denom = br + bi * ratio
    re1, im1 = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    ratio = br / bi
    denom = br * ratio + bi
    re2, im2 = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    return (np.where(by_real, re1, np.where(by_imag, re2, np.nan)),
            np.where(by_real, im1, np.where(by_imag, im2, np.nan)))


def _coefficients(p: UniPoly):
    return [complex(c) for c in p.coeffs]


def _circle_values(coeffs, dcoeffs, centers, radius: float, q: int,
                   start: int, stop: int):
    """The nodes [start, stop) of every circle, its center, and p and p'
    there: (zr, zi, cr, ci, pr, pi, dr, di), one row per circle."""
    zr, zi, cr, ci = _circle_points(centers, radius, q, start, stop)
    return (zr, zi, cr, ci, *_horner(coeffs, zr, zi), *_horner(dcoeffs, zr, zi))


def _node_sums(blocks, count: int):
    """Per circle, the sum over the nodes of z p'(z)/p(z) (z - center),
    in node order from 0j, from the blocks of ``_circle_values`` that
    cover a level, and the error the node loop raises first (None if
    none): ContourError where |p| vanishes, OverflowError where abs(p)
    overflows."""
    acc_r = np.zeros((count, 1))
    acc_i = np.zeros((count, 1))
    errors = [None] * count
    for zr, zi, cr, ci, pr, pi, dr, di in blocks:
        size, overflow = complex_modulus(pr, pi)
        bad = overflow | (size < 1e-300)
        for row in np.flatnonzero(bad.any(axis=1)):
            if errors[row] is None:
                errors[row] = (
                    OverflowError("absolute value too large")
                    if overflow[row, bad[row].argmax()]
                    else ContourError("|p| vanishes on the contour")
                )
        tr, ti = _quotient(*complex_product(zr, zi, dr, di), pr, pi)
        # dz/dtheta = i*(z - center)
        tr, ti = complex_product(tr, ti, zr - cr, zi - ci)
        acc_r = np.add.accumulate(np.hstack([acc_r, tr]), axis=1)[:, -1:]
        acc_i = np.add.accumulate(np.hstack([acc_i, ti]), axis=1)[:, -1:]
    sums = [complex(r, i) for r, i in zip(acc_r[:, 0].tolist(), acc_i[:, 0].tolist())]
    return sums, errors


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
    ``known`` is a pair (Q, values of ``_circle_values`` at all Q nodes of
    every circle) already computed for this p: levels whose nodes are
    among them are read off it.
    """
    centers = [complex(c) for c in centers]
    radius = float(radius)
    coeffs = _coefficients(p)
    dcoeffs = _coefficients(derivative(p))
    roots = [None] * len(centers)
    prev = [None] * len(centers)  # each circle's value at the last level

    def level(rows, q):
        if known is not None and known[0] % q == 0:
            pick = rows if len(rows) < len(centers) else slice(None)
            yield tuple(a[pick, :: known[0] // q] for a in known[1])
            return
        for start in range(0, q, QUADRATURE_BLOCK):
            yield _circle_values(coeffs, dcoeffs, [centers[i] for i in rows],
                                 radius, q, start, min(q, start + QUADRATURE_BLOCK))

    # the first failing circle so far: no later circle can decide the error
    failed, failure = len(centers), None
    for i, multiplicity in enumerate(multiplicities):
        if multiplicity < 1:
            failed, failure = i, ValueError("multiplicity must be >= 1")
            break
    rows = list(range(failed))
    q = FIRST_QUADRATURE_NODES
    while rows:
        with np.errstate(all="ignore"):
            sums, errors = _node_sums(level(rows, q), len(rows))
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


def _rouche_values(p_old: UniPoly, p_new: UniPoly, state: BranchState):
    """The dominance inequality |p_new - p_old| < |p_old| at
    ROUCHE_BOUNDARY_SAMPLES nodes of every circle of the state. None when
    it fails at some node; else the ``known`` values of p_new and p_new'
    at those nodes, for ``contour_roots``."""
    q = ROUCHE_BOUNDARY_SAMPLES
    with np.errstate(all="ignore"):
        values = _circle_values(
            _coefficients(p_new), _coefficients(derivative(p_new)),
            [complex(c) for c in state.centers], float(state.radius), q, 0, q)
        zr, zi, _, _, new_r, new_i, _, _ = values
        old_r, old_i = _horner(_coefficients(p_old), zr, zi)
        change, change_overflow = complex_modulus(new_r - old_r, new_i - old_i)
        size, size_overflow = complex_modulus(old_r, old_i)
        stop = (change_overflow | size_overflow | (change >= size)).ravel()
    if not stop.any():
        return q, values
    first = stop.argmax()
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
        return verts[-1]

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
    polys = {}  # t -> characteristic polynomial at zeta(t)

    def char_poly(t_at, point):
        if t_at not in polys:
            polys[t_at] = family.char_poly_at(point)
        return polys[t_at]

    def seed(t_at):
        """The point, its branch state from its eigenvalues, and its
        characteristic polynomial."""
        point = zeta(t_at)
        clusters = distinct_eigenvalues(family.at(point), rel_tol)
        p = char_poly(t_at, point)
        return point, isolate(p, clusters), p

    t = 0.0
    here, state, p_cur = seed(t)
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
            state = isolate(p_try, list(zip(new_centers, state.multiplicities)))
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
    radius: float

    def __post_init__(self):
        for kappa, nj in zip(self.amounts, self.multiplicities):
            if not 1 <= kappa <= nj:
                raise ValueError("splitting amount outside [1, multiplicity]")


def _probe_direction(nparams: int) -> tuple:
    # fixed generic complex direction, unit norm
    raw = [cmath.exp(1j * (0.7548776662 * (k + 1) + 0.3)) for k in range(nparams)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in raw))
    return tuple(x / norm for x in raw)


def probe_ring(point, radius: float):
    point = tuple(complex(c) for c in point)
    u = _probe_direction(len(point))
    out = []
    for k in range(PROBE_COUNT):
        w = radius * cmath.exp(2j * math.pi * k / PROBE_COUNT)
        out.append(tuple(c + w * d for c, d in zip(point, u)))
    return out


@dataclass
class ProbeStack:
    """A point and two rings of probes around it, evaluated as one stack.

    ``points[0]`` is the point; then come PROBE_COUNT probes at the probe
    radius and PROBE_COUNT at half of it. ``matrices`` holds the family
    at every point and ``clusters`` their distinct eigenvalues, from one
    stacked eigensolve and one stacked norm.
    """

    points: List[tuple]
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


def probe_stack(
    family: MatrixFamily,
    point,
    probe_radius: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ProbeStack:
    """Evaluate a point and its two probe rings as one :class:`ProbeStack`."""
    point = tuple(complex(c) for c in point)
    points = [point]
    for radius in (probe_radius, probe_radius / 2):
        points.extend(probe_ring(point, radius))
    matrices = family.at_many(points)
    values = np.linalg.eigvals(matrices)
    norms = np.linalg.norm(matrices, 2, axis=(1, 2))
    clusters = [cluster_eigenvalues(v, nrm, rel_tol) for v, nrm in zip(values, norms)]
    return ProbeStack(points, matrices, clusters)


def _counts_at_probe(clusters, centers, eps):
    counts = [0] * len(centers)
    for lam, _ in clusters:
        dists = [abs(lam - c) for c in centers]
        j = dists.index(min(dists))
        if dists[j] >= eps:
            return None  # an eigenvalue escaped all disks: probe too far
        counts[j] += 1
    return tuple(counts)


def amounts_from_stack(stack: ProbeStack) -> SplittingAmounts:
    """Splitting amounts read off a probe stack: the outer ring, or the
    inner one when the outer ring disagrees."""
    state = isolate(None, stack.clusters[0])
    for ring in stack.rings:
        counts = []
        for clusters in ring:
            c = _counts_at_probe(clusters, state.centers, state.radius)
            if c is not None:
                counts.append(c)
        if counts and all(c == counts[0] for c in counts) and len(counts) == len(ring):
            return SplittingAmounts(
                eigenvalues=state.centers,
                multiplicities=state.multiplicities,
                amounts=counts[0],
                radius=state.radius,
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
    """How many distinct eigenvalues each eigenvalue of A(xi) splits into.

    Counts distinct eigenvalues of A at ring probes inside each
    isolation disk of A(xi); all probes must agree. Disagreement
    triggers one retry at half the probe radius before erroring.
    """
    return amounts_from_stack(
        probe_stack(family, xi, probe_radius, rel_tol)
    )


def factors_from_stack(stack: ProbeStack):
    """Factor list [(eigenvalue, power)] of the extended nilpotent product
    at the point of a probe stack: powers are 1 off the splitting set and
    the splitting amounts on it."""
    # Eigenvalue clustering, not the splitting-matrix rank that
    # classify_point uses, decides the split here. Both agree on every
    # scan node measured, but on [[z, 1, 0], [0, z, 0], [0, 0, 1]] at
    # z = 1 with probe radius 1e-3 the rank misses the 1e-3 root gap,
    # and theta_extended would then jump at the split point.
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
    return factors_from_stack(probe_stack(family, point, probe_radius, rel_tol))


def theta_stack(matrices: np.ndarray, factor_lists):
    """The products Theta = prod (lam - A)^power for a stack of matrices.

    ``factor_lists[i]`` is the [(lam, power)] list of ``matrices[i]``.
    Shorter lists are padded with identity factors, which leaves every
    product bit-for-bit what the unpadded product would be. Returns the
    (N, n, n) stack and, per matrix, the roundoff scale: the product of
    the factor norms ``||lam - A||**power``.
    """
    a = np.asarray(matrices, dtype=complex)
    count, n = a.shape[0], a.shape[-1]
    width = max((len(f) for f in factor_lists), default=0)
    used = np.zeros((count, width), dtype=bool)
    lams = np.zeros((count, width), dtype=complex)
    powers = np.ones((count, width), dtype=int)
    for i, factors in enumerate(factor_lists):
        for j, (lam, power) in enumerate(factors):
            used[i, j], lams[i, j], powers[i, j] = True, lam, power
    eye = np.eye(n, dtype=complex)
    factor = np.broadcast_to(eye, (count, width, n, n)).copy()
    factor[used] = lams[used][:, None, None] * eye - np.repeat(a, used.sum(1), axis=0)
    # operator norms, one stacked SVD; an identity pad has norm 1
    norms = np.linalg.svd(factor, compute_uv=False)[..., 0].tolist()
    scales = []
    for i, factors in enumerate(factor_lists):
        scale = 1.0
        for j, (_, power) in enumerate(factors):
            try:
                scale *= norms[i][j] ** int(power)
            except OverflowError:  # power_ranks stops at a non-finite scale
                scale = math.inf
        scales.append(scale)
    for power in set(powers[used].tolist()) - {1}:
        pick = used & (powers == power)
        factor[pick] = np.linalg.matrix_power(factor[pick], power)
    theta = np.broadcast_to(eye, a.shape).copy()
    # an overflowing product is reported where it is ranked (power_ranks)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(width):
            theta = theta @ factor[:, j]
    return theta, scales


def theta_power_ranks(theta: np.ndarray, scales, rel_tol: float = DEFAULT_REL_TOL):
    """rank Theta^k for k = 1..n-1 of every product of a ``theta_stack``
    result, as one tuple per matrix (:func:`power_ranks`); a power that
    overflows is an error."""
    n = theta.shape[-1]
    ranks = power_ranks(theta, n - 1, scales, rel_tol)
    if ranks.shape[1] < n - 1:
        raise NonFiniteError()
    return [tuple(int(r) for r in row) for row in ranks]


def theta_extended(
    family: MatrixFamily,
    point,
    rel_tol: float = DEFAULT_REL_TOL,
    probe_radius: float = 1e-2,
) -> np.ndarray:
    """The nilpotent product, extended continuously across split points.

    Off the splitting set this is the plain product over distinct
    eigenvalues; at a split point each factor is raised to that
    eigenvalue's splitting amount, which is what the nearby products
    converge to.
    """
    factors = extended_theta_factors(family, point, rel_tol, probe_radius)
    theta, _ = theta_stack(family.at(point)[None], [factors])
    return theta[0]
