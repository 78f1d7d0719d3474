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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra.unipoly import UniPoly, derivative
from .family import MatrixFamily
from .ranklab import DEFAULT_REL_TOL, stacked_ranks

MAX_QUADRATURE_NODES = 2**14
ROUCHE_BOUNDARY_SAMPLES = 64
MAX_STEP_HALVINGS = 20


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
    point: Optional[tuple] = None

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

    @property
    def total_multiplicity(self) -> int:
        return sum(self.multiplicities)


def isolate(p: UniPoly, roots_with_multiplicities, point=None) -> BranchState:
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
    return BranchState(tuple(roots), tuple(mults), eps, point)


# ---------------------------------------------------------------------------
# residue integral for one isolated root


def contour_root(
    p: UniPoly,
    center: complex,
    radius: float,
    multiplicity: int,
    nodes: int = 32,
) -> complex:
    """The unique distinct root inside the circle, by the residue formula.

    Trapezoidal quadrature of z p'(z)/p(z) over the circle (spectrally
    accurate for this analytic integrand), with node doubling until two
    successive values agree to 1e-12 relative.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    dp = derivative(p)

    def value(q: int) -> complex:
        acc = 0j
        for k in range(q):
            z = center + radius * cmath.exp(2j * math.pi * k / q)
            pz = p.eval(z)
            if abs(pz) < 1e-300:
                raise ContourError("|p| vanishes on the contour")
            # z * p'/p * dz/dtheta, with dz/dtheta = i*(z - center)
            acc += z * dp.eval(z) / pz * (z - center)
        # (1 / (multiplicity * 2*pi*i)) * i * (2*pi/q) * acc
        return acc / (q * multiplicity)

    q = max(8, nodes)
    prev = value(q)
    while q <= MAX_QUADRATURE_NODES:
        q *= 2
        cur = value(q)
        if abs(cur - prev) < 1e-12 * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ContourError(
        f"no convergence with {MAX_QUADRATURE_NODES} nodes; "
        "a root is probably near the contour"
    )


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


def _rouche_ok(p_old: UniPoly, p_new: UniPoly, state: BranchState) -> bool:
    for center, _ in zip(state.centers, state.multiplicities):
        for k in range(ROUCHE_BOUNDARY_SAMPLES):
            z = center + state.radius * cmath.exp(
                2j * math.pi * k / ROUCHE_BOUNDARY_SAMPLES
            )
            if abs(p_new.eval(z) - p_old.eval(z)) >= abs(p_old.eval(z)):
                return False
    return True


def _seed_state(family: MatrixFamily, point, rel_tol: float) -> BranchState:
    a = family.at(point)
    clusters = distinct_eigenvalues(a, rel_tol)
    p = family.char_poly_at(point)
    return isolate(p, clusters, point=point)


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

    t = 0.0
    state = _seed_state(family, zeta(0.0), rel_tol)
    p_cur = family.char_poly_at(zeta(t))
    samples = [TrackSample(t, zeta(t), state.centers, state.multiplicities)]
    events: List[SplitEvent] = []
    h = base_h

    while t < 1.0 - 1e-14:
        t_try = min(t + h, 1.0)
        p_try = family.char_poly_at(zeta(t_try))
        if _rouche_ok(p_cur, p_try, state):
            new_centers = tuple(
                contour_root(p_try, w, state.radius, k)
                for w, k in zip(state.centers, state.multiplicities)
            )
            state = isolate(
                p_try,
                list(zip(new_centers, state.multiplicities)),
                point=zeta(t_try),
            )
            t = t_try
            p_cur = p_try
            samples.append(TrackSample(t, zeta(t), state.centers,
                                       state.multiplicities))
            h = min(base_h, 2 * h)
        else:
            h /= 2
            if h < h_min:
                t_fail = min(t + 2 * h, 1.0)  # the step that just failed
                events.append(
                    SplitEvent((t, t_fail), (zeta(t), zeta(t_fail)))
                )
                t_resume = min(t + base_h, 1.0)
                if t_resume >= 1.0 - 1e-14:
                    break
                t = t_resume
                state = _seed_state(family, zeta(t), rel_tol)
                p_cur = family.char_poly_at(zeta(t))
                samples.append(TrackSample(t, zeta(t), state.centers,
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


def probe_ring(point, radius: float, count: int = 8):
    point = tuple(complex(c) for c in point)
    u = _probe_direction(len(point))
    out = []
    for k in range(count):
        w = radius * cmath.exp(2j * math.pi * k / count)
        out.append(tuple(c + w * d for c, d in zip(point, u)))
    return out


@dataclass
class ProbeStack:
    """A point and two rings of probes around it, evaluated as one stack.

    ``points[0]`` is the point; then come ``count`` probes at the probe
    radius and ``count`` at half of it. ``matrices`` holds the family
    at every point and ``clusters`` their distinct eigenvalues, from one
    stacked eigensolve and one stacked norm.
    """

    points: List[tuple]
    matrices: np.ndarray
    clusters: list
    count: int

    @property
    def rings(self):
        """Cluster lists of the outer ring, then of the inner ring."""
        c = self.count
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
    probe_count: int = 8,
    rel_tol: float = DEFAULT_REL_TOL,
) -> ProbeStack:
    """Evaluate a point and its two probe rings as one :class:`ProbeStack`."""
    point = tuple(complex(c) for c in point)
    points = [point]
    for radius in (probe_radius, probe_radius / 2):
        points.extend(probe_ring(point, radius, probe_count))
    matrices = family.at_many(points)
    values = np.linalg.eigvals(matrices)
    norms = np.linalg.norm(matrices, 2, axis=(1, 2))
    clusters = [cluster_eigenvalues(v, nrm, rel_tol) for v, nrm in zip(values, norms)]
    return ProbeStack(points, matrices, clusters, probe_count)


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
    state = isolate(None, stack.clusters[0], point=stack.points[0])
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
    probe_count: int = 8,
    rel_tol: float = DEFAULT_REL_TOL,
) -> SplittingAmounts:
    """How many distinct eigenvalues each eigenvalue of A(xi) splits into.

    Counts distinct eigenvalues of A at ring probes inside each
    isolation disk of A(xi); all probes must agree. Disagreement
    triggers one retry at half the probe radius before erroring.
    """
    return amounts_from_stack(
        probe_stack(family, xi, probe_radius, probe_count, rel_tol)
    )


def factors_from_stack(stack: ProbeStack):
    """Factor list [(eigenvalue, power)] of the extended nilpotent product
    at the point of a probe stack: powers are 1 off the splitting set and
    the splitting amounts on it."""
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
    return factors_from_stack(probe_stack(family, point, probe_radius, rel_tol=rel_tol))


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
            scale *= norms[i][j] ** int(power)
        scales.append(scale)
    for power in set(powers[used].tolist()) - {1}:
        pick = used & (powers == power)
        factor[pick] = np.linalg.matrix_power(factor[pick], power)
    theta = np.broadcast_to(eye, a.shape).copy()
    for j in range(width):
        theta = theta @ factor[:, j]
    return theta, scales


def theta_rank_stack(matrices: np.ndarray, factor_lists,
                     rel_tol: float = DEFAULT_REL_TOL):
    """rank Theta^k for k = 1..n-1 of every matrix of a stack, as one
    tuple per matrix, from stacked products and one stacked SVD; the
    threshold of each power is floored at its roundoff scale**k."""
    theta, scales = theta_stack(matrices, factor_lists)
    count, n = theta.shape[0], theta.shape[-1]
    if n < 2:
        return [()] * count
    powers = []
    power = np.broadcast_to(np.eye(n, dtype=complex), theta.shape)
    for _ in range(1, n):
        power = power @ theta
        powers.append(power)
    ranks = stacked_ranks(
        np.concatenate(powers),
        rel_tol,
        [s**k for k in range(1, n) for s in scales],
    )
    return [tuple(int(r) for r in ranks[i::count]) for i in range(count)]


def theta_from_factors(a: np.ndarray, factors) -> np.ndarray:
    theta, _ = theta_stack(np.asarray(a, dtype=complex)[None], [factors])
    return theta[0]


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
    return theta_from_factors(family.at(point), factors)
