"""Jordan block census from ranks of powers, and the local holomorphic
similarity transform.

The census needs no eigenvector computation at all: the number of
blocks of size k at an eigenvalue lam is the second difference
rank (lam-Phi)^(k-1) + rank (lam-Phi)^(k+1) - 2 rank (lam-Phi)^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra.matrices import as_matrix, identity_like, poly_at_matrix
from .algebra.scalars import GaussianRational
from .family import MatrixFamily
from .ranklab import (
    DEFAULT_REL_TOL,
    NonFiniteError,
    kernel_basis,
    norm_scales,
    power_ranks,
)
from .sylv import _power
from .tracker import (
    disk_means,
    distinct_eigenvalues,
    isolate,
    theta_power_ranks,
    theta_stack,
)

#: allowed ||Theta^n|| on the floating path, relative to (1 + ||Phi||)^(n m)
NILPOTENCY_SCALE = 1e-8
#: allowed similarity residual of a local Jordan transform, relative to
#: 1 + ||A||
TRANSFORM_RESIDUAL_SCALE = 1e-6


class CensusInconsistencyError(RuntimeError):
    """Census invariants failed; usually a tolerance problem."""

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile


# ---------------------------------------------------------------------------
# the nilpotent product over distinct eigenvalues


def theta_from_squarefree(phi, q0):
    """Theta = (-1)^m q0(Phi), m = deg q0, with q0 the square-free part of
    the characteristic polynomial of Phi (``unipoly.square_free_part``):
    the symbolic Theta of a family, the product of (lam_j - A) over the
    distinct eigenvalue branches wherever none collide."""
    value = poly_at_matrix(q0.coeffs, as_matrix(phi))
    return -value if q0.degree % 2 == 1 else value


# ---------------------------------------------------------------------------
# rank profiles and the census


@dataclass
class RankProfile:
    """ranks[k] = rank (lam - Phi)^k for k = 0..n+1, ranks[0] = n."""

    eigenvalue: object
    ranks: Tuple[int, ...]


def _rank_profiles(phis: np.ndarray, lam_lists, rel_tol: float):
    """The :class:`RankProfile` of each matrix Phi of an (N, n, n) stack at
    each of its eigenvalues lam, as one list per matrix: one
    :func:`ranklab.power_ranks` chain over the bases lam - Phi of all of
    them, floored at ||lam - Phi||^k (:func:`ranklab.norm_scales`) and
    leaving the chain once two consecutive ranks agree. The kernel chain
    has then stabilized, so the tail repeats that rank exactly; a lam that
    is not an eigenvalue gives the constant profile n. Only a power that
    a profile still needs is formed, so only such a power or floor can
    raise NonFiniteError, and a profile is the same in any stack.
    """
    n = phis.shape[-1]
    exact = phis.dtype == object
    owners = [i for i, lams in enumerate(lam_lists) for _ in lams]
    flat = [lam for lams in lam_lists for lam in lams]
    ring = np.array(flat, dtype=object if exact else complex)
    with np.errstate(over="ignore", invalid="ignore"):  # stacked_ranks refuses inf
        bases = ring[:, None, None] * identity_like(phis) - phis[owners]
    scales = None if exact else norm_scales(bases)
    rows = power_ranks(bases, n + 1, scales, lambda r: r[-1] == r[-2], rel_tol)
    profiles = iter(RankProfile(lam, tuple(row + row[-1:] * (n + 2 - len(row))))
                    for lam, row in zip(flat, rows))
    return [[next(profiles) for _ in lams] for lams in lam_lists]


@dataclass
class JordanCensus:
    """Block counts per distinct eigenvalue plus the aggregate."""

    eigenvalues: tuple
    multiplicities: Tuple[int, ...]
    blocks: Tuple[Dict[int, int], ...]
    profiles: Tuple[RankProfile, ...]

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    @property
    def aggregate(self) -> Dict[int, int]:
        agg: Dict[int, int] = {}
        for b in self.blocks:
            for size, count in b.items():
                agg[size] = agg.get(size, 0) + count
        return dict(sorted(agg.items()))


def _sort_key(lam):
    if isinstance(lam, GaussianRational):
        return (lam.re, lam.im)
    z = complex(lam)
    return (z.real, z.imag)


def _sorted_pairs(eigenvalues, n: int):
    """(value, multiplicity) pairs in (re, im) order, checked distinct
    and summing to n."""
    pairs = sorted(eigenvalues, key=lambda p: _sort_key(p[0]))
    for i, (a, _) in enumerate(pairs):
        for b, _ in pairs[i + 1 :]:
            if a == b:
                raise ValueError("eigenvalues must be distinct")
    if sum(m for _, m in pairs) != n:
        raise ValueError("multiplicities must sum to the matrix size")
    return pairs


def _census(pairs, profiles) -> JordanCensus:
    """Block counts from the rank profiles, with the census invariants
    checked."""
    n = sum(m for _, m in pairs)
    blocks = []
    for (lam, mult), prof in zip(pairs, profiles):
        r = prof.ranks
        theta = {}
        for k in range(1, n + 1):
            count = r[k - 1] + r[k + 1] - 2 * r[k]
            if count < 0:
                raise CensusInconsistencyError(
                    f"negative block count at eigenvalue {lam}", prof
                )
            if count:
                theta[k] = count
        weighted = sum(k * c for k, c in theta.items())
        if weighted != mult:
            raise CensusInconsistencyError(
                f"block sizes at eigenvalue {lam} sum to {weighted}, "
                f"expected multiplicity {mult}",
                prof,
            )
        blocks.append(theta)
    return JordanCensus(
        eigenvalues=tuple(lam for lam, _ in pairs),
        multiplicities=tuple(m for _, m in pairs),
        blocks=tuple(blocks),
        profiles=tuple(profiles),
    )


def jordan_censuses(phis, eigenvalue_lists, rel_tol: float = DEFAULT_REL_TOL) -> list:
    """:func:`jordan_census` of each of a sequence of n x n matrices of
    one ring, with the complete (value, multiplicity) list of each.

    Every profile of every matrix comes from one rank chain
    (:func:`_rank_profiles`), so a matrix gets the same census in any
    sequence. A matrix whose census is inconsistent gets its
    :class:`CensusInconsistencyError` in place of a census; a malformed
    eigenvalue list raises ValueError before any rank is taken.
    """
    if not len(phis):
        return []
    phis = np.stack([as_matrix(phi) for phi in phis])
    pair_lists = [_sorted_pairs(pairs, phis.shape[-1]) for pairs in eigenvalue_lists]
    all_profiles = _rank_profiles(
        phis, [[lam for lam, _ in pairs] for pairs in pair_lists], rel_tol
    )
    out = []
    for pairs, profiles in zip(pair_lists, all_profiles):
        try:
            out.append(_census(pairs, profiles))
        except CensusInconsistencyError as err:
            out.append(err)
    return out


def jordan_census(
    phi,
    eigenvalues: Optional[Sequence] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> JordanCensus:
    """Jordan block census of a single matrix from rank second differences:
    :func:`jordan_censuses` of a sequence of one.

    ``eigenvalues`` is a complete list of (value, algebraic
    multiplicity) pairs; pass None on the floating path to obtain it
    from the eigensolver with clustering. Census invariants are
    verified and an inconsistency (negative count, multiplicity
    mismatch) raises with the offending rank profile attached.
    """
    phi = as_matrix(phi)
    if eigenvalues is None:
        if phi.dtype == object:
            raise ValueError("exact path requires the eigenvalue list")
        eigenvalues = distinct_eigenvalues(phi, rel_tol)
    (census,) = jordan_censuses([phi], [eigenvalues], rel_tol)
    if isinstance(census, CensusInconsistencyError):
        raise census
    return census


# ---------------------------------------------------------------------------
# rank identity suite


@dataclass
class IdentityCheck:
    name: str
    detail: str
    ok: bool
    lhs: object = None
    rhs: object = None


@dataclass
class IdentityReport:
    checks: List[IdentityCheck]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_rank_identities(
    phi,
    census: JordanCensus,
    rel_tol: float = DEFAULT_REL_TOL,
) -> IdentityReport:
    """Check the rank identities tying the census together.

    For 1 <= k <= n-1:
      * rank Theta^k = n - n*m + sum_j rank (lam_j - Phi)^k
      * rank Theta^k = n - sum_(l<=k) l*theta_l - k * sum_(l>k) theta_l
    plus the power stabilization rank (lam_j - Phi)^k = n - n_j for
    k >= n_j, and nilpotency Theta^n = 0 (exact zero on the exact path;
    norm below NILPOTENCY_SCALE * (1 + |Phi|)^(n m), inf past float64, on
    the floating path, where a Theta^n beyond float64 raises NonFiniteError).
    """
    n = census.n
    m = len(census.eigenvalues)
    checks: List[IdentityCheck] = []

    # rank Theta^k for k = 1..n-1, and the nilpotency check on Theta^n
    phi = as_matrix(phi)
    thetas, scales = theta_stack(phi[None], [[(lam, 1) for lam in census.eigenvalues]])
    (theta_ranks,) = theta_power_ranks(thetas, scales, rel_tol)
    power = thetas[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            power = power @ thetas[0]
    if phi.dtype == object:
        nilpotent = IdentityCheck("theta-nilpotent", f"Theta^{n} = 0 exactly",
                                  all(x.is_zero() for x in power.flat))
    elif not np.all(np.isfinite(power)):
        raise NonFiniteError()
    else:
        norm = float(np.linalg.norm(power, 2))
        bound = NILPOTENCY_SCALE * _power(1.0 + float(np.linalg.norm(phi, 2)), n * m)
        nilpotent = IdentityCheck("theta-nilpotent", f"|Theta^{n}| = {norm:.3e}",
                                  norm <= bound, norm, bound)

    # stabilization of the individual rank profiles
    for lam, nj, prof in zip(
        census.eigenvalues, census.multiplicities, census.profiles
    ):
        for k in range(nj, n + 2):
            ok = prof.ranks[k] == n - nj
            checks.append(
                IdentityCheck(
                    "rank-power-stabilization",
                    f"eigenvalue {lam}, k={k}",
                    ok,
                    prof.ranks[k],
                    n - nj,
                )
            )

    checks.append(nilpotent)

    # the two rank formulas for Theta^k
    agg = census.aggregate
    for k in range(1, n):
        lhs = theta_ranks[k - 1]
        rhs_sum = n - n * m + sum(
            prof.ranks[k] for prof in census.profiles
        )
        checks.append(
            IdentityCheck("theta-rank-sum", f"k={k}", lhs == rhs_sum, lhs, rhs_sum)
        )
        rhs_census = (
            n
            - sum(l * agg.get(l, 0) for l in range(1, k + 1))
            - k * sum(agg.get(l, 0) for l in range(k + 1, n + 1))
        )
        checks.append(
            IdentityCheck(
                "theta-rank-census", f"k={k}", lhs == rhs_census, lhs, rhs_census
            )
        )
    return IdentityReport(checks)


# ---------------------------------------------------------------------------
# reference Jordan form


class IllConditionedBasisError(RuntimeError):
    def __init__(self, message, condition):
        super().__init__(f"{message} (condition number {condition:.3e})")
        self.condition = condition


def jordan_form_from_census(census: JordanCensus, eigenvalues) -> np.ndarray:
    """Block-diagonal Jordan form with the census's blocks and the given
    eigenvalues, one per census eigenvalue and in its (re, im) order;
    block sizes descend within each eigenvalue."""
    out = np.zeros((census.n, census.n), dtype=complex)
    pos = 0
    for lam, sizes in zip(eigenvalues, census.blocks):
        for size in sorted(sizes, reverse=True):
            for _ in range(sizes[size]):
                idx = np.arange(pos, pos + size)
                out[idx, idx] = complex(lam)
                out[idx[:-1], idx[1:]] = 1.0
                pos += size
    return out


# ---------------------------------------------------------------------------
# local holomorphic similarity transform via the intertwining map


@dataclass
class TransformSample:
    point: tuple
    residual: float
    kernel_dim: int
    condition: float


@dataclass
class TransformReport:
    samples: List[TransformSample]
    max_residual: float
    kernel_dim: int

    @property
    def passed(self) -> bool:
        return bool(self.samples)


class KernelDimensionError(RuntimeError):
    pass


def disk_samples(xi, radius: float, count: int):
    """Deterministic sample points in the Euclidean ball of ``radius``
    around xi, not the polydisk: a direction uniform on the sphere and a
    distance radius * sqrt(u), u uniform in [0, 1], which is uniform
    over the disk when there is one parameter."""
    rng = np.random.default_rng(0)
    xi = tuple(complex(c) for c in xi)
    out = []
    for _ in range(count):
        direction = rng.normal(size=len(xi)) + 1j * rng.normal(size=len(xi))
        direction /= np.linalg.norm(direction)
        r = radius * np.sqrt(rng.uniform())
        out.append(tuple(c + r * d for c, d in zip(xi, direction)))
    return out


def _wasow_matrix(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Matrix of Phi |-> Phi A - J Phi on column-major-flattened Phi."""
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    return np.kron(a.T, eye) - np.kron(eye, j)


def local_jordan_transform(
    family: MatrixFamily,
    xi,
    disk_radius: float,
    sample_count: int = 50,
    rel_tol: float = DEFAULT_REL_TOL,
) -> TransformReport:
    """Sampled holomorphic similarity to a rigid Jordan form on a disk.

    At the (Jordan stable) base point xi the census fixes nilpotent
    parts N_j once and for all; on the disk only the eigenvalue scalars
    move. Every point, xi included, takes the same rule: J has as its
    eigenvalues the means of the eigenvalues of A in the isolation disks
    of xi's (:func:`tracker.disk_means`), and the intertwiner S with
    S A = J S is the orthogonal projection of a target onto the kernel of
    the intertwining map. At xi the target is a fixed generic matrix, at
    every sample it is S(xi); T = S^(-1) conjugates A into J up to the
    reported residual. xi and the samples are evaluated as one stack, so
    a sample beyond float64 raises before any point is processed.
    """
    xi = tuple(complex(c) for c in xi)
    n = family.n
    points = [xi] + disk_samples(xi, disk_radius, sample_count)
    stack = family.at_many(points)
    census = jordan_census(stack[0], rel_tol=rel_tol)
    state = isolate(list(zip(census.eigenvalues, census.multiplicities)))
    rng = np.random.default_rng(1)
    target = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    samples = []
    for point, a_here, lams in zip(points, stack, np.linalg.eigvals(stack)):
        means = disk_means(lams.tolist(), state)
        if means is None:
            raise KernelDimensionError(
                f"an isolation disk lost its multiplicity at {point}; the base "
                "point may not be Jordan stable or the disk is too large"
            )
        j_here = jordan_form_from_census(census, means)
        norm = float(np.linalg.norm(a_here, 2))
        kernel = kernel_basis(_wasow_matrix(a_here, j_here), rel_tol,
                              scale=norm + float(np.linalg.norm(j_here, 2)))
        if point is xi:
            kernel_dim = kernel.shape[1]
        elif kernel.shape[1] != kernel_dim:
            raise KernelDimensionError(
                f"kernel dimension changed from {kernel_dim} to "
                f"{kernel.shape[1]} at {point}; the base point may not be "
                "Jordan stable or the disk is too large"
            )
        projected = kernel @ (kernel.conj().T @ target.flatten(order="F"))
        s_here = projected.reshape((n, n), order="F")
        cond = float(np.linalg.cond(s_here))
        if not np.isfinite(cond) or cond > 1e12:
            raise IllConditionedBasisError(
                f"projected intertwiner is singular at {point}", cond
            )
        conj = s_here @ a_here @ np.linalg.inv(s_here)
        residual = float(np.linalg.norm(conj - j_here, 2))
        limit = TRANSFORM_RESIDUAL_SCALE * (1.0 + norm)
        if residual > limit:
            raise IllConditionedBasisError(
                f"similarity residual {residual:.3e} exceeds {limit:.3e} "
                f"at {point}",
                cond,
            )
        if point is xi:
            target = s_here
        else:
            samples.append(TransformSample(point, residual, kernel.shape[1], cond))
    return TransformReport(
        samples=samples,
        max_residual=max((s.residual for s in samples), default=0.0),
        kernel_dim=kernel_dim,
    )
