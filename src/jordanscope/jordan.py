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

from .algebra.matrices import as_matrix, char_poly, identity_like, poly_at_matrix
from .algebra.scalars import GaussianRational
from .algebra.unipoly import gcd_squarefree_oracle
from .family import MatrixFamily
from .ranklab import (
    DEFAULT_REL_TOL,
    NonFiniteError,
    kernel_basis,
    power_ranks,
)
from .tracker import (
    contour_roots,
    distinct_eigenvalues,
    isolate,
    theta_power_ranks,
    theta_stack,
)

#: allowed ||T^(-1) Phi T - J|| of a chain basis, relative to
#: (1 + ||Phi||) times its condition number
BASIS_RESIDUAL_SCALE = 1e-8
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


def _ring_scalars(phi: np.ndarray, values) -> np.ndarray:
    """``values`` in the ring of ``phi``: complex unless ``phi`` is exact."""
    if phi.dtype == object:
        return np.array(list(values), dtype=object)
    return np.array([complex(v) for v in values])


def theta_product(phi, eigenvalues):
    """Product of (lam_j - Phi) over the distinct eigenvalues, in the
    ring of Phi's entries (:func:`as_matrix`).

    The factors commute, so the order does not matter. Repeated
    eigenvalues are rejected.
    """
    eigenvalues = list(eigenvalues)
    for i, a in enumerate(eigenvalues):
        for b in eigenvalues[i + 1 :]:
            if a == b:
                raise ValueError("eigenvalue list must be distinct")
    phi = as_matrix(phi)
    eye = identity_like(phi)
    theta = eye
    for lam in _ring_scalars(phi, eigenvalues):
        theta = theta @ (lam * eye - phi)
    return theta


def theta_from_squarefree(phi):
    """Exact cross-check route: (-1)^m q0(Phi) with q0 the square-free
    part of the characteristic polynomial."""
    phi = as_matrix(phi)
    m, q0 = gcd_squarefree_oracle(char_poly(phi))
    value = poly_at_matrix(q0.coeffs, phi)
    return -value if m % 2 == 1 else value


# ---------------------------------------------------------------------------
# rank profiles and the census


@dataclass
class RankProfile:
    """ranks[k] = rank (lam - Phi)^k for k = 0..n+1, ranks[0] = n."""

    eigenvalue: object
    ranks: Tuple[int, ...]


def rank_profile(phi, lam, rel_tol: float = DEFAULT_REL_TOL) -> RankProfile:
    """Ranks of the powers (lam - Phi)^k, k = 0..n+1, by the rank rule
    of the ring of Phi's entries (:func:`ranklab.stacked_ranks`).

    Once two consecutive ranks agree the kernel chain has stabilized
    and all later ranks equal them exactly, so the tail repeats that
    rank; this also keeps deep powers of badly scaled matrices from
    polluting the profile with roundoff. A lam that is not an eigenvalue
    gives the constant profile n, a valid degenerate case.
    """
    return _rank_profiles(as_matrix(phi), [lam], rel_tol)[0]


def _rank_profiles(phi: np.ndarray, lams, rel_tol: float):
    """:func:`rank_profile` of a matrix at several eigenvalues, with
    every power of every base ranked in one :func:`power_ranks` call.

    All powers up to n+1 are ranked; the stopping rule then discards the
    ranks after the kernel chain has stabilized, so the profiles equal
    the ones computed power by power. A floating power that overflows
    is an error only if the profile needs its rank.
    """
    n = phi.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # power_ranks refuses inf
        bases = _ring_scalars(phi, lams)[:, None, None] * identity_like(phi) - phi
    exact = phi.dtype == object
    norms = None if exact else np.linalg.norm(bases, 2, axis=(1, 2)).tolist()
    ranks = power_ranks(bases, n + 1, norms, rel_tol)
    profiles = []
    for lam, row in zip(lams, ranks.tolist()):
        out = [n]
        for k in range(1, n + 2):
            if len(out) >= 2 and out[-1] == out[-2]:
                out.append(out[-1])
            elif k <= len(row):
                out.append(row[k - 1])
            else:
                raise NonFiniteError()
        profiles.append(RankProfile(lam, tuple(out)))
    return profiles


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


def jordan_census(
    phi,
    eigenvalues: Optional[Sequence] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> JordanCensus:
    """Jordan block census of a single matrix from rank second differences.

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
    pairs = sorted(eigenvalues, key=lambda p: _sort_key(p[0]))
    n = len(phi)
    for i, (a, _) in enumerate(pairs):
        for b, _ in pairs[i + 1 :]:
            if a == b:
                raise ValueError("eigenvalues must be distinct")
    if sum(m for _, m in pairs) != n:
        raise ValueError("multiplicities must sum to the matrix size")

    all_profiles = _rank_profiles(phi, [lam for lam, _ in pairs], rel_tol)
    blocks = []
    profiles = []
    for (lam, mult), prof in zip(pairs, all_profiles):
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
        profiles.append(prof)
    return JordanCensus(
        eigenvalues=tuple(lam for lam, _ in pairs),
        multiplicities=tuple(m for _, m in pairs),
        blocks=tuple(blocks),
        profiles=tuple(profiles),
    )


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

    def failures(self):
        return [c for c in self.checks if not c.ok]


def verify_rank_identities(
    phi,
    census: JordanCensus,
    rel_tol: float = DEFAULT_REL_TOL,
    nilpotency_scale: float = 1e-8,
) -> IdentityReport:
    """Check the rank identities tying the census together.

    For 1 <= k <= n-1:
      * rank Theta^k = n - n*m + sum_j rank (lam_j - Phi)^k
      * rank Theta^k = n - sum_(l<=k) l*theta_l - k * sum_(l>k) theta_l
    plus the power stabilization rank (lam_j - Phi)^k = n - n_j for
    k >= n_j, and nilpotency Theta^n = 0 (exact zero on the exact path;
    norm below nilpotency_scale * (1 + |Phi|)^(n m) on the floating path).
    """
    n = census.n
    m = len(census.eigenvalues)
    checks: List[IdentityCheck] = []

    # rank Theta^k for k = 1..n-1, and the nilpotency check on Theta^n
    phi = as_matrix(phi)
    if phi.dtype == object:
        thetas, scales = theta_product(phi, census.eigenvalues)[None], None
    else:
        factors = [(complex(lam), 1) for lam in census.eigenvalues]
        thetas, scales = theta_stack(phi[None], [factors])
    (theta_ranks,) = theta_power_ranks(thetas, scales, rel_tol)
    power = thetas[0]
    for _ in range(n - 1):
        power = power @ thetas[0]
    if phi.dtype == object:
        nilpotent = IdentityCheck("theta-nilpotent", f"Theta^{n} = 0 exactly",
                                  all(x.is_zero() for x in power.flat))
    else:
        norm = float(np.linalg.norm(power, 2))
        bound = nilpotency_scale * (1.0 + float(np.linalg.norm(phi, 2))) ** (n * m)
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
# numerical Jordan basis (chains from kernels of powers)


class IllConditionedBasisError(RuntimeError):
    def __init__(self, message, condition):
        super().__init__(f"{message} (condition number {condition:.3e})")
        self.condition = condition


@dataclass
class BasisResult:
    transform: np.ndarray
    jordan_form: np.ndarray
    residual: float
    condition: float


def jordan_form_from_census(census: JordanCensus, eigenvalues=None) -> np.ndarray:
    """Block-diagonal reference form: eigenvalues in (re, im) order,
    block sizes descending within each eigenvalue. ``eigenvalues``, one
    per census eigenvalue and in its order, replaces the census's own."""
    lams = census.eigenvalues if eigenvalues is None else eigenvalues
    out = np.zeros((census.n, census.n), dtype=complex)
    pos = 0
    for lam, sizes in zip(lams, census.blocks):
        for size in sorted(sizes, reverse=True):
            for _ in range(sizes[size]):
                idx = np.arange(pos, pos + size)
                out[idx, idx] = complex(lam)
                out[idx[:-1], idx[1:]] = 1.0
                pos += size
    return out


def jordan_basis(
    phi: np.ndarray,
    census: Optional[JordanCensus] = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> BasisResult:
    """Invertible T with T^(-1) Phi T in Jordan normal form (floating).

    Chains are built down the kernel staircase of (Phi - lam)^k; new
    chain tops are chosen orthogonal to the lower kernel and to the
    already-inherited vectors (minimal-norm tie-breaking). Block order:
    eigenvalues by (re, im), sizes descending.
    """
    phi = np.asarray(phi, dtype=complex)
    n = phi.shape[0]
    if census is None:
        census = jordan_census(phi, rel_tol=rel_tol)
    columns = []
    for lam, sizes in zip(census.eigenvalues, census.blocks):
        lam = complex(lam)
        nilp = phi - lam * np.eye(n)
        nilp_norm = float(np.linalg.norm(nilp, 2))
        max_size = max(sizes)
        kernels = {0: np.zeros((n, 0), dtype=complex)}
        power = np.eye(n, dtype=complex)
        for k in range(1, max_size + 1):
            power = power @ nilp
            kernels[k] = kernel_basis(power, rel_tol, scale=nilp_norm**k)
        chains_here: List[List[np.ndarray]] = []  # chains as [top, N top, ...]
        carried: List[np.ndarray] = []  # height-(k+1) vectors mapped down
        for k in range(max_size, 0, -1):
            inherited = [nilp @ v for v in carried]
            needed = sizes.get(k, 0)
            new_tops = []
            if needed:
                avoid = [kernels[k - 1]] + [
                    v.reshape(-1, 1) for v in inherited
                ]
                avoid_mat = np.hstack(avoid) if avoid else np.zeros((n, 0))
                kk = kernels[k]
                if avoid_mat.shape[1]:
                    q, _ = np.linalg.qr(avoid_mat)
                    proj = kk - q @ (q.conj().T @ kk)
                else:
                    proj = kk
                u, s, vh = np.linalg.svd(proj, full_matrices=False)
                if needed > np.sum(s > 1e-10):
                    raise IllConditionedBasisError(
                        "cannot separate new chain tops from the lower kernel",
                        np.inf,
                    )
                new_tops = [kk @ vh[i].conj() for i in range(needed)]
            for top in new_tops:
                chain = [top]
                for _ in range(k - 1):
                    chain.append(nilp @ chain[-1])
                chains_here.append(chain)
            carried = inherited + new_tops
        # assemble columns: sizes descending, each chain bottom-up
        chains_here.sort(key=len, reverse=True)
        for chain in chains_here:
            columns.extend(reversed(chain))
    t = np.column_stack(columns)
    condition = float(np.linalg.cond(t))
    if not np.isfinite(condition) or condition > 1e13:
        raise IllConditionedBasisError("chain basis is numerically singular",
                                       condition)
    j_ref = jordan_form_from_census(census)
    residual = float(
        np.linalg.norm(np.linalg.solve(t, phi @ t) - j_ref, 2)
    )
    norm = float(np.linalg.norm(phi, 2))
    if residual > BASIS_RESIDUAL_SCALE * (1.0 + norm) * max(1.0, condition):
        raise IllConditionedBasisError(
            f"residual {residual:.3e} too large for the chain basis", condition
        )
    return BasisResult(t, j_ref, residual, condition)


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
    move, following the contour-integral branches. At each sample the
    intertwiner S with S A = J S is recovered by orthogonal projection
    of S(xi) onto the kernel of the intertwining map, and
    T = S^(-1) conjugates A into J up to the reported residual.
    """
    xi = tuple(complex(c) for c in xi)
    a_xi = family.at(xi)
    n = family.n
    clusters = distinct_eigenvalues(a_xi, rel_tol)
    census = jordan_census(a_xi, clusters, rel_tol)
    state = isolate(family.char_poly_at(xi), clusters)
    basis = jordan_basis(a_xi, census, rel_tol)
    s_xi = np.linalg.inv(basis.transform)

    samples = []
    kernel_dim = None
    max_residual = 0.0
    for point in disk_samples(xi, disk_radius, sample_count):
        a_here = family.at(point)
        lams = contour_roots(family.char_poly_at(point), census.eigenvalues,
                             state.radius, census.multiplicities)
        j_here = jordan_form_from_census(census, lams)
        w = _wasow_matrix(a_here, j_here)
        kernel = kernel_basis(w, rel_tol)
        if kernel_dim is None:
            kernel_dim = kernel.shape[1]
        elif kernel.shape[1] != kernel_dim:
            raise KernelDimensionError(
                f"kernel dimension changed from {kernel_dim} to "
                f"{kernel.shape[1]} at {point}; the base point may not be "
                "Jordan stable or the disk is too large"
            )
        vec = s_xi.flatten(order="F")
        projected = kernel @ (kernel.conj().T @ vec)
        s_here = projected.reshape((n, n), order="F")
        cond = float(np.linalg.cond(s_here))
        if not np.isfinite(cond) or cond > 1e12:
            raise IllConditionedBasisError(
                f"projected intertwiner is singular at {point}", cond
            )
        conj = s_here @ a_here @ np.linalg.inv(s_here)
        residual = float(np.linalg.norm(conj - j_here, 2))
        limit = TRANSFORM_RESIDUAL_SCALE * (1.0 + float(np.linalg.norm(a_here, 2)))
        if residual > limit:
            raise IllConditionedBasisError(
                f"similarity residual {residual:.3e} exceeds {limit:.3e} "
                f"at {point}",
                cond,
            )
        max_residual = max(max_residual, residual)
        samples.append(TransformSample(point, residual, kernel.shape[1], cond))
    return TransformReport(
        samples=samples,
        max_residual=max_residual,
        kernel_dim=kernel_dim or 0,
    )
