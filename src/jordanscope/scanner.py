"""Parameter-space classification and the symbolic defining-function
pipeline for the set of non-Jordan-stable points.

The pointwise classifier samples probe rings; the symbolic pipeline
produces polynomials whose common zero set cuts out exactly the bad
points, by combining the splitting-set minors of the characteristic
polynomial with the rank minors of the powers of the (denominator-
cleared) square-free evaluation of the family.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra.matrices import as_matrix, char_poly_stack, poly_at_matrix
from .algebra.multipoly import MultiPoly, mp_content, mp_gcd
from .algebra.scalars import GR_ONE
from .algebra.unipoly import UniPoly, derivative, pseudo_divmod, subresultant_gcd
from .family import MatrixFamily
from .jordan import CensusInconsistencyError, JordanCensus, jordan_census
from .ranklab import DEFAULT_REL_TOL, generic_rank, minors
from .sylv import (
    BoundReport,
    bound_report,
    distinct_zero_counts,
    split_defining_functions,
)
from .tracker import (
    ProbeDisagreementError,
    factors_from_stack,
    probe_stack,
    theta_power_ranks,
    theta_stack,
)

MAX_GRID_POINTS = 10**6
MAX_PRODUCT_FUNCTIONS = 10**4
#: the documented scale of the floating commands (scan, census, track)
MAX_MATRIX_SIZE = 8
#: caps of the bound-check sample count and of the path step count
MAX_SAMPLES = 10**5
MAX_STEPS = 10**5


class PointKind(enum.Enum):
    SPLIT = "Split"
    JUMP = "Jump"
    STABLE_CANDIDATE = "StableCandidate"


@dataclass
class PointClass:
    point: tuple
    kind: PointKind
    rank_theta: Tuple[int, ...]
    census: Optional[JordanCensus] = None
    note: str = ""


def classify_point(
    family: MatrixFamily,
    point,
    probe_radius: float = 1e-2,
    rel_tol: float = DEFAULT_REL_TOL,
) -> PointClass:
    """Split / Jump / StableCandidate at one parameter point, by probing.

    The point and two rings of 8 probes (at the probe radius and half
    of it) are evaluated and decided as one stack of 17 matrices.
    Splitting is detected through the rank of the splitting matrix of
    the characteristic polynomial (more distinct roots at a probe than
    at the point). Jumps are detected through rank Theta^k rising at a
    probe. Stability can only be refuted by sampling, never certified.
    """
    stack = probe_stack(family, point, probe_radius, rel_tol=rel_tol)
    counts = distinct_zero_counts(char_poly_stack(stack.matrices), rel_tol)
    point, here = stack.points[0], stack.clusters[0]
    note = ""
    if np.any(counts[1:] > counts[0]):
        try:
            factors = factors_from_stack(stack)
        except ProbeDisagreementError as err:
            note = f"extended product unavailable: {err}"
            factors = [(lam, 1) for lam, _ in here]
        (rank_theta,) = theta_power_ranks(
            *theta_stack(stack.matrices[:1], [factors]), rel_tol
        )
        return PointClass(point, PointKind.SPLIT, rank_theta, None, note)

    factor_lists = [[(lam, 1) for lam, _ in c] for c in stack.clusters]
    ranks = theta_power_ranks(*theta_stack(stack.matrices, factor_lists), rel_tol)
    rank_theta = ranks[0]
    census = _try_census(stack.matrices[0], here, rel_tol)
    if any(pr > br for probe in ranks[1:] for pr, br in zip(probe, rank_theta)):
        return PointClass(point, PointKind.JUMP, rank_theta, census, note)
    if census is None:
        note = "census inconsistent at tolerance"
    return PointClass(point, PointKind.STABLE_CANDIDATE, rank_theta, census, note)


def _try_census(a: np.ndarray, clusters, rel_tol: float) -> Optional[JordanCensus]:
    try:
        return jordan_census(a, clusters, rel_tol)
    except CensusInconsistencyError:
        return None


# ---------------------------------------------------------------------------
# grid scanning


@dataclass
class ScanReport:
    family_label: Optional[str]
    params: List[str]
    box: List[Tuple[float, float]]
    resolution: List[int]
    rel_tol: float
    probe_radius: float
    points: List[PointClass]
    summary: Dict[str, int]
    rank_theta_maxima: Tuple[int, ...]

    @property
    def non_stable_points(self):
        return [p for p in self.points if p.kind is not PointKind.STABLE_CANDIDATE]


def grid_nodes(box, resolution):
    axes = []
    for (lo, hi), res in zip(box, resolution):
        if res < 2:
            raise ValueError("resolution must be >= 2 per axis")
        axes.append([lo + (hi - lo) * k / (res - 1) for k in range(res)])
    total = math.prod(len(a) for a in axes)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid size {total} exceeds cap {MAX_GRID_POINTS}")
    return list(itertools.product(*axes))


def _classify_chunk(family, probe_radius, rel_tol, nodes):
    return [classify_point(family, node, probe_radius, rel_tol) for node in nodes]


def scan_grid(
    family: MatrixFamily,
    box: Sequence[Tuple[float, float]],
    resolution,
    rel_tol: float = DEFAULT_REL_TOL,
    probe_radius: Optional[float] = None,
    chunk_map=map,
    chunks: int = 1,
) -> ScanReport:
    """Classify every node of a rectangular grid in parameter space.

    ``box`` gives one real interval per parameter (the grid lives on
    the real slice; probes still explore complex directions). The nodes
    are cut into ``chunks`` runs of consecutive nodes, and ``chunk_map``
    (``map``, or a process pool's ``map``) classifies them, one
    ``classify_point`` call per node. Output is deterministic given
    tolerances, whatever the chunking.
    """
    if len(box) != family.nparams:
        raise ValueError("need one interval per parameter")
    if isinstance(resolution, int):
        resolution = [resolution] * len(box)
    nodes = grid_nodes(box, resolution)
    if probe_radius is None:
        spacing = min(
            (hi - lo) / (res - 1) for (lo, hi), res in zip(box, resolution)
        )
        probe_radius = spacing / 4.0
    size = -(-len(nodes) // max(1, chunks))
    work = functools.partial(_classify_chunk, family, probe_radius, rel_tol)
    results = chunk_map(work, [nodes[i : i + size] for i in range(0, len(nodes), size)])
    points = [p for chunk in results for p in chunk]
    summary = {kind.value: 0 for kind in PointKind}
    for p in points:
        summary[p.kind.value] += 1
    maxima = tuple(
        max(p.rank_theta[k] for p in points) for k in range(family.n - 1)
    )
    return ScanReport(
        family_label=family.label,
        params=list(family.params),
        box=[(float(lo), float(hi)) for lo, hi in box],
        resolution=list(resolution),
        rel_tol=rel_tol,
        probe_radius=probe_radius,
        points=points,
        summary=summary,
        rank_theta_maxima=maxima,
    )


# ---------------------------------------------------------------------------
# symbolic square-free evaluation of the family


class GcdDegenerationError(RuntimeError):
    pass


@dataclass
class SquareFreeResult:
    """Denominator-cleared square-free evaluation of the family.

    ``theta_num`` holds the MultiPoly entries of D * Theta, where Theta
    is the product of (lam_j - A) over the distinct eigenvalue branches
    and D clears the rational-function denominators picked up by the
    gcd over the parameter field. Wherever D != 0 and no eigenvalues
    collide, theta_num evaluates to D(point) * Theta(point).
    """

    theta_num: np.ndarray  # n x n, MultiPoly entries
    denominator: MultiPoly
    distinct_degree: int  # generic number of distinct eigenvalues

    @property
    def denominator_is_one(self) -> bool:
        return self.denominator.is_constant() and self.denominator.constant_value().is_one()


def square_free_part_family(family: MatrixFamily) -> SquareFreeResult:
    """Symbolic D*Theta for a polynomial family.

    The square-free part q0 = P / gcd(P, P') of the characteristic
    polynomial is computed over the rational-function field via a
    subresultant remainder sequence; pseudo-division and a content gcd
    produce the minimal polynomial denominator D with q0 = Q / D, and
    D * Theta = (-1)^m Q(A).
    """
    p = family.char_poly_family()
    nv = len(family.params)
    one = MultiPoly.one(nv)
    dp = derivative(p)
    g = subresultant_gcd(p, dp)
    if g.is_zero():
        raise GcdDegenerationError("vanishing remainder sequence")
    if g.degree >= 1:
        cont = mp_content(g.coeffs_nonzero())
        g = UniPoly([c.exact_div(cont) for c in g.coeffs])
        lead = g.leading
        d = p.degree - g.degree
        q_tilde, remainder = pseudo_divmod(p, g)
        if not remainder.is_zero():
            raise GcdDegenerationError(
                "gcd of the remainder sequence does not divide the "
                "characteristic polynomial (non-generic content)"
            )
        d_raw = lead**d if d else one
    else:
        # gcd is a nonzero scalar: the family is generically square-free
        q_tilde, d_raw = p, one
    common = mp_gcd(mp_content(q_tilde.coeffs_nonzero()), d_raw)
    if not common.is_constant():
        q_tilde = UniPoly([c.exact_div(common) for c in q_tilde.coeffs])
        d_raw = d_raw.exact_div(common)
    if d_raw.is_constant():
        c = d_raw.constant_value()
        q_tilde = UniPoly([q.scale(GR_ONE / c) for q in q_tilde.coeffs])
        denominator = one
    else:
        _, lead_c = d_raw.leading
        denominator = d_raw.scale(GR_ONE / lead_c)
        q_tilde = UniPoly([q.scale(GR_ONE / lead_c) for q in q_tilde.coeffs])
    if q_tilde.leading != denominator:
        raise GcdDegenerationError(
            "cleared square-free part is not monic over the denominator"
        )
    m = q_tilde.degree
    theta_num = poly_at_matrix(q_tilde.coeffs, as_matrix(family.entries))
    if m % 2 == 1:
        theta_num = -theta_num
    return SquareFreeResult(
        theta_num=theta_num,
        denominator=denominator,
        distinct_degree=m,
    )


# ---------------------------------------------------------------------------
# defining functions of the non-stable set


@dataclass
class JstResult:
    """Defining polynomials of the set of non-Jordan-stable points."""

    functions: Optional[List[MultiPoly]]
    split_functions: List[MultiPoly]
    rank_minor_functions: Dict[int, List[MultiPoly]]
    rank_values: Dict[int, int]
    k0: int
    denominator: MultiPoly
    squarefree: SquareFreeResult
    capped: bool = False
    notes: List[str] = field(default_factory=list)

    @property
    def denominator_is_one(self) -> bool:
        return self.squarefree.denominator_is_one

    @property
    def whole_space_stable(self) -> bool:
        """True when some product h is a nonzero constant (every factor
        pool contains one), which makes the common zero set empty. A
        sufficient certificate, not a decision procedure."""
        pools = [self.split_functions] + [
            self.rank_minor_functions[k] for k in sorted(self.rank_minor_functions)
        ]
        return all(
            any(f.is_constant() and not f.constant_value().is_zero() for f in pool)
            for pool in pools
        )


def jst_defining_functions(family: MatrixFamily, seed: int = 0) -> JstResult:
    """Polynomials whose common zero set is the non-Jordan-stable set.

    Splitting-set functions g_j come from the splitting matrix of the
    characteristic polynomial; for each power k up to the last with
    positive generic rank, the f's are the nonvanishing minors of order
    r_k of (D*Theta)^k; the h's are all products g * f^(1) * ... * f^(k0).
    When D is not 1 the f-minors can acquire extra zeros along {D = 0},
    which is flagged rather than silently asserted away.
    """
    notes: List[str] = []
    gs = split_defining_functions(family.char_poly_family(), seed=seed).functions
    sf = square_free_part_family(family)
    if not sf.denominator_is_one:
        notes.append(
            "cleared denominator D != 1: minors of (D*Theta)^k may vanish "
            "on {D = 0} without a rank jump; zero-set equality is sampled, "
            "not asserted"
        )
    n = family.n
    rank_values: Dict[int, int] = {}
    minor_functions: Dict[int, List[MultiPoly]] = {}
    power = sf.theta_num
    k0 = 0
    for k in range(1, n):
        if k > 1:
            power = power @ sf.theta_num
        r_k, note = generic_rank(power, seed=seed)
        rank_values[k] = r_k
        if k == 1:
            notes.append(note)
        if r_k == 0:
            break
        minor_functions[k] = minors(power, r_k)
        k0 = k
    total = len(gs)
    for k in sorted(minor_functions):
        total *= len(minor_functions[k])
    capped = total > MAX_PRODUCT_FUNCTIONS
    functions: Optional[List[MultiPoly]] = None
    if not capped:
        pools = [gs] + [minor_functions[k] for k in sorted(minor_functions)]
        functions = [functools.reduce(operator.mul, combo)
                     for combo in itertools.product(*pools)]
    else:
        notes.append(
            f"product count {total} exceeds cap {MAX_PRODUCT_FUNCTIONS}; "
            "factor lists emitted instead"
        )
    return JstResult(
        functions=functions,
        split_functions=gs,
        rank_minor_functions=minor_functions,
        rank_values=rank_values,
        k0=k0,
        denominator=sf.denominator,
        squarefree=sf,
        capped=capped,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# norm bounds on the defining functions


def check_split_bound(
    family: MatrixFamily,
    functions: Sequence[MultiPoly],
    sample_points: Sequence,
) -> BoundReport:
    """|g| <= (2n)^(6n^2) * max(1, |A|)^(2n^2) for every g at the samples.

    The norm is floored at 1 for the same reason the coefficient max is
    in the underlying coefficient bound (constant entries from the
    monic leading coefficient).
    """
    n = family.n
    return bound_report("splitting-set function", sample_points, functions,
                        float((2 * n) ** (6 * n * n)),
                        family.operator_norms(sample_points), 2 * n * n)


def check_jst_bound(
    family: MatrixFamily,
    jst: JstResult,
    sample_points: Sequence,
) -> BoundReport:
    """|h| <= (2n)^(2n^4) * max(1, |A|)^(2n^4) at the samples.

    Only applicable to the denominator-free case D = 1; with D != 1 the
    cleared functions differ from sums of products of matrix elements
    and the report is marked not applicable.
    """
    label = "non-stable-set function"
    if not jst.denominator_is_one or jst.functions is None:
        reason = ("cleared denominator D != 1" if not jst.denominator_is_one
                  else "product list capped; factors emitted instead")
        return BoundReport(label, 0, [], 0.0, applicable=False,
                           note=f"NOT APPLICABLE: {reason}")
    n = family.n
    return bound_report(label, sample_points, jst.functions,
                        float((2 * n) ** (2 * n**4)),
                        family.operator_norms(sample_points), 2 * n**4)
