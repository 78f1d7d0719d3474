"""Parameter-space classification and the symbolic defining-function
pipeline for the set of non-Jordan-stable points.

The pointwise classifier samples probe rings; the symbolic pipeline
produces polynomials whose common zero set cuts out exactly the bad
points, by combining the splitting-set minors of the characteristic
polynomial with the rank minors of the powers of the square-free
evaluation of the family.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .algebra.matrices import char_poly_stack
from .algebra.multipoly import MultiPoly, NonFiniteError
from .algebra.unipoly import square_free_part
from .family import MatrixFamily
from .jordan import JordanCensus, jordan_censuses, theta_from_squarefree
from .ranklab import (DEFAULT_REL_TOL, GENERIC_RANK_NOTE, ScaleBounds, generic_rank,
                      minors, norm_scales)
from .sylv import (
    BoundReport,
    bound_report,
    certifies_empty,
    split_counts,
    split_defining_functions,
    split_matrices,
)
from .tracker import (
    ProbeDisagreementError,
    ProbeStack,
    factors_from_stack,
    probe_stacks,
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
#: most grid nodes in one run (one classify_points call). A run pays a
#: fixed cost of about a millisecond; past 64 nodes larger runs save nothing
RUN_NODES = 64
#: most matrix entries per probe point of one run: nodes * n * n stays
#: within the 16 nodes of n = 8, so no run stacks more than 17 * 16 * 8**2
#: entries and an n = 8 scan keeps its peak memory
RUN_ENTRIES = 16 * 8**2


def run_nodes(n: int) -> int:
    """Most grid nodes in one run of an n x n scan: RUN_NODES, or fewer
    where their matrices would hold over RUN_ENTRIES entries per point
    (64 for n <= 4, then 40, 28, 20 and 16 for n = 5 to 8)."""
    return max(1, min(RUN_NODES, RUN_ENTRIES // (n * n)))


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


def classify_points(
    family: MatrixFamily,
    nodes,
    probe_radius: float = 1e-2,
    rel_tol: float = DEFAULT_REL_TOL,
) -> List[PointClass]:
    """Split / Jump / StableCandidate at each of a run of parameter
    points, by probing.

    Every node and its two rings of 8 probes (at the probe radius and
    half of it) are evaluated as one stack of 17 matrices per node
    (:func:`probe_stacks`). The splitting matrices of all 17 * N
    characteristic polynomials are built and must be finite; one rank
    pass counts the distinct roots of the N nodes, and one more those of
    the probes of each node with fewer than n roots (:func:`_split_nodes`).
    Then one Theta rank pass ranks the powers of the extended product at
    every Split node and of the plain product at all 17 matrices of every
    other node. One rank chain takes the Jordan census of every node that
    does not split (:func:`jordan_censuses`). :func:`classify_point`
    decides each node from its rows and its census. Each row and each
    census depends only on its own matrix, and identity padding of
    shorter factor lists is exact, so a node classifies the same in any
    run; ``classify_points(family, [point])[0]`` classifies one point.
    """
    stacks = probe_stacks(family, nodes, probe_radius, rel_tol)
    matrices = np.concatenate([stack.matrices for stack in stacks])
    splits = _split_nodes(char_poly_stack(matrices), len(stacks), rel_tol)
    bases, factor_lists, notes, whole = [], [], [], []
    for stack, split in zip(stacks, splits):
        note = ""
        if split:
            try:
                factors = factors_from_stack(stack)
            except ProbeDisagreementError as err:
                note = f"extended product unavailable: {err}"
                factors = [(lam, 1) for lam, _ in stack.clusters[0]]
            bases.append(stack.matrices[:1])
            factor_lists.append(factors)
        else:
            bases.append(stack.matrices)
            factor_lists.extend([(lam, 1) for lam, _ in c] for c in stack.clusters)
            whole.append(stack)
        notes.append(note)
    ranks = theta_power_ranks(
        *theta_stack(np.concatenate(bases), factor_lists), rel_tol
    )
    censuses = iter(jordan_censuses([stack.matrices[0] for stack in whole],
                                    [stack.clusters[0] for stack in whole], rel_tol))
    out, start = [], 0
    for stack, split, base, note in zip(stacks, splits, bases, notes):
        rows = ranks[start : start + len(base)]
        start += len(base)
        census = None if split else next(censuses)
        if not isinstance(census, JordanCensus):  # inconsistent at tolerance
            census = None
        out.append(classify_point(stack, split, rows, note, census))
    return out


def _split_nodes(coeffs, nodes: int, rel_tol: float) -> List[bool]:
    """Does some probe carry more distinct roots than its node? From the
    (nodes * 17) characteristic polynomials of a run, whose splitting
    matrices must all be finite; a count is rank S - n + 1 of a (2n - 1)
    square S, so only the probes of a node with fewer than n are ranked."""
    split = split_matrices(coeffs)
    if not np.all(np.isfinite(split)):
        raise NonFiniteError()
    split = split.reshape(nodes, -1, *split.shape[1:])
    here = split_counts(split[:, 0], rel_tol)
    (open_,) = np.nonzero(here < coeffs.shape[1] - 1)
    splits = np.zeros(nodes, dtype=bool)
    if len(open_):
        probes = split_counts(split[open_, 1:].reshape(-1, *split.shape[2:]), rel_tol)
        splits[open_] = np.any(probes.reshape(len(open_), -1) > here[open_, None], axis=1)
    return splits.tolist()


def classify_point(
    stack: ProbeStack,
    split: bool,
    ranks: List[Tuple[int, ...]],
    note: str,
    census: Optional[JordanCensus],
) -> PointClass:
    """The decision at one node of :func:`classify_points`.

    ``split`` says whether a probe has more distinct roots than the
    node. ``ranks`` holds the Theta rank rows: one, of the extended
    product at the node, when a probe splits; else one per matrix of the
    stack. ``census`` is the node's Jordan census from the run's rank
    chain, None when the node splits or its census is inconsistent.
    Splitting is detected through the rank of the splitting matrix of
    the characteristic polynomial (more distinct roots at a probe than
    at the point). Jumps are detected through rank Theta^k rising at a
    probe. Stability can only be refuted by sampling, never certified.
    """
    point, rank_theta = tuple(stack.points[0].tolist()), ranks[0]
    if split:
        return PointClass(point, PointKind.SPLIT, rank_theta, None, note)
    if any(pr > br for probe in ranks[1:] for pr, br in zip(probe, rank_theta)):
        return PointClass(point, PointKind.JUMP, rank_theta, census, note)
    if census is None:
        note = "census inconsistent at tolerance"
    return PointClass(point, PointKind.STABLE_CANDIDATE, rank_theta, census, note)


# ---------------------------------------------------------------------------
# grid scanning


@dataclass
class ScanReport:
    box: List[Tuple[float, float]]
    resolution: List[int]
    rel_tol: float
    probe_radius: float
    points: List[PointClass]
    summary: Dict[str, int]
    rank_theta_maxima: Tuple[int, ...]


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
    are cut into runs of consecutive nodes, ``chunks`` runs or more so
    that none holds over :func:`run_nodes` nodes, and ``chunk_map``
    (``map``, or a process pool's ``map``) classifies each run with one
    :func:`classify_points` call, which makes one ``classify_point``
    call per node. Output is deterministic given tolerances, whatever
    the chunking. The default probe radius is a quarter of the smallest
    grid spacing, |hi - lo| / (res - 1), which is positive whichever
    way an interval is written.
    """
    if len(box) != family.nparams:
        raise ValueError("need one interval per parameter")
    if isinstance(resolution, int):
        resolution = [resolution] * len(box)
    nodes = grid_nodes(box, resolution)
    if probe_radius is None:
        spacing = min(
            abs(hi - lo) / (res - 1) for (lo, hi), res in zip(box, resolution)
        )
        probe_radius = spacing / 4.0
    size = min(-(-len(nodes) // max(1, chunks)), run_nodes(family.n))
    work = functools.partial(classify_points, family,
                             probe_radius=probe_radius, rel_tol=rel_tol)
    results = chunk_map(work, [nodes[i : i + size] for i in range(0, len(nodes), size)])
    points = [p for chunk in results for p in chunk]
    summary = {kind.value: 0 for kind in PointKind}
    for p in points:
        summary[p.kind.value] += 1
    maxima = tuple(
        max(p.rank_theta[k] for p in points) for k in range(family.n - 1)
    )
    return ScanReport(
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


def square_free_part_family(family: MatrixFamily) -> Tuple[np.ndarray, int]:
    """(Theta, m) for a polynomial family: the MultiPoly matrix Theta =
    (-1)^m q0(A) with q0 the square-free part of the characteristic
    polynomial P (:func:`algebra.unipoly.square_free_part`), whose
    coefficients are polynomials, and m = deg q0, the generic number of
    distinct eigenvalues. For a square-free P, q0 = P and Theta = -+P(A)
    = 0 (Cayley-Hamilton): :func:`jst_defining_functions` builds that zero
    matrix itself and calls this only for a P with a repeated factor.
    """
    q0 = square_free_part(family.char_poly_family())
    return theta_from_squarefree(family.entries, q0), q0.degree


# ---------------------------------------------------------------------------
# defining functions of the non-stable set


@dataclass
class JstResult:
    """Defining polynomials of the set of non-Jordan-stable points, and
    the family's symbolic Theta (:func:`square_free_part_family`)."""

    functions: Optional[List[MultiPoly]]  # None: the product list is capped
    split_functions: List[MultiPoly]
    rank_minor_functions: Dict[int, List[MultiPoly]]
    rank_values: Dict[int, int]
    k0: int
    theta: np.ndarray  # n x n, MultiPoly entries; zero for a square-free P
    distinct_degree: int  # generic number of distinct eigenvalues
    # every factor pool certifies_empty, so some product h is a nonzero
    # constant and the common zero set is empty
    whole_space_stable: bool
    notes: List[str]


def jst_defining_functions(family: MatrixFamily, seed: int = 0) -> JstResult:
    """Polynomials whose common zero set is the non-Jordan-stable set.

    Splitting-set functions g_j come from the splitting matrix of the
    characteristic polynomial; for each power k up to the last with
    positive generic rank, the f's are the nonvanishing minors of order
    r_k of Theta^k; the h's are all products g * f^(1) * ... * f^(k0),
    one factor from each pool [g], [f^(1)], ..., [f^(k0)]. Past
    MAX_PRODUCT_FUNCTIONS products the list is capped: ``functions`` is
    None and the report keeps the pools.

    A splitting matrix of full rank 2n - 1 (its determinant is nonzero)
    proves P square-free, so Theta is the zero matrix: it takes no
    :func:`square_free_part_family` and no evaluation, and ranks 0 at
    k = 1. Otherwise one ``ranklab.generic_rank`` chain ranks the powers
    of Theta, and Theta^k is formed only for k <= k0, for its minors.
    """
    n = family.n
    gs, r_max = split_defining_functions(family.char_poly_family(), seed=seed)
    if r_max == 2 * n - 1:  # P square-free: Theta = +-P(A) = 0
        theta, degree = np.full((n, n), MultiPoly.zero(family.nparams), dtype=object), n
        ranks = [0] if n > 1 else []
    else:
        theta, degree = square_free_part_family(family)
        ranks = generic_rank(theta, seed=seed, powers=n - 1)
    notes = [GENERIC_RANK_NOTE] if ranks else []  # no rank is taken at n = 1
    k0 = sum(r > 0 for r in ranks)
    powers = itertools.accumulate([theta] * k0, operator.matmul)  # Theta^k, k <= k0
    minor_functions = {k: minors(p, r) for k, (p, r) in enumerate(zip(powers, ranks), 1)}
    pools = [gs, *minor_functions.values()]  # [g], [f^(1)], ..., [f^(k0)]
    total = math.prod(map(len, pools))
    functions: Optional[List[MultiPoly]] = None
    if total <= MAX_PRODUCT_FUNCTIONS:
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
        rank_values=dict(enumerate(ranks, start=1)),
        k0=k0,
        theta=theta,
        distinct_degree=degree,
        whole_space_stable=all(map(certifies_empty, pools)),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# norm bounds on the defining functions


def check_split_bound(
    family: MatrixFamily,
    functions: Sequence[MultiPoly],
    sample_points: Sequence,
    scales: Optional[ScaleBounds] = None,
) -> BoundReport:
    """|g| <= (2n)^(6n^2) * max(1, |A|)^(2n^2) for every g at the samples.

    The norm is floored at 1 for the same reason the coefficient max is
    in the underlying coefficient bound (constant entries from the
    monic leading coefficient). ``scales`` are the norms at the samples,
    ``ranklab.norm_scales`` of one stacked evaluation, built here if not
    given; :func:`bound_report` takes an SVD norm only at a sample that can
    decide the report.
    """
    n = family.n
    constant = float((2 * n) ** (6 * n * n))
    if scales is None:
        scales = norm_scales(family.at_many(sample_points))
    return bound_report("splitting-set function", sample_points, functions,
                        constant, scales, 2 * n * n)


def check_jst_bound(
    family: MatrixFamily,
    jst: JstResult,
    sample_points: Sequence,
    scales: Optional[ScaleBounds] = None,
) -> BoundReport:
    """|h| <= (2n)^(2n^4) * max(1, |A|)^(2n^4) at the samples, ``scales``
    as in :func:`check_split_bound`. The constant is formed before any
    evaluation, so where it leaves float64 nothing is evaluated.

    When the product list is capped there are no h's to check, and the
    report is marked not applicable.
    """
    label = "non-stable-set function"
    if jst.functions is None:
        return BoundReport(label, 0, [], 0.0, applicable=False, note=(
            "NOT APPLICABLE: product list capped; factors emitted instead"))
    n = family.n
    constant = float((2 * n) ** (2 * n**4))
    if scales is None:
        scales = norm_scales(family.at_many(sample_points))
    return bound_report(label, sample_points, jst.functions, constant, scales,
                        2 * n**4)
