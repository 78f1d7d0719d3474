"""Certified 2-norm bounds: every decision they settle is the decision of
the SVD norm, and the SVD norm is taken only where a decision falls
between them.

The oracle forces the exact path with the bounds (0, inf), under which
every threshold test asks for the SVD norm, as the code did before the
bounds existed.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope import cli, ranklab, tracker
from jordanscope.family import MatrixFamily
from jordanscope.algebra.multipoly import NonFiniteError
from jordanscope.ranklab import (
    ScaleBounds,
    norm_bounds,
    norm_scales,
    numerical_rank,
    power_ranks,
    rank_threshold,
    svd_norms,
)
from jordanscope.scanner import classify_points
from jordanscope.tracker import (
    cluster_stack,
    cluster_tolerance,
    distinct_eigenvalues,
    theta_stack,
)

DATA = Path(__file__).parent / "data"


def forced(scales: ScaleBounds) -> ScaleBounds:
    """The same scales with bounds that settle nothing."""
    count = len(scales.lo)
    return ScaleBounds(np.zeros(count), np.full(count, np.inf), scales.exact)


def spied(scales: ScaleBounds, asked: list) -> ScaleBounds:
    def exact(i):
        asked.append(i)
        return scales.exact(i)

    return ScaleBounds(scales.lo, scales.hi, exact)


def never(ranks):
    return False


def loop_clusters(values, tol):
    """Oracle: the per-matrix loop that clustered before the stacked
    path, with Python's abs and its union-find."""
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol and find(i) != find(j):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(values[i])
    clusters = [(sum(g) / len(g), len(g)) for g in groups.values()]
    return sorted(clusters, key=lambda c: (c[0].real, c[0].imag))


def gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_stack(rng, n, count=12):
    """Dense, low-rank, conjugated nilpotent and repeated-eigenvalue
    matrices at scales from 1e-3 to 1e3: powers that reach the roundoff
    floor, and eigenvalue lists with clusters."""
    out = []
    for t in range(count):
        scale = 10.0 ** rng.uniform(-3, 3)
        s = gaussian(rng, n, n) + 4 * np.eye(n)
        kind = t % 4
        if kind == 0:
            m = gaussian(rng, n, n)
        elif kind == 1:
            m = gaussian(rng, n, 1) @ gaussian(rng, 1, n)
        elif kind == 2:
            m = s @ np.diag(1.0 + rng.uniform(size=n - 1), 1) @ np.linalg.inv(s)
        else:
            lams = rng.choice([-1.0, 0.5, 2.0], size=n)
            m = s @ np.diag(lams) @ np.linalg.inv(s)
        out.append(scale * m)
    return np.array(out)


# ---------------------------------------------------------------------------
# the bounds


def test_norm_bounds_bracket_the_svd_norm():
    rng = np.random.default_rng(0)
    for n in range(2, 9):
        stack = random_stack(rng, n)
        lo, hi = norm_bounds(stack)
        svd = np.linalg.norm(stack, 2, axis=(1, 2))
        assert np.all(lo < svd) and np.all(svd < hi)
        # real stacks, and stacks of one row or one column
        for m in (stack.real, stack[:, :1], stack[:, :, :1]):
            lo, hi = norm_bounds(m)
            svd = np.linalg.norm(m, 2, axis=(1, 2))
            assert np.all(lo < svd) and np.all(svd < hi)


def test_norm_bounds_outside_the_normal_range():
    stack = np.array([np.zeros((2, 2)), [[1e160, 0], [0, 1]], [[1e-160, 0], [0, 0]],
                      [[3e-155, 0], [0, 0]], [[-0.0, 0], [0, 0]]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = norm_bounds(stack)
    # a zero matrix is known exactly; squared sums beyond float64 or below
    # its normal range settle nothing; 3e-155 squares to a normal float
    assert lo.tolist()[:3] == [0.0, 0.0, 0.0] and hi.tolist()[:3] == [0.0, math.inf, math.inf]
    assert lo[3] < 3e-155 < hi[3]
    assert (lo[4], hi[4]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# bounded decisions against forced-exact ones


@pytest.mark.parametrize("n", range(2, 9))
def test_bounded_power_ranks_equal_forced_exact_ranks(n):
    rng = np.random.default_rng(100 + n)
    stack = random_stack(rng, n)
    # deep powers of the non-normal matrices do reach a floor between the
    # bounds at times, so this compares every decision, wherever it is made
    scales = norm_scales(stack)
    for done in (never, lambda r: r[-1] == r[-2]):
        got = power_ranks(stack, n + 1, scales, done)
        assert got == power_ranks(stack, n + 1, forced(scales), done)
    # Theta products, with extended powers, against forced-exact scales
    values = np.linalg.eigvals(stack)
    factor_lists = [[(lam, 1 + (j == 0)) for j, (lam, _) in enumerate(c)]
                    for c in cluster_stack(values, scales)]
    theta, theta_scales = theta_stack(stack, factor_lists)
    got = power_ranks(theta, n - 1, theta_scales, never)
    assert got == power_ranks(theta, n - 1, forced(theta_scales), never)


@pytest.mark.parametrize("n", range(2, 9))
def test_bounded_clusters_equal_forced_exact_clusters(n):
    rng = np.random.default_rng(200 + n)
    stack = random_stack(rng, n, count=40)
    values = np.linalg.eigvals(stack)
    asked = []
    scales = norm_scales(stack)
    got = cluster_stack(values, spied(scales, asked))
    assert repr(got) == repr(cluster_stack(values, forced(scales)))
    assert asked == []
    assert any(len(c) < n for c in got)  # some lists do cluster
    # the clusters of the per-matrix loop: Python's abs, the SVD norm
    assert repr(got) == repr([
        loop_clusters(v.tolist(), cluster_tolerance(float(np.linalg.norm(m, 2))))
        for m, v in zip(stack, values)])
    assert repr(distinct_eigenvalues(stack[0])) == repr(got[0])


def test_theta_scales_bracket_the_factor_norm_product():
    rng = np.random.default_rng(3)
    stack = random_stack(rng, 4)
    factor_lists = [[(lam, 1 + (j % 2)) for j, lam in enumerate(np.linalg.eigvals(m))]
                    for m in stack]
    factor_lists[0] = factor_lists[0][:1]  # a shorter list, padded with I
    _, scales = theta_stack(stack, factor_lists)
    for i, (m, factors) in enumerate(zip(stack, factor_lists)):
        norms = np.linalg.norm([lam * np.eye(4) - m for lam, _ in factors], 2,
                               axis=(1, 2)).tolist()
        want = 1.0
        for norm, (_, power) in zip(norms, factors):
            want *= norm ** power
        assert scales.exact(i) == want  # the bits of the stacked SVD norms
        assert scales.lo[i] < want < scales.hi[i]
    # Theta of a scalar matrix has a zero factor, and the scale 0 exactly
    _, scales = theta_stack(2 * np.eye(3)[None], [[(2.0, 1)]])
    assert (scales.lo[0], scales.hi[0], scales.exact(0)) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# decisions that fall between the bounds


def nilpotent_block(c, tail):
    """c * [[0, 1, 1], [0, 0, 1], [0, 0, 0]] (+) [[tail]]: the 2-norm
    1.618 c lies between the largest row norm 1.414 c and the Frobenius
    norm 1.732 c, and the eigenvalues are exactly 0, 0, 0 and tail."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = m[0, 2] = m[1, 2] = c
    m[3, 3] = tail
    return m


def test_cluster_gaps_between_the_bounds_take_the_svd_norm():
    c = 10.0
    lo, hi = (float(b[0]) for b in norm_bounds(nilpotent_block(c, 0)[None]))
    svd = float(np.linalg.norm(nilpotent_block(c, 0), 2))
    cases = []
    for low, high, merged in [(lo, svd, True), (svd, hi, False)]:
        gap = (cluster_tolerance(low) + cluster_tolerance(high)) / 2
        cases.append((nilpotent_block(c, gap), gap, merged))
    # a gap at the tolerance of the unwidened row norm where roundoff puts
    # that norm above the SVD norm of a row-rank-one block: without the
    # margin the row norm would merge the gap that the SVD norm keeps apart
    rng = np.random.default_rng(5)
    while len(cases) < 3:
        m = np.zeros((4, 4), dtype=complex)
        m[0, :2] = gaussian(rng, 2) * 10
        squares = m.real**2 + m.imag**2
        row = np.sqrt(np.maximum(squares.sum(axis=1).max(), squares.sum(axis=0).max()))
        gap = cluster_tolerance(float(row))
        m[3, 3] = gap
        if cluster_tolerance(float(np.linalg.norm(m, 2))) < gap:
            cases.append((m, gap, False))
    stack = np.array([m for m, _, _ in cases])
    values = np.linalg.eigvals(stack)
    tol = [cluster_tolerance(float(np.linalg.norm(m, 2))) for m in stack]
    assert [values[i, 3] for i in range(3)] == [gap for _, gap, _ in cases]
    assert [gap <= t for (_, gap, _), t in zip(cases, tol)] == [merged for *_, merged in cases]
    asked = []
    scales = norm_scales(stack)
    got = cluster_stack(values, spied(scales, asked))
    assert sorted(asked) == [0, 1, 2]
    assert repr(got) == repr(cluster_stack(values, forced(scales)))
    assert [got[i][0][1] for i in range(2)] == [4, 3]  # 0 takes the gap in, or not
    assert sorted(count for _, count in got[2]) == [1, 1, 2]


def test_rank_floors_between_the_bounds_take_the_svd_norm():
    # B = nilpotent_block(c, y): B^3 = diag(0, 0, 0, y^3), of rank 1 iff
    # y^3 > 4 * 1e3 * eps * S^3, S = ||B||; put y^3 at T^3 for a T between
    # the row norm and S, then between S and the Frobenius norm
    c, eps = 10.0, np.finfo(float).eps
    lo, hi = (float(b[0]) for b in norm_bounds(nilpotent_block(c, 0)[None]))
    svd = float(np.linalg.norm(nilpotent_block(c, 0), 2))
    stack = np.array([nilpotent_block(c, (4e3 * eps) ** (1 / 3) * (a + b) / 2)
                      for a, b in [(lo, svd), (svd, hi)]])
    asked = []
    scales = norm_scales(stack)
    got = power_ranks(stack, 3, spied(scales, asked), never)
    assert sorted(set(asked)) == [0, 1]
    assert got == power_ranks(stack, 3, forced(scales), never)
    assert [row[3] for row in got] == [0, 1]
    for i, base in enumerate(stack):  # each power ranked alone at S^k
        power = np.eye(4)
        for k in range(1, 4):
            power = power @ base
            assert got[i][k] == numerical_rank(power, scale=scales.exact(i) ** k).rank


def test_scan_takes_a_svd_norm_only_between_the_bounds(monkeypatch):
    asked = []

    def spy(real):
        return lambda stack: spied(real(stack), asked)

    monkeypatch.setattr(tracker, "norm_scales", spy(norm_scales))
    monkeypatch.setattr("jordanscope.jordan.norm_scales", spy(norm_scales))
    real_theta_stack = tracker.theta_stack

    def theta_stack_spy(*args):
        theta, scales = real_theta_stack(*args)
        return theta, spied(scales, asked)

    monkeypatch.setattr("jordanscope.scanner.theta_stack", theta_stack_spy)
    with open(DATA / "dense8.json") as f:
        dense8 = MatrixFamily.from_spec_dict(json.load(f))
    nodes = [(z, w) for z in (-1.0, 0.3) for w in (-0.5, 1.0)]
    points = classify_points(dense8, nodes)
    assert {p.kind.value for p in points} == {"StableCandidate"}
    assert asked == []
    # the family of the CI fallback step, c * [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
    # (+) [[z]] with c = 10: at z = 1.6e-4 the eigenvalue gap z falls between
    # the cluster tolerances of the bounds, at all 17 matrices of the node;
    # at z = 1.42e-3 and 1.6e-3 the census rank of A^3 = diag(0, 0, 0, z^3)
    # falls between the floors of the bounds
    with open(DATA / "norm_fallback.json") as f:
        fallback = MatrixFamily.from_spec_dict(json.load(f))
    nodes = [(z,) for z in np.linspace(1.6e-4, 1.6e-3, 9)]
    points = classify_points(fallback, nodes, probe_radius=1e-6)
    assert {p.kind.value for p in points} == {"StableCandidate"}
    assert len(asked) == 17 + 2


# ---------------------------------------------------------------------------
# the rank-0 certificate of stacked_ranks

REAL_SVD = np.linalg.svd


def forced_svd_ranks(stack, scales, rel_tol=ranklab.DEFAULT_REL_TOL):
    """Oracle: stacked_ranks before the certificate, an SVD of every matrix."""
    a = np.asarray(stack, dtype=complex)
    sigma = REAL_SVD(a, compute_uv=False)
    threshold = rank_threshold(sigma[:, 0], rel_tol, np.asarray(scales, dtype=float),
                               a.shape[1:])
    return np.sum(sigma > threshold[..., None], axis=-1)


def floor_of(scale, n):
    """The floor term of the rank threshold of an n x n matrix."""
    return 1e3 * np.finfo(float).eps * scale * n


def nilpotent_cases():
    """eps * J_4 at eps = f * floor, the zero matrix first: skipped for
    f <= 1 / (sqrt(3) * (1 + 1e-6)) ~ 0.577, rank 3 for f > 1."""
    rng = np.random.default_rng(27)
    factors = [0.0, 1e-3, 0.5, 0.57, 0.6, 0.99, 1.01, 10.0]
    scales = 10.0 ** rng.uniform(-3, 3, size=len(factors))
    jordan = np.diag(np.ones(3), 1)
    return np.array([f * floor_of(s, 4) * jordan for f, s in zip(factors, scales)]), scales


def range_cases():
    """Squared sums that underflow or overflow take the SVD; 1e150 * J_3 at
    the scale 1e170 is certified."""
    jordan = np.diag(np.ones(2), 1)
    stack = np.array([1e-160 * jordan, 1e-165 * jordan, 1e160 * jordan, 1e150 * jordan])
    return stack, np.array([1e-150, 1e-150, 1e170, 1e170])


def dense8_theta_cases():
    """The plain Theta products at the 17 matrices of four dense 8x8 nodes."""
    with open(DATA / "dense8.json") as f:
        dense8 = MatrixFamily.from_spec_dict(json.load(f))
    stacks = tracker.probe_stacks(dense8, [(z, w) for z in (-1.0, 0.3) for w in (-0.5, 1.0)],
                                  1e-2)
    theta, scales = theta_stack(np.concatenate([s.matrices for s in stacks]),
                                [[(lam, 1) for lam, _ in c] for s in stacks for c in s.clusters])
    return theta, scales.hi


def svd_rows(monkeypatch):
    rows = []

    def spy(a, *args, **kwargs):
        rows.append(len(a))
        return REAL_SVD(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return rows


SHAPES = {
    "scalar": lambda s: float(np.max(s)),
    "per-matrix": lambda s: s,
    "pair": lambda s: np.stack([s / 2, s]),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("cases,svd_counts", [
    (nilpotent_cases, {"scalar": None, "per-matrix": 4, "pair": 6}),
    (range_cases, {"scalar": 3, "per-matrix": 3, "pair": 3}),
    (dense8_theta_cases, {"scalar": 0, "per-matrix": 0, "pair": 0}),
], ids=["nilpotent", "range", "dense8-theta"])
def test_certified_rank_zero_equals_a_forced_svd(monkeypatch, shape, cases, svd_counts):
    stack, per_matrix = cases()
    scales = SHAPES[shape](per_matrix)
    want = forced_svd_ranks(stack, scales)
    rows = svd_rows(monkeypatch)
    got = ranklab.stacked_ranks(stack, ranklab.DEFAULT_REL_TOL, scales)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if svd_counts[shape] is not None:
        assert rows == [svd_counts[shape]]


def test_certified_rank_zero_cases_cover_both_sides_of_the_floor():
    stack, scales = nilpotent_cases()
    assert forced_svd_ranks(stack, scales).tolist() == [0] * 6 + [3, 3]
    stack, scales = range_cases()
    assert forced_svd_ranks(stack, scales).tolist() == [2, 0, 2, 0]
    hi = norm_bounds(stack)[1]
    assert hi[:3].tolist() == [np.inf] * 3 and hi[3] <= floor_of(1e170, 3)


def test_zero_matrices_take_no_svd(monkeypatch):
    zeros = np.zeros((5, 3, 4), dtype=complex)
    rows = svd_rows(monkeypatch)
    for scales in (1.0, np.arange(1.0, 6.0), np.stack([np.ones(5), np.full(5, 2.0)])):
        assert np.array_equal(ranklab.stacked_ranks(zeros, 1e-8, scales),
                              forced_svd_ranks(zeros, scales))
    assert rows == [0, 0, 0]
    # a zero floor ranks every matrix by its SVD, as the splitting ranks do
    assert ranklab.stacked_ranks(zeros).tolist() == [0] * 5 and rows[-1] == 5


def test_the_certificate_keeps_the_input_checks():
    with pytest.raises(NonFiniteError):
        ranklab.stacked_ranks(np.array([[[0.0, np.nan]]]), 1e-8, 1.0)
    with pytest.raises(ValueError):
        ranklab.stacked_ranks(np.zeros((2, 2, 2)), 1.5, 1.0)


# ---------------------------------------------------------------------------
# signs and ranges


def test_singleton_centers_are_sum_of_one_over_one():
    # sum([v]) / 1 makes -0.0 parts +0.0; the sort is by (re, im)
    values = [complex(-0.0, -0.0), complex(2.0, -0.0), complex(-1.5, -0.0),
              complex(-0.0, 1.0), complex(-1.5, -2.0)]
    want = sorted(((sum([v]) / 1, 1) for v in values),
                  key=lambda c: (c[0].real, c[0].imag))
    got = loop_clusters(values, 1e-9)
    stacked = cluster_stack(np.array([values]), norm_scales(np.eye(5)[None]))[0]
    # eigvals returns the diagonal of a diagonal matrix with its signed zeros
    eig = np.linalg.eigvals(np.diag(values))
    assert np.array_equal(np.signbit(eig.view(float)), np.signbit(np.array(values).view(float)))
    for clusters in (got, stacked, distinct_eigenvalues(np.diag(values))):
        assert [(math.copysign(1, z.real), math.copysign(1, z.imag), z, k)
                for z, k in clusters] == [
            (math.copysign(1, z.real), math.copysign(1, z.imag), z, k) for z, k in want]
    assert got[0][0] == -1.5 - 2j and math.copysign(1, got[1][0].imag) == 1.0


def test_singleton_centers_of_a_non_finite_row_keep_sum_of_one_over_one():
    # v + 0.0 has the bits of sum([v]) / 1 only for finite v: an infinite
    # part makes the quotient's other part NaN
    rows = np.array([[complex(np.inf, 0.0), complex(1.0, -0.0), complex(-2.0, 3.0)],
                     [complex(-0.0, -0.0), complex(2.0, -1.0), complex(-1.0, 0.5)]])
    with np.errstate(invalid="ignore"):
        got = cluster_stack(rows, norm_scales(np.eye(3)[None].repeat(2, axis=0)))
    for row, clusters in zip(rows.tolist(), got):
        want = sorted(((sum([v]) / 1, 1) for v in row), key=lambda c: (c[0].real, c[0].imag))
        assert [(repr(z), math.copysign(1, z.real), math.copysign(1, z.imag), k)
                for z, k in clusters] == [
            (repr(z), math.copysign(1, z.real), math.copysign(1, z.imag), k) for z, k in want]
    assert any(math.isnan(z.imag) for z, _ in got[0])


def test_grouped_clusters_keep_the_bits_of_the_loop():
    # rows with close pairs, each summed value by value: signed zeros,
    # groups whose members are not adjacent, a sum that overflows (its
    # other part then NaN) and infinite values
    rows = [
        ([complex(-0.0, -0.0), complex(1.0, -0.0), complex(0.0, -0.0), complex(1.0, 0.0)], 0.5),
        ([complex(3.0, 1.0), complex(-0.0, -0.0), complex(3.0, 1.0), complex(-0.0, 0.0)], 0.0),
        ([complex(1e308, 1.0), complex(1.5e308, 1.0), complex(-0.0, 2.0), complex(0.0, 2.0)], 6e307),
        ([complex(np.inf, 0.0), complex(np.inf, 0.0), complex(-1.0, 0.5), complex(-1.0, 0.5)], 1.0),
        ([complex(2.0, 0.1), complex(-1.0, 0.0), complex(2.0, -0.1), complex(-1.0, 1e-9)], 0.25),
        ([complex(-0.0, -0.0)] * 4, 0.0),  # one group, no non-member to add 0.0
    ]
    values = np.array([row for row, _ in rows])
    close = np.array([[[abs(a - b) <= tol for b in row] for a in row] for row, tol in rows])
    with np.errstate(invalid="ignore", over="ignore"):
        got = tracker._clusters(values, close)
    assert [len(c) for c in got] == [2, 2, 2, 3, 2, 1]
    assert math.isnan(got[2][1][0].imag)
    for (row, tol), clusters in zip(rows, got):
        want = loop_clusters(row, tol)
        assert [(repr(z), math.copysign(1, z.real), math.copysign(1, z.imag), k)
                for z, k in clusters] == [
            (repr(z), math.copysign(1, z.real), math.copysign(1, z.imag), k) for z, k in want]


RANGE_CASES = [
    # squared sums that underflow (entries near 1e-160) or overflow (1e160)
    ([["z", "z", "0"], ["0", "z", "z"], ["0", "0", "2*z"]],
     ["scan", "--box=-1e-160:1e-160", "--res", "5"], 0),
    ([["z", "z"], ["z", "-z"]], ["scan", "--box=1e-170:2e-170", "--res", "3"], 0),
    ([["z", "z"], ["z", "-z"]], ["census", "--point", "1e-160"], 1),
    ([["10^160*z", "1"], ["0", "z+1"]], ["scan", "--box=-1e-160:1e-160", "--res", "5"], 0),
    ([["10^160*z", "1"], ["0", "z+1"]], ["census", "--point", "1e-160"], 0),
    ([["z", "z"], ["z", "-z"]], ["scan", "--box=-1e160:1e160", "--res", "5"], 2),
    ([["10^160*z", "10^160"], ["10^160", "-10^160*z"]], ["census", "--point", "0.5"], 2),
]


@pytest.mark.parametrize("entries,argv,code", RANGE_CASES,
                         ids=["scan-1e-160", "scan-1e-170", "census-1e-160",
                              "scan-mixed", "census-mixed", "scan-1e160", "census-1e160"])
def test_range_cases_equal_forced_exact_runs(tmp_path, capsys, monkeypatch,
                                             entries, argv, code):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": len(entries), "params": ["z"], "entries": entries}))
    runs = []
    for force in (False, True):
        if force:
            def settle_nothing(stack):
                count = len(stack)
                return np.zeros(count), np.full(count, np.inf)

            monkeypatch.setattr(ranklab, "norm_bounds", settle_nothing)
            monkeypatch.setattr(tracker, "norm_bounds", settle_nothing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cli.main([argv[0], str(path), *argv[1:]])
        assert not caught
        captured = capsys.readouterr()
        runs.append((got, captured.out, captured.err.count("\n")))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    if code == 2:
        assert runs[0][2] == 1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_svd_norms_of_an_index_subset_have_the_bits_of_the_full_stack(data):
    count, rows, cols = (data.draw(st.integers(1, k)) for k in (9, 5, 5))
    entry = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    stack = np.array(data.draw(st.lists(entry, min_size=count * rows * cols,
                                        max_size=count * rows * cols)),
                     dtype=complex).reshape(count, rows, cols)
    index = np.array(data.draw(st.lists(st.integers(0, count - 1), max_size=2 * count)),
                     dtype=int)
    full = svd_norms(stack)[index]
    scales = norm_scales(stack)
    assert svd_norms(stack[index]).tobytes() == full.tobytes()
    assert scales.exact(index).tobytes() == full.tobytes()
    assert [scales.exact(i) for i in index.tolist()] == full.tolist()
