import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.algebra import GaussianRational, MultiPoly, parse_entry
from jordanscope.algebra import matrices
from jordanscope.algebra.matrices import as_matrix, identity_like
from jordanscope import ranklab
from jordanscope.corpus import builtin_cases
from jordanscope.family import MatrixFamily
from jordanscope.ranklab import (
    GENERIC_RANK_POINTS,
    MinorSizeError,
    NonFiniteError,
    det_multipoly,
    exact_rank,
    generic_rank,
    kernel_basis,
    minors,
    norm_scales,
    numerical_rank,
    power_ranks,
    random_rational_point,
)
from jordanscope.sylv import build_split_matrix
from jordanscope.tracker import probe_stacks, theta_power_ranks, theta_stack

GR = GaussianRational
DATA = Path(__file__).parent / "data"


def mat_mul(a, b):
    return as_matrix(a) @ as_matrix(b)


def test_numerical_rank_zero_matrix():
    r = numerical_rank(np.zeros((3, 3)), rel_tol=1e-8)
    assert r.rank == 0


def test_numerical_rank_identity():
    r = numerical_rank(np.eye(3), rel_tol=1e-8)
    assert r.rank == 3
    assert r.singular_values == (1.0, 1.0, 1.0)


def test_numerical_rank_tiny_singular_value():
    # singular values 1 and 1e-14, threshold 2e-8
    r = numerical_rank(np.diag([1.0, 1e-14]), rel_tol=1e-8)
    assert r.rank == 1
    assert r.tolerance_used == pytest.approx(2e-8)


def test_numerical_rank_threshold_rule():
    r = numerical_rank(np.diag([1.0, 1e-14]), rel_tol=1e-8)
    sv = r.singular_values
    assert sv[r.rank - 1] > r.tolerance_used >= sv[r.rank]


def test_numerical_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        numerical_rank(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), rel_tol=0.0)


def test_exact_rank_rank_one():
    assert exact_rank([[1, 2], [2, 4]]) == 1


def test_exact_rank_identity():
    assert exact_rank([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 4


def test_exact_rank_product_construction():
    rng = random.Random(13)
    for _ in range(10):
        left = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(5)]
        right = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
        if exact_rank(left) < 3 or exact_rank(right) < 3:
            continue
        prod = [
            [sum(left[i][t] * right[t][j] for t in range(3)) for j in range(5)]
            for i in range(5)
        ]
        assert exact_rank(prod) == 3


def test_exact_rank_invariance_under_row_permutation_and_units():
    rng = random.Random(29)
    a = [[GR(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
    base = exact_rank(a)
    rows = list(range(4))
    rng.shuffle(rows)
    assert exact_rank([a[i] for i in rows]) == base
    # multiply by an invertible exact matrix (a shear)
    shear = [[GR(1) if i == j else GR(0) for j in range(4)] for i in range(4)]
    shear[0][2] = GR(Fraction(3, 2))
    prod = [
        [sum((shear[i][t] * a[t][j] for t in range(4)), GR(0)) for j in range(4)]
        for i in range(4)
    ]
    assert exact_rank(prod) == base


GAUSSIAN = st.one_of(
    st.just(GR(0)),
    st.builds(lambda a, b, c, d: GR(Fraction(a, c), Fraction(b, d)),
              st.integers(-6, 6), st.integers(-6, 6),
              st.integers(1, 5), st.integers(1, 5)),
)


def gaussian_matrix(rows, cols):
    return st.lists(st.lists(GAUSSIAN, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def rank_test_matrices(draw):
    """Gaussian-rational matrices up to 6 x 7; half of them are products
    through a thinner inner dimension, so their rank is usually deficient."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        return mat_mul(draw(gaussian_matrix(rows, inner)),
                       draw(gaussian_matrix(inner, cols)))
    return draw(gaussian_matrix(rows, cols))


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.re.numerator, x.re.denominator)
                          + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator)
                          for x in row] for row in m])


@settings(max_examples=150, deadline=None)
@given(rank_test_matrices())
def test_exact_rank_against_sympy(m):
    assert exact_rank(m) == to_sympy(m).rank(simplify=True)


def bareiss_over_rationals(work) -> int:
    """Reference: the elimination exact_rank ran before it worked in Z[i],
    Bareiss with full pivoting on GaussianRational entries, in place."""
    nrows, ncols = len(work), len(work[0])
    prev = None
    for r in range(min(nrows, ncols)):
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


#: entries with mixed denominators, purely imaginary ones among them
MIXED = st.one_of(
    st.builds(lambda a, b, c, d: GR(Fraction(a, c), Fraction(b, d)),
              st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 12), st.integers(1, 12)),
    st.builds(lambda b, d: GR(0, Fraction(b, d)), st.integers(-9, 9), st.integers(1, 12)),
    st.builds(lambda a, d: GR(Fraction(a, d)), st.integers(-10**6, 10**6),
              st.integers(1, 10**4)),
    st.just(GR(0)),
)


@st.composite
def elimination_matrices(draw):
    """Up to 6 x 7, half of them products through a thinner inner
    dimension, with zero rows put in, and some all purely imaginary."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entries = draw(st.sampled_from([MIXED, MIXED.map(lambda x: x * GR(0, 1))]))

    def block(r, c):
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                             min_size=r, max_size=r))

    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        m = mat_mul(block(rows, inner), block(inner, cols))
    else:
        m = block(rows, cols)
    zero = [GR(0)] * cols
    return [zero if draw(st.integers(0, 5)) == 0 else row for row in m]


@settings(max_examples=300, deadline=None)
@given(elimination_matrices())
def test_exact_rank_equals_elimination_over_rationals(m):
    assert exact_rank(m) == bareiss_over_rationals([list(row) for row in m])


def test_exact_rank_of_complex_products_through_three():
    # complex pivots from the second step on: each division in Z[i] by a
    # non-real previous pivot decides the later minors
    rng = random.Random(8)
    for _ in range(20):
        a, b = ([[GR(Fraction(rng.randint(-5, 5), rng.randint(1, 6)), rng.randint(-5, 5))
                  for _ in range(3)] for _ in range(5)] for _ in range(2))
        m = mat_mul(a, [list(col) for col in zip(*b)])
        assert exact_rank(m) == bareiss_over_rationals([list(row) for row in m]) == 3


def test_kernel_basis_zero_matrix():
    k = kernel_basis(np.zeros((2, 3)))
    assert k.shape == (3, 3)
    assert np.allclose(k.conj().T @ k, np.eye(3))


def test_kernel_basis_partial():
    k = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert k.shape == (2, 1)
    assert abs(abs(k[1, 0]) - 1.0) < 1e-12
    assert abs(k[0, 0]) < 1e-12


def test_kernel_basis_residual_bound():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    m[:, 5] = m[:, 0] + m[:, 1]  # force nontrivial kernel
    k = kernel_basis(m)
    res = numerical_rank(m)
    norm = np.linalg.norm(m, 2)
    for col in k.T:
        assert np.linalg.norm(m @ col) <= max(res.tolerance_used * norm, 1e-12)


# ---------------------------------------------------------------------------
# minors


def _sym(texts, params):
    return [[parse_entry(t, params) for t in row] for row in texts]


def test_minors_full_order_is_determinant():
    m = _sym([["a", "b"], ["c", "d"]], ["a", "b", "c", "d"])
    out = minors(m, 2)
    assert out == [parse_entry("a*d - b*c", ["a", "b", "c", "d"])]


def test_minors_order_one_lists_entries():
    params = ["a", "b", "c", "d"]
    m = _sym([["a", "b"], ["c", "d"]], params)
    out = minors(m, 1)
    assert out == [parse_entry(t, params) for t in ["a", "b", "c", "d"]]


def test_minors_drop_identically_zero():
    params = ["a"]
    zero = MultiPoly.zero(1)
    a = parse_entry("a", params)
    m = [[a, zero], [a, zero]]
    out = minors(m, 2)
    assert out == []  # det = 0 identically


def test_minors_size_cap():
    big = [[MultiPoly.zero(1)] * 10 for _ in range(10)]
    with pytest.raises(MinorSizeError):
        minors(big, 2)


def test_det_multipoly_against_cofactor_oracle():
    rng = random.Random(31)
    params = ["x", "y"]

    def rand_entry():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = GR(rng.randint(-3, 3))
        return MultiPoly(2, terms)

    def cofactor(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = MultiPoly.zero(2)
        for j in range(n):
            sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = rows[0][j] * cofactor(sub)
            acc = acc - term if j % 2 else acc + term
        return acc

    for _ in range(10):
        n = rng.randint(2, 4)
        m = [[rand_entry() for _ in range(n)] for _ in range(n)]
        assert det_multipoly(m) == cofactor(m)


def bareiss_det(rows):
    """Fraction-free (Bareiss) determinant with full pivoting: the
    per-submatrix reference that the minor sweep replaced."""
    n = len(rows)
    work = [list(r) for r in rows]
    sign, prev = 1, None
    for r in range(n):
        pivot = next(((i, j) for i in range(r, n) for j in range(r, n)
                      if not work[i][j].is_zero()), None)
        if pivot is None:
            return MultiPoly.zero(rows[0][0].nvars)
        pi, pj = pivot
        if pi != r:
            work[r], work[pi] = work[pi], work[r]
            sign = -sign
        if pj != r:
            for row in work:
                row[r], row[pj] = row[pj], row[r]
            sign = -sign
        p = work[r][r]
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = p * work[i][j] - work[i][r] * work[r][j]
                work[i][j] = num if prev is None else num.exact_div(prev)
        prev = p
    return work[-1][-1] if sign > 0 else -work[-1][-1]


def bareiss_minors(m, order):
    out = []
    for ri in itertools.combinations(range(len(m)), order):
        for ci in itertools.combinations(range(len(m[0])), order):
            d = bareiss_det([[m[i][j] for j in ci] for i in ri])
            if not d.is_zero():
                out.append(d)
    return out


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
GAUSSIAN = st.builds(GR, RATIONALS, RATIONALS)
IMAGINARY = st.builds(lambda im: GR(0, im), RATIONALS.filter(bool))


@st.composite
def multipoly_matrices(draw):
    """Up to 3 parameters and exponents up to 6; negative and purely
    imaginary coefficients; each row over its own denominator; zero rows."""
    nvars = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 6)] * nvars)
    terms = st.dictionaries(exponents, st.one_of(GAUSSIAN, IMAGINARY), max_size=3)
    m = []
    for _ in range(rows):
        if draw(st.integers(0, 4)) == 0:
            m.append([MultiPoly.zero(nvars)] * cols)
            continue
        den = draw(st.sampled_from([1, 2, 3, 7, 12]))
        entries = terms.map(lambda ts: MultiPoly(nvars, {e: c / den for e, c in ts.items()}))
        m.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return m


@pytest.mark.parametrize("cap", [math.inf, 0], ids=["packed", "multipoly"])
@settings(max_examples=40, deadline=None)
@given(m=multipoly_matrices())
def test_minor_sweep_equals_per_submatrix_bareiss(cap, m):
    # no size cap: every matrix packs; a cap of 0: every one sweeps over MultiPoly
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "PACKED_BITS_CAP", cap)
        rings = sweep_rings(patch)
        for order in range(1, min(len(m), len(m[0])) + 1):
            got = minors(m, order)
            assert got == bareiss_minors(m, order)
            for h in got:
                assert list(h.terms) == [e for e, _ in h.sorted_terms()]
    assert set(rings) == {"_Packed" if cap else "MultiPoly"}


def sweep_rings(patch):
    """The ring of each minor sweep from now on: "_Packed" or "MultiPoly"."""
    rings, sweep = [], ranklab._sweep

    def spy(m, order, one):
        rings.append(type(one).__name__)
        return sweep(m, order, one)

    patch.setattr(ranklab, "_sweep", spy)
    return rings


def split_matrix_at_generic_rank(family):
    sm = build_split_matrix(family.char_poly_family())
    return sm, generic_rank(sm)[0]


def test_corpus_and_tri5_minors_are_packed(monkeypatch):
    with open(DATA / "tri5_double.json") as f:
        tri5 = MatrixFamily.from_spec_dict(json.load(f))
    families = [case.family for case in builtin_cases()] + [tri5]
    cases = [split_matrix_at_generic_rank(family) for family in families]
    rings = sweep_rings(monkeypatch)
    found = [minors(sm, r) for sm, r in cases]
    assert all(found) and (cases[-1][1], len(found[-1])) == (8, 81)
    assert rings == ["_Packed"] * len(families)


def test_minors_beyond_the_packing_size_sweep_over_multipoly(monkeypatch):
    # every one of 16 parameters takes a radix of at least 2 in the packing
    with open(DATA / "params16.json") as f:
        family = MatrixFamily.from_spec_dict(json.load(f))
    sm, r = split_matrix_at_generic_rank(family)
    assert matrices._Packing.of(sm.tolist(), r) is None
    rings = sweep_rings(monkeypatch)
    got = minors(sm, r)
    assert rings == ["MultiPoly"] and (r, len(got)) == (4, 25)
    assert got == bareiss_minors(sm, r)
    for h in got:
        assert list(h.terms) == [e for e, _ in h.sorted_terms()]


@pytest.mark.parametrize("c", [GR(8), GR(-8), GR(-15), GR(0, 15), GR(-(2**63), 1), GR(2**31)])
def test_a_coefficient_as_large_as_its_bound_unpacks(c):
    # a one-term 1 x 1 matrix meets the slot width's coefficient bound exactly
    m = [[MultiPoly(2, {(1, 3): c})]]
    assert minors(m, 1) == [m[0][0]]


def test_minors_form_no_quotient(monkeypatch):
    # every built-in family's splitting matrix at its generic rank
    cases = builtin_cases()
    matrices = [build_split_matrix(case.family.char_poly_family()) for case in cases]
    ranks = [generic_rank(sm)[0] for sm in matrices]
    want = [minors(sm, r) for sm, r in zip(matrices, ranks)]

    def refuse(self, divisor):
        raise AssertionError("minors divided")

    monkeypatch.setattr(MultiPoly, "exact_div", refuse)
    for case, sm, r, expected in zip(cases, matrices, ranks, want):
        assert expected, case.name
        assert minors(sm, r) == expected


def test_minors_vanish_iff_rank_drops():
    # at sampled rational points: all order-r minors vanish iff rank < r
    rng = random.Random(37)
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    # family [[z, 1], [0, -z]] ... rank 2 away from nothing; use singular family
    m = [[z, one], [z * z, z]]  # det = z^2 - z^2 = 0, rank 1 generically
    assert minors(m, 2) == []
    fam2 = [[z, one], [zero, z]]  # det = z^2, rank 2 off z = 0
    mins = minors(fam2, 2)
    for _ in range(50):
        pt = [GR(Fraction(rng.randint(-20, 20), rng.randint(1, 7)))]
        vals = [[e.eval_exact(pt) for e in row] for row in fam2]
        r = exact_rank(vals)
        all_zero = all(h.eval_exact(pt).is_zero() for h in mins)
        assert all_zero == (r < 2)


def test_generic_rank_of_parameter_matrix():
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    m = [[z, one], [zero, -z]]
    assert generic_rank(m, seed=0) == [2]


def poly_matrices():
    """Small MultiPoly matrices; some rank-deficient by construction: a
    row that is a polynomial multiple of another, or a zero row."""
    @st.composite
    def build(draw):
        nvars = draw(st.integers(1, 2))
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-3, 3))
        entry = st.lists(term, max_size=3).map(lambda ts: MultiPoly(nvars, dict(ts)))
        m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and draw(st.booleans()):
            factor = draw(entry)
            m[-1] = [factor * e for e in m[0]]
        if draw(st.booleans()):
            m[draw(st.integers(0, rows - 1))] = [MultiPoly.zero(nvars)] * cols
        return m
    return build()


@settings(max_examples=60, deadline=None)
@given(poly_matrices(), st.integers(0, 3))
def test_generic_rank_is_the_max_over_its_seeded_points(m, seed):
    # the oracle ranks every seeded point
    rng = random.Random(seed)
    ranks = []
    for _ in range(GENERIC_RANK_POINTS):
        pt = random_rational_point(rng, m[0][0].nvars)
        ranks.append(exact_rank([[e.eval_exact(pt) for e in row] for row in m]))
    assert generic_rank(m, seed=seed) == [max(ranks)]


@st.composite
def square_poly_matrices(draw):
    """(m, seed, powers): square MultiPoly matrices with n <= 4 in one or
    two variables, dense or nilpotent by construction (strictly upper
    triangular, each superdiagonal entry 1 + x_0 * e, so the generic chain
    runs to k = n), some of the latter with a superdiagonal entry that
    vanishes at one seeded point, whose chain reaches 0 sooner."""
    nvars, n, seed = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-3, 3))
    entry = st.lists(term, max_size=3).map(lambda ts: MultiPoly(nvars, dict(ts)))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["dense", "nilpotent", "vanishing"]))
    x0, zero, one = MultiPoly.variable(nvars, 0), MultiPoly.zero(nvars), MultiPoly.one(nvars)
    if kind != "dense":
        m = [[one + x0 * e if j == i + 1 else e if j > i else zero
              for j, e in enumerate(row)] for i, row in enumerate(m)]
    if kind == "vanishing" and n > 1:
        points = ranklab.generic_points(nvars, seed)
        at = draw(st.sampled_from(points))[0]
        i = draw(st.integers(0, n - 2))
        m[i][i + 1] = m[i][i + 1] * (x0 - MultiPoly(nvars, {(0,) * nvars: at}))
    return m, seed, draw(st.integers(1, n + 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square_poly_matrices())
def test_generic_rank_chain_equals_symbolic_powers(case):
    # the oracle forms m^k with @ and ranks its values at the seeded points
    m, seed, powers = case
    rng = random.Random(seed)
    points = [random_rational_point(rng, m[0][0].nvars) for _ in range(GENERIC_RANK_POINTS)]
    a = as_matrix(m)
    power, want = a, []
    for k in range(1, powers + 1):
        if k > 1:
            power = power @ a
        want.append(max(exact_rank([[e.eval_exact(pt) for e in row] for row in power])
                        for pt in points))
        if want[-1] == 0:
            break
    assert generic_rank(m, seed=seed, powers=powers) == want


def test_numerical_rank_agrees_with_exact_on_well_conditioned():
    rng = random.Random(61)
    for _ in range(10):
        n = 4
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        re = exact_rank(a)
        rf = numerical_rank(np.array(a, dtype=complex)).rank
        sv = numerical_rank(np.array(a, dtype=complex))
        smallest_nonzero = (
            sv.singular_values[re - 1] if re else None
        )
        if re and smallest_nonzero > 10 * sv.tolerance_used:
            assert rf == re


def power_test_stack(seed, n=4):
    """Three dense matrices, a nilpotent one with a single Jordan chain
    (conjugated, so its high powers are roundoff, not exact zeros), and
    a rank-2 one."""
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    s = gaussian(n, n) + 4 * np.eye(n)
    nilpotent = s @ np.diag(1.0 + rng.uniform(size=n - 1), 1) @ np.linalg.inv(s)
    deficient = gaussian(n, 2) @ gaussian(2, n)
    return np.concatenate([gaussian(3, n, n), nilpotent[None], deficient[None]])


def never(ranks):
    return False


@pytest.mark.parametrize("seed", range(4))
def test_power_ranks_equal_ranks_of_sequential_powers(seed):
    n = 4
    stack = power_test_stack(seed, n)
    scales = norm_scales(stack)
    got = power_ranks(stack, n + 1, scales, never)
    assert [len(row) for row in got] == [n + 2] * len(stack)
    assert got[3] == [4, 3, 2, 1, 0, 0]  # floored: B^4 is roundoff
    assert got[4] == [4] + [2] * (n + 1)
    for i, base in enumerate(stack):
        power = np.eye(n, dtype=complex)
        for k in range(1, n + 2):
            power = power @ base
            want = numerical_rank(power, scale=scales.exact(i) ** k).rank
            assert got[i][k] == want
    # a base leaves the chain once its list is done, and the others go on
    stop = power_ranks(stack, n + 1, scales, lambda ranks: ranks[-1] == ranks[-2])
    assert stop[3] == got[3] and stop[4] == got[4][:3]


def test_power_ranks_stop_at_the_first_overflowing_power():
    # the third power of 1e104 * I is beyond float64
    stack = np.array([1e104 * np.eye(4), np.eye(4)], dtype=complex)
    scales = norm_scales(stack)
    assert [scales.exact(i) for i in range(2)] == [1e104, 1.0]
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        power_ranks(stack, 3, scales, never)
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        theta_power_ranks(stack, scales)
    # the powers it needs are finite, and the one it does not is never formed
    assert power_ranks(stack, 2, scales, never) == [[4, 4, 4], [4, 4, 4]]
    assert power_ranks(stack, 3, scales, lambda ranks: len(ranks) == 3) == [
        [4, 4, 4], [4, 4, 4]]


def test_power_ranks_stop_at_the_first_roundoff_scale_beyond_float64():
    # B^2 = 0 is finite, but its scale ||B||^2 = 1e400 is not: an infinite
    # threshold would call any B^2 rank 0
    b = np.array([[[0, 1e200], [0, 0]]], dtype=complex)
    scales = norm_scales(b)  # the squared sum overflows: bounds (0, inf)
    assert (scales.lo[0], scales.hi[0], scales.exact(0)) == (0.0, math.inf, 1e200)
    with pytest.raises(NonFiniteError):
        power_ranks(b, 2, scales, never)
    assert power_ranks(b, 1, scales, never) == [[2, 1]]
    # Theta = B^2, whose scale ||0 - B||^2 overflows
    theta, scales = theta_stack(b, [[(0.0, 2)]])
    assert np.all(theta == 0) and scales.hi[0] == scales.exact(0) == math.inf
    with pytest.raises(NonFiniteError):
        theta_power_ranks(theta, scales)


def theta_ranks_power_by_power(theta, scale):
    """Oracle: rank Theta^k for k = 1..n-1, every power formed and ranked
    alone, by the rule of its ring."""
    n = len(theta)
    power, ranks = theta, []
    for k in range(1, n):
        if theta.dtype == object:
            ranks.append(exact_rank(power))
        else:
            ranks.append(numerical_rank(power, scale=scale**k).rank)
        power = power @ theta
    return tuple(ranks)


def conjugated_jordan_stack(rng, n):
    """S J S^-1 for random Jordan matrices J with n <= 8, some
    diagonalizable and some not, each J with the factor list of its
    distinct eigenvalues."""
    matrices, factor_lists = [], []
    for _ in range(6):
        lams = rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=rng.integers(1, 4),
                          replace=False)
        blocks = rng.choice(lams, size=n)
        j = np.diag(blocks).astype(complex)
        for i in range(n - 1):
            if blocks[i] == blocks[i + 1] and rng.uniform() < 0.5:
                j[i, i + 1] = 1.0
        s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 4 * np.eye(n)
        matrices.append(s @ j @ np.linalg.inv(s))
        factor_lists.append([(complex(lam), 1) for lam in sorted(set(blocks))])
    return np.array(matrices), factor_lists


def test_theta_power_ranks_equal_ranks_of_every_power():
    # the stop at rank Theta = 0 against ranking every power: on the probe
    # stacks of a dense 8 x 8 family, where every Theta is roundoff, and on
    # conjugated Jordan matrices, where some Theta are not
    with open(Path(__file__).parent / "data" / "dense8.json") as f:
        family = MatrixFamily.from_spec_dict(json.load(f))
    nodes = [(z, w) for z in (-1.0, 0.3) for w in (-0.5, 1.0)]
    stacks = probe_stacks(family, nodes, 1e-2)
    cases = [(np.concatenate([st.matrices for st in stacks]),
              [[(lam, 1) for lam, _ in c] for st in stacks for c in st.clusters])]
    rng = np.random.default_rng(21)
    cases += [conjugated_jordan_stack(rng, n) for n in range(2, 9)]
    for matrices, factor_lists in cases:
        theta, scales = theta_stack(matrices, factor_lists)
        got = theta_power_ranks(theta, scales)
        assert got == [theta_ranks_power_by_power(t, scales.exact(i))
                       for i, t in enumerate(theta)]
    assert {r for row in got for r in row} != {0}  # some Theta are not zero
    # the exact ring: Theta = 0 exactly when the matrix is diagonalizable
    pyrng = random.Random(22)
    for n in range(2, 7):
        j = [[GR(0)] * n for _ in range(n)]
        for i in range(n):
            j[i][i] = GR(pyrng.choice([0, 1]))
            if i and j[i][i] == j[i - 1][i - 1] and pyrng.random() < 0.5:
                j[i - 1][i] = GR(1)
        shear = as_matrix([[GR(pyrng.randint(-2, 2) if c > r else int(c == r))
                            for c in range(n)] for r in range(n)])
        unshear, power = identity_like(shear), identity_like(shear)
        for _ in range(n - 1):  # (I + N)^-1 = I - N + N^2 - ...
            power = power @ (identity_like(shear) - shear)
            unshear = unshear + power
        phi = shear @ as_matrix(j) @ unshear
        lams = sorted({j[i][i] for i in range(n)}, key=lambda z: z.re)
        theta, scales = theta_stack(phi[None], [[(lam, 1) for lam in lams]])
        assert theta_power_ranks(theta, scales) == [
            theta_ranks_power_by_power(theta[0], None)]
