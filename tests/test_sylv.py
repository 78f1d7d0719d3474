import math
import random
from collections import Counter
from fractions import Fraction

from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jordanscope.algebra import (
    GaussianRational,
    GR_ONE,
    MultiPoly,
    UniPoly,
    derivative,
    parse_entry,
    subresultant_prs,
)
from jordanscope.algebra.multipoly import NonFiniteError, StackedEvaluator
from jordanscope import sylv
from jordanscope.family import MatrixFamily
from jordanscope.ranklab import ScaleBounds, exact_rank, generic_points, minors
from jordanscope.sylv import (
    bound_report,
    build_split_matrix,
    certifies_empty,
    check_coeff_bound,
    distinct_zero_count,
    split_counts,
    split_defining_functions,
    split_matrices,
)

from test_algebra import poly_from_roots, sympy_poly

GR = GaussianRational


def gr(a, b=0):
    return GR(Fraction(a), Fraction(b))


def monic_from_roots(roots):
    return poly_from_roots([gr(r) if not isinstance(r, GR) else r for r in roots], GR_ONE)


# ---------------------------------------------------------------------------
# build_split_matrix structure


def test_split_matrix_lambda_squared():
    # p = lam^2: columns {p*1, -p'*1, -p'*lam} in basis (1, lam, lam^2)
    p = UniPoly([gr(0), gr(0), gr(1)])
    sm = build_split_matrix(p)
    cols = [[sm[i][j] for i in range(3)] for j in range(3)]
    assert cols[0] == [gr(0), gr(0), gr(1)]
    assert cols[1] == [gr(0), gr(-2), gr(0)]
    assert cols[2] == [gr(0), gr(0), gr(-2)]
    from jordanscope.ranklab import exact_rank

    assert exact_rank(sm) == 2


def test_split_matrix_distinct_roots_full_rank():
    p = UniPoly([gr(-1), gr(0), gr(1)])  # lam^2 - 1
    sm = build_split_matrix(p)
    cols = [[sm[i][j] for i in range(3)] for j in range(3)]
    assert cols[0] == [gr(-1), gr(0), gr(1)]
    assert cols[1] == [gr(0), gr(-2), gr(0)]
    assert cols[2] == [gr(0), gr(0), gr(-2)]
    from jordanscope.ranklab import exact_rank

    assert exact_rank(sm) == 3


def test_split_matrix_band_structure():
    rng = random.Random(3)
    for n in range(2, 6):
        p = monic_from_roots([rng.randint(-4, 4) for _ in range(n)])
        sm = build_split_matrix(p)
        size = 2 * n - 1
        for j in range(n - 1):  # p-block bands: j <= i <= n+j
            for i in range(size):
                if not (j <= i <= n + j):
                    assert sm[i][j].is_zero()
        for t in range(n):  # q-block bands: t <= i <= t+n-1
            j = n - 1 + t
            for i in range(size):
                if not (t <= i <= t + n - 1):
                    assert sm[i][j].is_zero()


def test_split_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        build_split_matrix(UniPoly([gr(3)]))  # degree 0
    with pytest.raises(ValueError):
        build_split_matrix(UniPoly([gr(1), gr(2)]))  # not monic


def test_split_matrix_symbolic_discriminant():
    # p = lam^2 - c: determinant is -4c up to sign
    c = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    p = UniPoly([-c, zero, one])
    sm = build_split_matrix(p)
    from jordanscope.ranklab import det_multipoly

    d = det_multipoly(sm)
    assert d in (c.scale(4), c.scale(-4))


# ---------------------------------------------------------------------------
# distinct_zero_count


def test_distinct_zero_count_trivial():
    assert distinct_zero_count(monic_from_roots([0, 0, 0])) == 1
    assert distinct_zero_count(monic_from_roots([0, 1, -1])) == 3


def test_distinct_zero_count_floating():
    p = UniPoly([-1.0, 0.0, 1.0])
    assert distinct_zero_count(p) == 2
    q = UniPoly([0.0, 0.0, 1.0])
    assert distinct_zero_count(q) == 1


def test_exact_stack_counts_exactly():
    # roots 1 and 1 + 10**-12 are two zeros exactly; a floating rank
    # of the same splitting matrix sees one
    close = gr(1) + GR(Fraction(1, 10**12))
    coeffs = [monic_from_roots([1, close]).coeffs, monic_from_roots([1, 1]).coeffs]
    assert split_counts(split_matrices(np.array(coeffs, dtype=object))).tolist() == [2, 1]
    floating = np.array([[complex(c) for c in row] for row in coeffs])
    assert split_counts(split_matrices(floating)).tolist() == [1, 1]


def test_distinct_zero_count_matches_gcd_oracle_corpus():
    # 200 random exact monic polynomials up to degree 6, built from
    # repeated linear factors, against sympy's square-free part
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        roots = []
        while len(roots) < n:
            roots.append(rng.randint(-5, 5))
        p = monic_from_roots(roots[:n])
        m_rank = distinct_zero_count(p)
        assert m_rank == sympy.sqf_part(sympy_poly(p)).degree()
        checked += 1


def test_rank_invariance_under_translation_and_scaling():
    from jordanscope.ranklab import exact_rank

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        roots = [rng.randint(-3, 3) for _ in range(n)]
        p = monic_from_roots(roots)
        base = exact_rank(build_split_matrix(p))
        a = gr(rng.choice([1, 2, 3, -2]))
        # translation p(lam - a): roots shift by a
        shifted = monic_from_roots([gr(r) + a for r in roots])
        assert exact_rank(build_split_matrix(shifted)) == base
        # scaling a^{-n} p(a lam): roots divide by a
        scaled = monic_from_roots([gr(r) / a for r in roots])
        assert exact_rank(build_split_matrix(scaled)) == base


# ---------------------------------------------------------------------------
# split_defining_functions


def _family_lambda2_minus_zeta2():
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    return UniPoly([-(z * z), zero, one])


def test_split_defining_functions_zeta_squared():
    functions, r_max = split_defining_functions(_family_lambda2_minus_zeta2())
    assert r_max == 3
    assert len(functions) == 1
    h = functions[0]
    z = MultiPoly.variable(1, 0)
    assert h in ((z * z).scale(4), (z * z).scale(-4))


def test_split_defining_functions_non_splitting_family():
    # (lam - zeta)^2 = lam^2 - 2 zeta lam + zeta^2: m = 1 everywhere
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    fam = UniPoly([z * z, z.scale(-2), one])
    functions, r_max = split_defining_functions(fam)
    assert r_max == 2
    # common zero set must be empty: some minor is a nonzero constant
    assert any(h.is_constant() for h in functions)


def test_split_defining_functions_constant_distinct():
    # lam^2 - 1 as a (constant) 1-parameter family: empty splitting set
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    fam = UniPoly([-one, zero, one])
    functions, r_max = split_defining_functions(fam)
    assert r_max == 3
    assert all(h.is_constant() for h in functions)
    assert all(not h.constant_value().is_zero() for h in functions)


def test_a_pool_certifies_empty_when_it_holds_a_nonzero_constant():
    z, one, zero = MultiPoly.variable(1, 0), MultiPoly.one(1), MultiPoly.zero(1)
    assert certifies_empty([z, one.scale(-3)])
    assert not certifies_empty([z, zero])  # the zero constant vanishes everywhere
    assert not certifies_empty([z * z, z + one])
    assert not certifies_empty([])


def test_split_zero_set_matches_distinct_count_drop():
    # sampled agreement between {all h = 0} and m < generic m
    functions, _ = split_defining_functions(_family_lambda2_minus_zeta2())
    rng = random.Random(5)
    pts = [[gr(0)]] + [[gr(rng.randint(-6, 6), rng.randint(-6, 6))] for _ in range(30)]
    for pt in pts:
        fam_at = UniPoly(
            [c.eval_exact(pt) for c in _family_lambda2_minus_zeta2().coeffs]
        )
        m = distinct_zero_count(fam_at)
        all_zero = all(h.eval_exact(pt).is_zero() for h in functions)
        assert all_zero == (m < 2)


GAUSSIAN_INTS = st.builds(gr, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def small_families(draw):
    """Families with n <= 3 in one or two parameters, entries affine in the
    parameters with small Gaussian-integer coefficients: dense ones, and
    upper-triangular ones with a repeated diagonal entry, whose
    characteristic polynomial has a repeated factor."""
    nv, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    units = [tuple(int(k == v) for k in range(nv)) for v in range(nv)]

    def entry():
        return MultiPoly(nv, {e: draw(GAUSSIAN_INTS) for e in [(0,) * nv] + units})

    if draw(st.booleans()):
        entries = [[entry() for _ in range(n)] for _ in range(n)]
    else:
        n = max(n, 2)
        values = [entry() for _ in range(n - 1)]
        diagonal = draw(st.permutations(values + [draw(st.sampled_from(values))]))
        entries = [[diagonal[i] if i == j else entry() if j > i else MultiPoly.zero(nv)
                    for j in range(n)] for i in range(n)]
    return MatrixFamily(n=n, params=["z", "w"][:nv], entries=entries)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_families(), st.integers(0, 3))
def test_split_defining_functions_equal_generic_rank_minors(family, seed):
    # r_max is the largest exact rank of the splitting matrix's values at
    # the seeded points, and the h's are its minors of that order
    p = family.char_poly_family()
    functions, r_max = split_defining_functions(p, seed=seed)
    sm = build_split_matrix(p)
    r = max(exact_rank([[e.eval_exact(pt) for e in row] for row in sm])
            for pt in generic_points(family.nparams, seed))
    assert r_max == r
    assert [list(h.terms.items()) for h in functions] == [
        list(h.terms.items()) for h in minors(sm, r)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("hits", ["0", "1", "2", "01", "02", "12", "012"])
def test_split_count_is_the_max_at_the_seeded_points(seed, hits):
    # diag(0, 0, q) plus a strictly upper part: 0 is a double eigenvalue,
    # and all three eigenvalues meet where q vanishes, at the seeded points
    # numbered in ``hits``; the splitting rank is 4 elsewhere and 3 there
    nv = seed + 1
    points = generic_points(nv, seed)
    z, q, zero = MultiPoly.variable(nv, 0), MultiPoly.one(nv), MultiPoly.zero(nv)
    for i in map(int, hits):
        q = q * (z - MultiPoly(nv, {(0,) * nv: points[i][0]}))
    u = z + MultiPoly.one(nv)
    family = MatrixFamily(n=3, params=["z", "w"][:nv],
                          entries=[[zero, u, u], [zero, zero, u], [zero, zero, q]])
    functions, r_max = split_defining_functions(family.char_poly_family(), seed=seed)
    assert r_max == (3 if len(hits) == len(points) else 4)


def principal_subresultant(p, d):
    """psc_d(p, p') up to sign: the leading coefficient of the element of
    degree d of the subresultant PRS of p and p', which is the
    subresultant S_d itself when the PRS reaches degree d from d + 1."""
    prs = subresultant_prs(p, derivative(p))
    degrees = [u.degree for u in prs]
    assert d in degrees and d + 1 in degrees
    return prs[degrees.index(d)].leading


def _gaussian(rng):
    return GR(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
              Fraction(rng.randint(-50, 50), rng.randint(1, 9)))


# upper-triangular families (eigenvalues on the diagonal), their generic
# gcd degree d0, and lines t -> (z, w) on which two eigenvalue branches
# collide
TRIANGULAR_COLLISIONS = [
    ([["z", "1", "w"], ["0", "z", "1"], ["0", "0", "w"]], 1,
     [lambda t: (t, t)]),
    ([["z", "w", "1"], ["0", "w", "z"], ["0", "0", "z + w"]], 0,
     [lambda t: (t, t), lambda t: (t, GR(0)), lambda t: (GR(0), t)]),
    ([["z", "1", "w", "2"], ["0", "z", "1", "w"], ["0", "0", "z", "z + w"],
      ["0", "0", "0", "w + 1"]], 2,
     [lambda t: (t + GR(1), t)]),
]


@pytest.mark.parametrize("entries,d0,lines", TRIANGULAR_COLLISIONS,
                         ids=["double", "distinct", "triple"])
def test_split_minors_vanish_with_the_principal_subresultant(entries, d0, lines):
    # Collins 1967: for monic p, deg gcd(p, p') is the least d with
    # psc_d(p, p') != 0, so the order-r_max minors and psc_d0, d0 the
    # generic gcd degree, vanish at the same points
    p = MatrixFamily.from_entries(entries, ["z", "w"]).char_poly_family()
    functions, r_max = split_defining_functions(p)
    assert r_max == 2 * p.degree - 1 - d0
    psc = principal_subresultant(p, d0)
    rng = random.Random(r_max)
    for line in lines:
        for _ in range(3):
            pt = line(_gaussian(rng))
            assert psc.eval_exact(pt).is_zero()
            assert all(h.eval_exact(pt).is_zero() for h in functions)
    for _ in range(5):
        pt = (_gaussian(rng), _gaussian(rng))
        assert not psc.eval_exact(pt).is_zero()
        assert not all(h.eval_exact(pt).is_zero() for h in functions)


def test_no_minor_references_leading_coefficient():
    # splitting matrix of the fully generic monic polynomial: when the
    # generic zero count exceeds 1, every maximal minor has zero
    # constant term, i.e. is a sum of products of P_0..P_(n-1) alone
    from jordanscope.ranklab import minors

    for n in (2, 3):
        nv = n  # formal variables P_0 .. P_(n-1)
        coeffs = [MultiPoly.variable(nv, k) for k in range(n)] + [MultiPoly.one(nv)]
        fam = UniPoly(coeffs)
        sm = build_split_matrix(fam)
        for h in minors(sm, 2 * n - 1):
            assert h.terms.get((0,) * nv) is None


# ---------------------------------------------------------------------------
# check_coeff_bound


def test_coeff_bound_hand_example():
    # p = lam^2 - c at c = 4: |-4c| = 16 <= 4^8 * 4^4
    fam = _family_lambda2_minus_zeta2()  # coefficient -zeta^2; reuse shape
    z = MultiPoly.variable(1, 0)
    h = (z * z).scale(-4)
    report = check_coeff_bound([h], fam, [[2.0 + 0j]])  # zeta=2 -> P_0 = -4
    assert report.passed
    assert report.max_ratio <= 16 / (4**8 * 4**4) * 1.0001


def test_coeff_bound_constant_family_constant_ratio():
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    fam = UniPoly([-one, zero, one])
    functions, _ = split_defining_functions(fam)
    h = functions[0]
    pts = [[0.3 + 0.1j], [2.0 + 0j], [-5.0 + 1j]]
    ratios = []
    for pt in pts:
        rep = check_coeff_bound([h], fam, [pt])
        ratios.append(rep.max_ratio)
    assert max(ratios) - min(ratios) < 1e-12


def _double_root_cubic():
    # (lam - z)^2 (lam - w): 25 nonzero order-4 split minors
    z, w = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    return poly_from_roots([z, z, w], MultiPoly.one(2))


def _polydisk(seed, count, nparams):
    rng = random.Random(seed)
    return [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nparams)]
            for _ in range(count)]


def test_coeff_bound_evaluates_each_coefficient_once_per_point(monkeypatch):
    fam = _double_root_cubic()
    functions, _ = split_defining_functions(fam)
    pts = _polydisk(3, 7, 2)
    calls = []
    evaluate = StackedEvaluator.__call__

    def counted(self, points):
        calls.append((self.count, len(points)))
        return evaluate(self, points)

    monkeypatch.setattr(StackedEvaluator, "__call__", counted)
    report = check_coeff_bound(functions, fam, pts)
    n, count = fam.degree, len(functions)
    # one call over the lower coefficients, one over the function list
    assert calls == [(n, len(pts)), (count, len(pts))]
    assert report.checked == len(pts) * count


def bound_summary(report):
    violations = Counter((tuple(v["point"]), v["value"], v["bound"])
                         for v in report.violations)
    return report.checked, report.max_ratio, report.passed, violations


def test_coeff_bound_list_equals_merged_single_function_reports():
    fam = _double_root_cubic()
    functions, _ = split_defining_functions(fam)
    # the minors stay below 1e-8 of their bound; this copy breaks it at
    # 17 of the 40 sample points
    functions = functions + [functions[0].scale(4 * 10**10)]
    pts = _polydisk(3, 40, 2)
    report = check_coeff_bound(functions, fam, pts)
    singles = [bound_summary(check_coeff_bound([h], fam, pts)) for h in functions]
    assert not report.passed
    assert bound_summary(report) == (
        sum(s[0] for s in singles), max(s[1] for s in singles),
        all(s[2] for s in singles), sum((s[3] for s in singles), Counter()))


def test_coeff_bound_sampled_under_unit_polydisk():
    rng = random.Random(17)
    fam = _family_lambda2_minus_zeta2()
    functions, _ = split_defining_functions(fam)
    pts = [
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))] for _ in range(2000)
    ]
    rep = check_coeff_bound(functions, fam, pts)
    assert rep.passed, rep.violations[:1]


def test_bound_report_overflowing_power_is_an_infinite_bound():
    # 1e200 ** 2 leaves float64: that point's bound is inf and its ratio
    # 0, while the finite point keeps the exact bound 4 * 2.0 ** 2
    one = MultiPoly.one(1)
    scales = np.array([1e200, 2.0])
    report = bound_report("test", [[0j], [1j]], [one.scale(100)], 4.0,
                          ScaleBounds(scales, scales, scales.__getitem__), 2)
    assert report.checked == 2
    assert [v["bound"] for v in report.violations] == [16.0]
    assert report.violations[0]["point"] == [1j]
    assert report.max_ratio == 100 / 16.0


# ---------------------------------------------------------------------------
# bound_report against the full evaluation


def full_bound_report(points, values, constant, scales, exponent):
    """Reference: the bound check before it took scale intervals. Every
    point's bound from its exact scale in Python floats, every ratio, and
    the violations in point order; (checked, violations, max_ratio)."""
    bounds = [constant * sylv._power(max(1.0, s), exponent) for s in scales]
    limits = np.array(bounds)[:, None]
    with np.errstate(all="ignore"):
        ratios = values / limits
        bad = np.nonzero(values > limits * (1 + 1e-12))
    violations = [
        {"point": list(points[i]), "value": float(values[i, j]), "bound": bounds[i]}
        for i, j in zip(*bad)
    ]
    return values.size, violations, float(np.fmax.reduce(ratios, axis=None, initial=0.0))


def hexed(checked, violations, max_ratio):
    return checked, [(v["point"], v["value"].hex(), v["bound"].hex())
                     for v in violations], max_ratio.hex()


ONE_UP, ONE_DOWN = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
#: scales at and around 1 (within the candidate slack of it too), tiny, huge
SPECIAL_SCALES = [0.0, 0.25, ONE_DOWN, 1.0, ONE_UP, 1 - 1e-10, 1 + 1e-10,
                  1 + 1e-7, 2.0, 1e-300, 1e150, 1e200, math.inf, math.nan]
#: value factors of a point's exact bound: ties, and either side of a violation
FACTORS = [0.0, 0.5, ONE_DOWN, 1.0, ONE_UP, 1 + 1e-12, 1 + 2e-12, 2.0, math.inf,
           math.nan]


@st.composite
def scale_intervals(draw, count):
    """(exact scales, ScaleBounds) for ``count`` points: each interval is
    the exact point, a certified interval around it, or (0, inf)."""
    scales = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_SCALES),
                                     st.floats(0, 1e6)), min_size=count, max_size=count))
    lo, hi = [], []
    for s in scales:
        kind = 0 if math.isnan(s) else draw(st.integers(0, 2))
        widths = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5]))
        lo.append([s, s * (1 - widths), 0.0][kind])
        hi.append([s, s * (1 + widths), math.inf][kind])
    array = np.array(scales)
    return scales, ScaleBounds(np.array(lo), np.array(hi), array.__getitem__)


@st.composite
def bound_cases(draw):
    count = draw(st.integers(1, 8))
    width = draw(st.integers(0, 3))
    scales, bounds = draw(scale_intervals(count))
    constant = draw(st.one_of(st.sampled_from([1.0, 4.0, 1e-300, 1e-20, 1e300]),
                              st.floats(1e-300, 1e300)))
    exponent = draw(st.sampled_from([1, 2, 4, 18, 162, 512]))
    exact = [constant * sylv._power(max(1.0, s), exponent) for s in scales]
    tied = draw(st.booleans())  # every value at its point's bound
    values = np.array([
        [b if tied else draw(st.one_of(
            st.sampled_from(FACTORS).map(lambda f, b=b: b * f),
            st.sampled_from([0.0, math.nan, math.inf]),
            st.floats(0, 1e300)))
         for _ in range(width)] for b in exact], dtype=float).reshape(count, width)
    points = [[complex(k, 0)] for k in range(count)]
    return points, values, constant, scales, bounds, exponent


#: a point whose interval (0, inf) leaves its ratio anywhere up to 5e11,
#: while its exact ratio 0.5 is below the other point's
WIDE_BELOW = ([[0j], [1j]], np.array([[ONE_DOWN], [5e11]]), 1.0, [1.0, 1e6],
              ScaleBounds(np.array([1.0, 0.0]), np.array([1.0, math.inf]),
                          np.array([1.0, 1e6]).__getitem__), 2)


@settings(max_examples=400, deadline=None)
@given(bound_cases())
@example(WIDE_BELOW)
def test_bound_report_has_the_bits_of_the_full_evaluation(case):
    points, values, constant, scales, bounds, exponent = case
    with mock.patch.object(sylv, "_moduli", lambda polys, pts: values):
        report = bound_report("test", points, [], constant, bounds, exponent)
    assert hexed(report.checked, report.violations, report.max_ratio) == hexed(
        *full_bound_report(points, values, constant, scales, exponent))


#: two tight points at the largest ratio 0.5, tied, and a wide one whose
#: upper ratio 1 puts it first: the raised floor must keep the tied pair
TIED_BELOW_WIDE = ([[0j], [1j], [2j]], np.array([[2.0], [2.0], [1.0]]), 1.0, [2.0, 2.0, 1e6],
                   ScaleBounds(np.array([2.0, 2.0, 0.0]), np.array([2.0, 2.0, math.inf]),
                               np.array([2.0, 2.0, 1e6]).__getitem__), 2)


@settings(max_examples=150, deadline=None)
@given(bound_cases(), st.integers(0, 3))
@example(TIED_BELOW_WIDE, 2)
def test_bound_report_raising_its_floor_keeps_the_bits(case, few):
    """With at most ``few`` candidates before the floor rises: the bits of
    the full evaluation, each scale asked once, only at a point of the
    candidate rule without the raised floor."""
    points, values, constant, scales, bounds, exponent = case
    asked = []

    def exact(index):
        asked.extend(index.tolist())
        return bounds.exact(index)

    with mock.patch.object(sylv, "_moduli", lambda polys, pts: values), \
            mock.patch.object(sylv, "FEW_CANDIDATES", few):
        report = bound_report("test", points, [], constant, bounds._replace(exact=exact),
                              exponent)
    assert hexed(report.checked, report.violations, report.max_ratio) == hexed(
        *full_bound_report(points, values, constant, scales, exponent))
    peaks = np.fmax.reduce(values, axis=1, initial=0.0)
    with np.errstate(all="ignore"):
        low = constant * np.fmax(1.0, bounds.lo * (1 - sylv.CANDIDATE_SLACK)) ** exponent
        high = constant * np.fmax(1.0, bounds.hi * (1 + sylv.CANDIDATE_SLACK)) ** exponent
        floor = np.fmax.reduce(peaks / high, initial=0.0)
        rule = (peaks > 0) & ~((peaks / low < floor) & (peaks < low)) & (bounds.hi > 1)
    assert len(set(asked)) == len(asked) and set(asked) <= set(np.flatnonzero(rule).tolist())


def test_bound_report_takes_exact_scales_only_where_they_decide():
    asked = []
    scales = np.array([0.5, 3.0, 4.0, 2.0])

    def exact(index):
        asked.append(index.tolist())
        return scales[index]

    values = np.array([[2.0], [4.0], [17.0], [0.0]])
    bounds = ScaleBounds(scales * (1 - 1e-6), scales * (1 + 1e-6), exact)
    with mock.patch.object(sylv, "_moduli", lambda polys, pts: values):
        report = bound_report("test", [[0j]] * 4, [], 1.0, bounds, 2)
    # point 0 violates its bound 1.0 (hi <= 1: no SVD) with the largest
    # ratio; point 2 violates 16.0; point 1 is far below both its bound
    # and ratio 2.0, and point 3 is zero
    assert asked == [[2]]
    assert report.max_ratio == 2.0
    assert [v["bound"] for v in report.violations] == [1.0, 16.0]


@pytest.mark.parametrize("text", [
    "10^154*10^154*z^2",                      # 1.96e308 at z = 1.4: inf
    "10^154*10^154*z^2 - 10^154*10^154*z^3",  # inf - inf: NaN
    "10^154*10^154*(1+i)*z",                  # finite parts, modulus 1.98e308
])
def test_coeff_bound_refuses_a_non_finite_sampled_coefficient(text):
    lower = parse_entry(text, ["z"])
    family = UniPoly([lower, MultiPoly.one(1)])
    with pytest.raises(NonFiniteError):
        check_coeff_bound([MultiPoly.one(1)], family, [[0.5j], [1.4 + 0j]])
    assert check_coeff_bound([MultiPoly.one(1)], family, [[0.5j]]).passed
