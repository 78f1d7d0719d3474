import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from jordanscope.algebra import (
    GaussianRational,
    GR_ONE,
    MultiPoly,
    UniPoly,
    gcd_squarefree_oracle,
)
from jordanscope.algebra.multipoly import StackedEvaluator
from jordanscope.sylv import (
    build_split_matrix,
    check_coeff_bound,
    distinct_zero_count,
    split_defining_functions,
)

GR = GaussianRational


def gr(a, b=0):
    return GR(Fraction(a), Fraction(b))


def monic_from_roots(roots):
    return UniPoly.from_roots([gr(r) if not isinstance(r, GR) else r for r in roots],
                              one=GR_ONE)


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


def test_distinct_zero_count_matches_gcd_oracle_corpus():
    # 200 random exact monic polynomials up to degree 6, built from
    # repeated linear factors, against the square-free gcd oracle
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        roots = []
        while len(roots) < n:
            roots.append(rng.randint(-5, 5))
        p = monic_from_roots(roots[:n])
        m_rank = distinct_zero_count(p)
        m_gcd, _ = gcd_squarefree_oracle(p)
        assert m_rank == m_gcd
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
    res = split_defining_functions(_family_lambda2_minus_zeta2())
    assert res.r_max == 3
    assert len(res.functions) == 1
    h = res.functions[0]
    z = MultiPoly.variable(1, 0)
    assert h in ((z * z).scale(4), (z * z).scale(-4))


def test_split_defining_functions_non_splitting_family():
    # (lam - zeta)^2 = lam^2 - 2 zeta lam + zeta^2: m = 1 everywhere
    z = MultiPoly.variable(1, 0)
    one = MultiPoly.one(1)
    fam = UniPoly([z * z, z.scale(-2), one])
    res = split_defining_functions(fam)
    assert res.r_max == 2
    # common zero set must be empty: some minor is a nonzero constant
    assert any(h.is_constant() for h in res.functions)


def test_split_defining_functions_constant_distinct():
    # lam^2 - 1 as a (constant) 1-parameter family: empty splitting set
    one = MultiPoly.one(1)
    zero = MultiPoly.zero(1)
    fam = UniPoly([-one, zero, one])
    res = split_defining_functions(fam)
    assert res.r_max == 3
    assert all(h.is_constant() for h in res.functions)
    assert all(not h.constant_value().is_zero() for h in res.functions)


def test_split_zero_set_matches_distinct_count_drop():
    # sampled agreement between {all h = 0} and m < generic m
    res = split_defining_functions(_family_lambda2_minus_zeta2())
    rng = random.Random(5)
    pts = [[gr(0)]] + [[gr(rng.randint(-6, 6), rng.randint(-6, 6))] for _ in range(30)]
    for pt in pts:
        fam_at = UniPoly(
            [c.eval_exact(pt) for c in _family_lambda2_minus_zeta2().coeffs]
        )
        m = distinct_zero_count(fam_at)
        all_zero = all(h.eval_exact(pt).is_zero() for h in res.functions)
        assert all_zero == (m < 2)


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
    res = split_defining_functions(fam)
    h = res.functions[0]
    pts = [[0.3 + 0.1j], [2.0 + 0j], [-5.0 + 1j]]
    ratios = []
    for pt in pts:
        rep = check_coeff_bound([h], fam, [pt])
        ratios.append(rep.max_ratio)
    assert max(ratios) - min(ratios) < 1e-12


def _double_root_cubic():
    # (lam - z)^2 (lam - w): 25 nonzero order-4 split minors
    z, w = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    return UniPoly.from_roots([z, z, w], one=MultiPoly.one(2))


def _polydisk(seed, count, nparams):
    rng = random.Random(seed)
    return [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nparams)]
            for _ in range(count)]


def test_coeff_bound_evaluates_each_coefficient_once_per_point(monkeypatch):
    fam = _double_root_cubic()
    functions = split_defining_functions(fam).functions
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
    functions = split_defining_functions(fam).functions
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
    res = split_defining_functions(fam)
    pts = [
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))] for _ in range(2000)
    ]
    rep = check_coeff_bound(res.functions, fam, pts)
    assert rep.passed, rep.violations[:1]
