import cmath
import math
import random

import numpy as np
import pytest

from jordanscope.algebra import GaussianRational, MultiPoly, UniPoly
from jordanscope.family import MatrixFamily
from jordanscope.tracker import (
    BranchState,
    ContourError,
    cluster_values,
    contour_root,
    isolate,
    probe_stack,
    splitting_amounts,
    theta_extended,
    track_path,
)


def fam(entries, params):
    return MatrixFamily.from_entries(entries, params)


FAM_SHEAR = lambda: fam([["z", "1"], ["0", "-z"]], ["z"])  # eigenvalues +-z
FAM_SQRT = lambda: fam([["0", "1"], ["z", "0"]], ["z"])  # eigenvalues +-sqrt(z)


# ---------------------------------------------------------------------------
# clustering / isolate


def test_cluster_values_groups_transitively():
    vals = [0.0, 1e-9, 2e-9, 1.0]
    out = cluster_values(vals, tol=1.5e-9)
    assert [c for _, c in out] == [3, 1]


def test_isolate_single_cluster():
    p = UniPoly([0.0, 0.0, 1.0])  # lam^2
    st = isolate(p, [(0.0, 2)])
    assert st.radius == 1.0


def test_isolate_two_roots():
    p = UniPoly([-1.0, 0.0, 1.0])
    st = isolate(p, [(1.0, 1), (-1.0, 1)])
    assert st.radius == pytest.approx(0.5)


def test_isolate_min_distance():
    p = UniPoly.from_roots([0.0, 1.0, 1.0 + 1.0j], one=1.0)
    st = isolate(p, [(0.0, 1), (1.0, 1), (1.0 + 1.0j, 1)])
    assert st.radius == pytest.approx(0.25)


def test_branch_state_disjointness_enforced():
    with pytest.raises(ValueError):
        BranchState((0.0, 1.0), (1, 1), radius=0.5)  # 2*eps == distance


# ---------------------------------------------------------------------------
# contour_root


def test_contour_root_triple_root():
    p = UniPoly.from_roots([2.0, 2.0, 2.0], one=1.0)
    root = contour_root(p, center=2.0 + 0j, radius=1.0, multiplicity=3)
    assert abs(root - 2.0) < 1e-12


def test_contour_root_sqrt_branch():
    p = UniPoly([-1.0, 0.0, 1.0])  # lam^2 - zeta at zeta = 1
    root = contour_root(p, center=1.0 + 0j, radius=0.5, multiplicity=1)
    assert abs(root - 1.0) < 1e-12


def test_contour_root_negative_root():
    p = UniPoly([-1.0, 0.0, 1.0])
    root = contour_root(p, center=-1.0 + 0j, radius=0.5, multiplicity=1)
    assert abs(root + 1.0) < 1e-12


def test_contour_root_random_quadratics_and_cubics():
    rng = random.Random(55)
    for _ in range(100):
        deg = rng.choice([2, 3])
        roots = []
        while len(roots) < deg:
            cand = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(cand - r) > 0.4 for r in roots):
                roots.append(cand)
        p = UniPoly.from_roots(roots, one=1.0)
        sep = min(
            abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1 :]
        )
        for r in roots:
            got = contour_root(p, r, sep / 2, 1)
            assert abs(got - r) <= 1e-10


def test_contour_root_error_when_root_on_contour():
    p = UniPoly([-1.0, 0.0, 1.0])
    with pytest.raises(ContourError):
        # both roots sit exactly on the circle |z| = 1
        contour_root(p, center=0.0j, radius=1.0, multiplicity=2)


# ---------------------------------------------------------------------------
# track_path


def test_track_constant_family_no_events():
    f = fam([["1", "0"], ["0", "2"]], ["z"])
    res = track_path(f, [[0.0], [1.0]], steps=10)
    assert res.events == []
    for s in res.samples:
        assert sorted(x.real for x in s.branches) == pytest.approx([1.0, 2.0])


def test_track_sqrt_family_matches_closed_form():
    res = track_path(FAM_SQRT(), [[1.0], [4.0]], steps=100)
    assert res.events == []
    for s in res.samples:
        z = s.point[0]
        expect = {cmath.sqrt(z), -cmath.sqrt(z)}
        for b in s.branches:
            assert min(abs(b - e) for e in expect) < 1e-10


def test_track_through_split_brackets_event():
    res = track_path(FAM_SHEAR(), [[1.0], [-1.0]], steps=100)
    assert len(res.events) == 1
    (ta, tb) = res.events[0].t_bracket
    za = res.events[0].point_bracket[0][0]
    zb = res.events[0].point_bracket[1][0]
    assert abs(za) <= 1e-6 and abs(zb) <= 1e-6
    # branches match +-z away from the event
    for s in res.samples:
        z = s.point[0]
        if abs(z) > 1e-3:
            expect = {z, -z}
            for b in s.branches:
                assert min(abs(b - e) for e in expect) < 1e-10


def test_track_branch_values_satisfy_charpoly():
    res = track_path(FAM_SQRT(), [[1.0], [2.0 + 1.0j]], steps=50)
    f = FAM_SQRT()
    for s in res.samples:
        p = f.char_poly_at(s.point)
        for b in s.branches:
            assert abs(p.eval(b)) < 1e-8


# ---------------------------------------------------------------------------
# splitting_amounts


def test_splitting_amounts_sqrt_family_at_origin():
    sa = splitting_amounts(FAM_SQRT(), [0.0], probe_radius=1e-2)
    assert sa.amounts == (2,)
    assert abs(sa.eigenvalues[0]) < 1e-6


def test_splitting_amounts_shear_family_at_origin():
    sa = splitting_amounts(FAM_SHEAR(), [0.0], probe_radius=1e-2)
    assert sa.amounts == (2,)


def test_splitting_amounts_spectator_branch():
    # diag(5, [[0,1],[z,0]]): the eigenvalue 5 never splits (kappa = 1)
    f = fam(
        [["5", "0", "0"], ["0", "0", "1"], ["0", "z", "0"]],
        ["z"],
    )
    sa = splitting_amounts(f, [0.0], probe_radius=1e-2)
    by_eig = dict(zip([round(e.real) for e in sa.eigenvalues], sa.amounts))
    assert by_eig[5] == 1
    assert by_eig[0] == 2


def test_splitting_amounts_radius_stability():
    for radius in (1e-2, 5e-3):
        sa = splitting_amounts(FAM_SQRT(), [0.0], probe_radius=radius)
        assert sa.amounts == (2,)


# ---------------------------------------------------------------------------
# theta_extended


def test_theta_extended_at_split_point_is_power_product():
    f = FAM_SQRT()
    theta0 = theta_extended(f, [0.0])
    assert np.linalg.norm(theta0) < 1e-12  # A(0)^2 = 0


def test_theta_extended_continuity_near_split():
    f = FAM_SQRT()
    theta0 = theta_extended(f, [0.0])
    for k in range(8):
        z = 1e-4 * cmath.exp(2j * math.pi * k / 8)
        theta = theta_extended(f, [z])
        assert np.linalg.norm(theta - theta0) <= 1e-8


def test_theta_extended_off_split_equals_product():
    from jordanscope.jordan import theta_product
    from jordanscope.tracker import distinct_eigenvalues

    f = FAM_SHEAR()
    a = f.at([2.0])
    clusters = distinct_eigenvalues(a)
    direct = theta_product(a, [lam for lam, _ in clusters])
    ext = theta_extended(f, [2.0])
    assert np.linalg.norm(direct - ext) < 1e-10


def test_is_split_point_sample():
    split = probe_stack(FAM_SHEAR(), [0.0], probe_radius=1e-2)
    assert split.eigen_split()
    assert len(split.points) == 17 and split.matrices.shape == (17, 2, 2)
    assert not probe_stack(FAM_SHEAR(), [1.0], probe_radius=1e-2).eigen_split()
