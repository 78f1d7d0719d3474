import cmath
import math
import random
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jordanscope.algebra import UniPoly
from jordanscope.algebra.matrices import as_matrix
from jordanscope.algebra.multipoly import complex_product
from jordanscope.algebra.unipoly import derivative
from jordanscope import tracker
from jordanscope.family import MatrixFamily
from jordanscope.ranklab import NonFiniteError, ScaleBounds
from jordanscope.tracker import (
    MAX_QUADRATURE_NODES,
    ROUCHE_BOUNDARY_SAMPLES,
    BranchState,
    ContourError,
    ProbeDisagreementError,
    _horners,
    _quotient,
    _rouche_values,
    cluster_stack,
    contour_root,
    contour_roots,
    extended_theta_factors,
    isolate,
    probe_stacks,
    splitting_amounts,
    theta_stack,
    track_path,
)

from test_algebra import poly_from_roots


def fam(entries, params):
    return MatrixFamily.from_entries(entries, params)


FAM_SHEAR = lambda: fam([["z", "1"], ["0", "-z"]], ["z"])  # eigenvalues +-z
FAM_SQRT = lambda: fam([["0", "1"], ["z", "0"]], ["z"])  # eigenvalues +-sqrt(z)


# ---------------------------------------------------------------------------
# clustering / isolate


def test_cluster_values_groups_transitively():
    # the tolerance 1e3 * rel_tol * (1 + ||A||) is 1.5e-9 for the norm 0
    vals = np.array([[0.0, 1e-9, 2e-9, 1.0]])
    zero_norm = ScaleBounds(np.zeros(1), np.zeros(1), lambda i: 0.0)
    out = cluster_stack(vals, zero_norm, rel_tol=1.5e-12)[0]
    assert [c for _, c in out] == [3, 1]


def test_isolate_single_cluster():
    st = isolate([(0.0, 2)])
    assert st.radius == 1.0


def test_isolate_two_roots():
    st = isolate([(1.0, 1), (-1.0, 1)])
    assert st.radius == pytest.approx(0.5)


def test_isolate_min_distance():
    st = isolate([(0.0, 1), (1.0, 1), (1.0 + 1.0j, 1)])
    assert st.radius == pytest.approx(0.25)


def test_branch_state_disjointness_enforced():
    with pytest.raises(ValueError):
        BranchState((0.0, 1.0), (1, 1), radius=0.5)  # 2*eps == distance


# ---------------------------------------------------------------------------
# contour_root


def test_contour_root_triple_root():
    p = poly_from_roots([2.0, 2.0, 2.0], 1.0)
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
        p = poly_from_roots(roots, 1.0)
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
# the stacked kernel against the scalar loops it replaced
#
# The two oracles are the node-by-node Python loops of contour_root and
# _rouche_ok as they were before quadrature was stacked. The stacked
# kernel must reproduce their values bit for bit: the same roots (==) and
# the same verdicts. Where a loop raises, the stacked kernel raises one of
# its own errors: ContourError, NonFiniteError or ValueError.


def oracle_contour_root(p, center, radius, multiplicity, nodes=32):
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    dp = derivative(p)

    def value(q):
        acc = 0j
        for k in range(q):
            z = center + radius * cmath.exp(2j * math.pi * k / q)
            pz = p.eval(z)
            if abs(pz) < 1e-300:
                raise ContourError("|p| vanishes on the contour")
            acc += z * dp.eval(z) / pz * (z - center)
        return acc / (q * multiplicity)

    q = max(8, nodes)
    prev = value(q)
    while q <= MAX_QUADRATURE_NODES:
        q *= 2
        cur = value(q)
        if abs(cur - prev) < 1e-12 * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise ContourError(
        f"no convergence with {MAX_QUADRATURE_NODES} nodes; "
        "a root is probably near the contour"
    )


def oracle_rouche_ok(p_old, p_new, state):
    """The loop's verdict, from Python's abs at every node: NonFiniteError
    where |p_old| raises or is not finite at some node; else whether
    |p_new - p_old| < |p_old| at all nodes, which fails where the change
    is inf, NaN or raises."""
    pairs = []
    for center in state.centers:
        for k in range(ROUCHE_BOUNDARY_SAMPLES):
            z = center + state.radius * cmath.exp(
                2j * math.pi * k / ROUCHE_BOUNDARY_SAMPLES
            )
            try:
                size = abs(p_old.eval(z))
            except OverflowError:
                raise NonFiniteError() from None
            if not math.isfinite(size):
                raise NonFiniteError()
            try:
                pairs.append((abs(p_new.eval(z) - p_old.eval(z)), size))
            except OverflowError:
                pairs.append((math.inf, size))
    return all(change < size for change, size in pairs)


def same_roots(stacked, loop):
    """The stacked kernel against the node loop: the loop's roots (==)
    where it returns, one of the stacked kernel's errors where it raises."""
    try:
        want = loop()
    except (ContourError, ValueError, ArithmeticError):
        with pytest.raises((ContourError, NonFiniteError, ValueError)):
            stacked()
    else:
        assert stacked() == want


PARTS = st.floats(-10, 10)
COMPLEX = st.builds(complex, PARTS, PARTS)
LEADING = COMPLEX.filter(lambda c: abs(c) >= 0.1)


@st.composite
def polynomials(draw):
    """Degree 1-8, complex coefficients: drawn directly, or from roots so
    that circles can be put through a root."""
    degree = draw(st.integers(1, 8))
    if draw(st.booleans()):
        coeffs = draw(st.lists(COMPLEX, min_size=degree, max_size=degree))
        return UniPoly(coeffs + [draw(LEADING)]), []
    roots = draw(st.lists(COMPLEX, min_size=degree, max_size=degree))
    return poly_from_roots(roots, 1.0) * UniPoly([draw(LEADING)]), roots


@st.composite
def circles(draw, roots):
    """1-6 centers and a radius; some circles pass through a root."""
    radius = draw(st.floats(1e-3, 3.0))
    centers = []
    for _ in range(draw(st.integers(1, 6))):
        if roots and draw(st.integers(0, 3)) == 0:
            angle = draw(st.floats(0, 2 * math.pi))
            centers.append(draw(st.sampled_from(roots)) - radius * cmath.exp(1j * angle))
        else:
            centers.append(draw(COMPLEX))
    multiplicities = draw(
        st.lists(st.integers(1, 3), min_size=len(centers), max_size=len(centers)))
    return centers, radius, multiplicities


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contour_roots_bit_identical_to_scalar_loop(data):
    p, roots = data.draw(polynomials())
    centers, radius, mults = data.draw(circles(roots))
    same_roots(lambda: contour_roots(p, centers, radius, mults), lambda: tuple(
        oracle_contour_root(p, c, radius, k) for c, k in zip(centers, mults)))
    same_roots(lambda: contour_root(p, centers[0], radius, mults[0]),
               lambda: oracle_contour_root(p, centers[0], radius, mults[0]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rouche_verdicts_equal_scalar_loop(data):
    p_old, _ = data.draw(polynomials())
    scale = 10.0 ** data.draw(st.integers(-8, 1))
    change = data.draw(st.lists(COMPLEX, min_size=len(p_old.coeffs),
                                max_size=len(p_old.coeffs)))
    p_new = UniPoly([a + scale * b for a, b in zip(p_old.coeffs, change)])
    centers = data.draw(st.lists(COMPLEX, min_size=1, max_size=6, unique=True))
    dmin = min((abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1:]),
               default=6.0)
    assume(dmin > 1e-6)
    radius = dmin / 2 * data.draw(st.floats(0.01, 0.99))
    state = BranchState(tuple(centers), (1,) * len(centers), radius)
    try:
        want = oracle_rouche_ok(p_old, p_new, state)
    except NonFiniteError:
        with pytest.raises(NonFiniteError):
            _rouche_values(p_old, p_new, state)
        return
    known = _rouche_values(p_old, p_new, state)
    assert (known is not None) == want
    if known is not None:
        # the boundary values serve the first quadrature levels
        mults = (1,) * len(centers)
        same_roots(lambda: contour_roots(p_new, centers, radius, mults, known=known),
                   lambda: tuple(oracle_contour_root(p_new, c, radius, 1) for c in centers))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(COMPLEX, COMPLEX), min_size=1, max_size=50),
       st.integers(-300, 300))
def test_written_out_arithmetic_equals_python(pairs, exponent):
    a = [x for x, _ in pairs]
    b = [y * 10.0**exponent for _, y in pairs]
    assume(all(y != 0 for y in b))
    ar, ai = np.array([x.real for x in a]), np.array([x.imag for x in a])
    br, bi = np.array([y.real for y in b]), np.array([y.imag for y in b])
    with np.errstate(all="ignore"):
        prod = complex_product(ar, ai, br, bi)
        quot = _quotient(ar, ai, br, bi)
        size = np.hypot(br, bi)  # the moduli of the contour checks
    for k, (x, y) in enumerate(zip(a, b)):
        assert complex(prod[0][k], prod[1][k]) == x * y
        assert complex(quot[0][k], quot[1][k]) == x / y
        try:
            want = abs(y)
        except OverflowError:  # where the contour checks raise NonFiniteError
            assert np.isinf(size[k])
        else:
            assert size[k] == want


def test_horner_equals_unipoly_eval():
    rng = random.Random(3)
    for degree in range(0, 9):
        p = UniPoly([complex(rng.gauss(0, 3), rng.gauss(0, 3))
                     for _ in range(degree + 1)])
        zs = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(40)]
        zr = np.array([z.real for z in zs])
        zi = np.array([z.imag for z in zs])
        re, im = _horners([[complex(c) for c in p.coeffs]], zr, zi)[0]
        assert [complex(r, i) for r, i in zip(re, im)] == [p.eval(z) for z in zs]


def scalar_horner(coeffs, z):
    """Horner's rule in Python complex arithmetic, from the leading
    coefficient; the empty list is the zero polynomial, 0 * z."""
    if not coeffs:
        return 0 * z
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


SIGNED_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4, 4))
SIGNED = st.builds(complex, SIGNED_PARTS, SIGNED_PARTS)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(SIGNED, max_size=6), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(1, 4), st.data())
def test_stacked_horner_rows_equal_their_own_horner(coeff_lists, m, q, data):
    # lists of unequal length, the empty list, -0.0 parts and nodes at +-0:
    # every row keeps the bits of its own Horner loop, the sign of zero too
    zs = data.draw(st.lists(SIGNED, min_size=m * q, max_size=m * q))
    zr = np.array([z.real for z in zs]).reshape(m, q)
    zi = np.array([z.imag for z in zs]).reshape(m, q)
    for coeffs, (re, im) in zip(coeff_lists, _horners(coeff_lists, zr, zi)):
        alone = _horners([coeffs], zr, zi)[0]
        assert re.tobytes() == alone[0].tobytes() and im.tobytes() == alone[1].tobytes()
        want = [scalar_horner(coeffs, z) for z in zs]
        assert np.array_equal(np.signbit(re).ravel(), [np.signbit(w.real) for w in want])
        assert np.array_equal(np.signbit(im).ravel(), [np.signbit(w.imag) for w in want])
        assert [complex(r, i) for r, i in zip(re.ravel(), im.ravel())] == want


# x^2 - 100 vanishes exactly at the first node z = 10 of the circle around 9;
# its root -10 lies 1e-9 inside the circle around -9 + 1e-9, where the
# quadrature cannot converge
P_EXACT_ZERO = UniPoly([-100.0, 0.0, 1.0])
VANISHES = 9.0 + 0j
NO_CONVERGENCE = -9.0 + 1e-9 + 0j


def counting(monkeypatch, *names):
    """How often each named function of ``tracker`` is called from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(tracker, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(tracker, name, counted)
    return calls


def test_a_multiplicity_below_1_is_refused_before_any_evaluation(monkeypatch):
    # neither the first circle, which fails at its first node, nor the
    # integrand pass of known values is reached
    p_new, state = UniPoly([-1.001, 0.0, 1.0]), BranchState((-1 + 0j, 1 + 0j), (1, 1), 0.5)
    known = _rouche_values(UniPoly([-1.0, 0.0, 1.0]), p_new, state)
    assert known is not None
    calls = counting(monkeypatch, "_horners", "_terms")
    with pytest.raises(ValueError, match="multiplicity must be >= 1"):
        contour_roots(P_EXACT_ZERO, [VANISHES, 0j], 1.0, [1, 0])
    with pytest.raises(ValueError, match="multiplicity must be >= 1"):
        contour_roots(p_new, state.centers, state.radius, [1, 0], known=known)
    assert calls == {"_horners": 0, "_terms": 0}


def test_a_vanishing_p_raises_at_the_first_level(monkeypatch):
    calls = counting(monkeypatch, "_horners")
    with pytest.raises(ContourError, match=re.escape("|p| vanishes on the contour")):
        contour_roots(P_EXACT_ZERO, [NO_CONVERGENCE, VANISHES], 1.0, [1, 1])
    assert calls == {"_horners": 1}


def test_a_contour_beyond_float64_raises_at_the_first_level(monkeypatch):
    # z^2 + 1 is inf on the circle of radius 1 about 1e200; from a cold node
    # table, which the first level fills to its 32 nodes and no further
    monkeypatch.setattr(tracker, "_UNIT_NODES", np.ones(1, dtype=complex))
    calls = counting(monkeypatch, "_horners")
    with pytest.raises(NonFiniteError, match="beyond float64 on a contour"):
        contour_roots(UniPoly([1.0, 0.0, 1.0]), [1e200 + 0j, 0j], 1.0, [1, 1])
    assert calls == {"_horners": 1}
    assert len(tracker._UNIT_NODES) == tracker.FIRST_QUADRATURE_NODES


def test_a_change_beyond_float64_fails_the_dominance_check():
    # |p_old| = 1 on the circle of radius 1 about 1e200, where p_new = z^2
    # is inf: the trial step was too long, not a value beyond float64
    state = BranchState((1e200 + 0j,), (1,), 1.0)
    assert _rouche_values(UniPoly([-1e200, 1.0]), UniPoly([0.0, 0.0, 1.0]), state) is None


def test_the_dominance_check_refuses_a_nan_old_value():
    # p_old = NaN * z + 1 is NaN at every node, where no comparison holds
    state = BranchState((0j,), (1,), 0.5)
    p_old = ([1 + 0j, complex(math.nan, 0.0)], [complex(math.nan, 0.0)])
    with pytest.raises(NonFiniteError):
        _rouche_values(p_old, UniPoly([1.0, 1.0]), state)


def test_unit_nodes_sliced_from_a_finer_level_keep_the_bits_of_cmath_exp():
    q_max = 2 * MAX_QUADRATURE_NODES  # the finest level a contour reaches
    tracker._unit_nodes(q_max, 0, 1)
    for q, start, stop in [(32, 0, 32), (64, 0, 64), (2048, 1024, 2048), (q_max, 0, q_max)]:
        re, im = tracker._unit_nodes(q, start, stop)
        got = [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]
        assert repr(got) == repr([cmath.exp(2j * math.pi * k / q) for k in range(start, stop)])


def test_non_converging_contour_memory_is_bounded(monkeypatch):
    # from a cold node table, so the peak counts the table that the
    # contour builds, whatever ran before
    monkeypatch.setattr(tracker, "_UNIT_NODES", np.ones(1, dtype=complex))
    tracemalloc.start()
    try:
        with pytest.raises(ContourError, match="no convergence"):
            contour_root(P_EXACT_ZERO, NO_CONVERGENCE, 1.0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_track_evaluates_each_visited_point_once(monkeypatch):
    # Near the collision, rejected trial points are tried again from later
    # t, and a re-seed may land on one; each point is still evaluated once,
    # whether alone or in the stacked evaluation of the step grid.
    stacks = []
    char_poly_at_many = MatrixFamily.char_poly_at_many

    def counted_many(self, points):
        stacks.append([tuple(point) for point in points])
        return char_poly_at_many(self, points)

    def counted_one(self, point):
        stacks.append([tuple(point)])
        return char_poly_at_many(self, [point])[0]

    monkeypatch.setattr(MatrixFamily, "char_poly_at_many", counted_many)
    monkeypatch.setattr(MatrixFamily, "char_poly_at", counted_one)
    res = track_path(FAM_SHEAR(), [[1.0], [-1.0]], steps=100)
    assert len(res.events) == 1  # one re-seed past the collision
    points = [point for stack in stacks for point in stack]
    assert max(len(stack) for stack in stacks) == 100  # the step grid
    assert len(points) > 100
    assert len(points) == len(set(points))
    # with every step accepted, the seed and the grid are all there is
    stacks.clear()
    assert track_path(FAM_SQRT(), [[1.0], [4.0]], steps=100).events == []
    assert [len(stack) for stack in stacks] == [1, 100]


@pytest.mark.parametrize("family, path", [
    (FAM_SHEAR, [[1.0], [-1.0]]),  # one split event, rejected steps
    (FAM_SQRT, [[1.0], [4.0]]),
], ids=["shear", "sqrt"])
def test_track_without_the_stacked_grid_gives_the_same_result(monkeypatch, family, path):
    want = track_path(family(), path, steps=100)
    refused = []
    char_poly_at_many = MatrixFamily.char_poly_at_many

    def overflowing(self, points):
        # a stack raises as a power beyond float64 would; single points pass
        if len(points) > 1:
            refused.append(len(points))
            raise NonFiniteError()
        return char_poly_at_many(self, points)

    monkeypatch.setattr(MatrixFamily, "char_poly_at_many", overflowing)
    assert track_path(family(), path, steps=100) == want
    assert refused == [100]


class CountingAdd:
    """np.add, counting its accumulate calls."""

    accumulates = 0

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def accumulate(self, *args, **kwargs):
        self.accumulates += 1
        return np.add.accumulate(*args, **kwargs)


def test_known_levels_share_one_integrand_pass(monkeypatch):
    # both roots converge at 64 nodes: p_new, p_old and p_new' come from one
    # stacked Horner pass, the 32- and 64-node levels are summed from one
    # integrand array by one accumulate, and p' is never rebuilt
    p_old = UniPoly([-1.0, 0.0, 1.0])
    p_new = UniPoly([-1.0 - 1e-3, 0.0, 1.0])
    state = BranchState((-1.0 + 0j, 1.0 + 0j), (1, 1), 0.5)
    calls = counting(monkeypatch, "_horners", "_quotient", "derivative")
    known = _rouche_values(p_old, p_new, state)
    assert known is not None
    assert calls["_horners"] == 1
    calls.update(dict.fromkeys(calls, 0))
    counting_np = types.ModuleType("numpy")
    counting_np.__dict__.update(np.__dict__, add=CountingAdd())
    monkeypatch.setattr(tracker, "np", counting_np)
    roots = contour_roots(p_new, state.centers, state.radius, (1, 1), known=known)
    assert roots == tuple(oracle_contour_root(p_new, c, state.radius, 1) for c in state.centers)
    assert calls == {"_horners": 0, "_quotient": 1, "derivative": 0}
    assert counting_np.add.accumulates == 1


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


def test_splitting_amounts_probe_ring_outside_the_disks():
    # the probes' eigenvalues +-10 e^(i t) and +-5 e^(i t) lie outside the
    # isolation disk of the double eigenvalue 0 on both rings
    with pytest.raises(ProbeDisagreementError, match="probe ring disagrees"):
        splitting_amounts(FAM_SHEAR(), (0.0,), probe_radius=10)


# ---------------------------------------------------------------------------
# theta_extended: the product with each factor to its splitting amount


def theta_product(phi, eigenvalues):
    """The product of (lam - Phi) over ``eigenvalues`` in the ring of Phi's
    entries: a theta_stack of one."""
    return theta_stack(as_matrix(phi)[None], [[(lam, 1) for lam in eigenvalues]])[0][0]


def extended_theta(family, point, probe_radius=1e-2):
    """The nilpotent product at ``point``, each factor raised to its
    splitting amount there."""
    factors = extended_theta_factors(family, point, probe_radius=probe_radius)
    return theta_stack(family.at(point)[None], [factors])[0][0]


def test_theta_extended_at_split_point_is_power_product():
    f = FAM_SQRT()
    theta0 = extended_theta(f, [0.0])
    assert np.linalg.norm(theta0) < 1e-12  # A(0)^2 = 0


def test_theta_extended_continuity_near_split():
    f = FAM_SQRT()
    theta0 = extended_theta(f, [0.0])
    for k in range(8):
        z = 1e-4 * cmath.exp(2j * math.pi * k / 8)
        theta = extended_theta(f, [z])
        assert np.linalg.norm(theta - theta0) <= 1e-8


def test_theta_extended_off_split_equals_product():
    from jordanscope.tracker import distinct_eigenvalues

    f = FAM_SHEAR()
    a = f.at([2.0])
    clusters = distinct_eigenvalues(a)
    direct = theta_product(a, [lam for lam, _ in clusters])
    ext = extended_theta(f, [2.0])
    assert np.linalg.norm(direct - ext) < 1e-10


def test_is_split_point_sample():
    split = probe_stacks(FAM_SHEAR(), [[0.0]], probe_radius=1e-2)[0]
    assert split.eigen_split()
    assert len(split.points) == 17 and split.matrices.shape == (17, 2, 2)
    assert not probe_stacks(FAM_SHEAR(), [[1.0]], probe_radius=1e-2)[0].eigen_split()


def per_probe(point, radius):
    """The probe ring of radius ``radius`` around ``point``, each probe
    computed alone: c + (radius * exp(2 pi i k / 8)) * u_j."""
    point = tuple(complex(c) for c in point)
    raw = [cmath.exp(1j * (0.7548776662 * (k + 1) + 0.3)) for k in range(len(point))]
    norm = math.sqrt(sum(abs(x) ** 2 for x in raw))
    u = [x / norm for x in raw]
    return [tuple(c + radius * cmath.exp(2j * math.pi * k / 8) * d
                  for c, d in zip(point, u)) for k in range(8)]


def test_probe_ring_keeps_the_bits_of_the_per_probe_formula():
    """The unit nodes and the direction, computed once, give each probe
    of both rings the bits of the per-probe formula, signed zeros too."""
    for point, radius in [((0.0,), 0.25), ((-0.0, 1.5), 1e-6), ((0.3, -0.7, 2.0), 10.0),
                          ((-1.0, -0.5), 0.05 / 2)]:
        names = [f"z{j}" for j in range(len(point))]
        points = probe_stacks(fam([["+".join(names)]], names), [point], radius)[0].points
        rings = [tuple(p) for p in points[1:].tolist()]
        assert repr(rings) == repr(per_probe(point, radius) + per_probe(point, radius / 2))
