import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope import jordan, ranklab, tracker
from jordanscope.algebra import GaussianRational
from jordanscope.algebra.matrices import as_matrix, char_poly, identity_like
from jordanscope.algebra.unipoly import square_free_part
from jordanscope.corpus import builtin_cases
from jordanscope.family import MatrixFamily
from jordanscope.jordan import (
    CensusInconsistencyError,
    jordan_census,
    jordan_censuses,
    local_jordan_transform,
    theta_from_squarefree,
    verify_rank_identities,
)
from jordanscope.ranklab import NonFiniteError, exact_rank, power_ranks
from jordanscope.scanner import PointKind, classify_points
from jordanscope.sylv import distinct_zero_count

from test_tracker import theta_product

GR = GaussianRational


def mat_mul(a, b):
    return as_matrix(a) @ as_matrix(b)


def gr(a, b=0):
    return GR(Fraction(a), Fraction(b))


# ---------------------------------------------------------------------------
# construction helpers (the oracle: build T J T^-1 with known J)


def jordan_block_exact(lam, size):
    rows = [[gr(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = lam if isinstance(lam, GR) else gr(lam)
        if i + 1 < size:
            rows[i][i + 1] = gr(1)
    return rows


def block_diag_exact(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[gr(0)] * n for _ in range(n)]
    pos = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                rows[pos + i][pos + j] = b[i][j]
        pos += k
    return rows


def random_unimodular(rng, n, shears=6, magnitude=2):
    t = [[gr(1) if i == j else gr(0) for j in range(n)] for i in range(n)]
    tinv = [[gr(1) if i == j else gr(0) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = gr(rng.randint(-magnitude, magnitude))
        shear = [[gr(1) if p == q else gr(0) for q in range(n)] for p in range(n)]
        shear[i][j] = c
        unshear = [[gr(1) if p == q else gr(0) for q in range(n)] for p in range(n)]
        unshear[i][j] = -c
        t = mat_mul(t, shear)
        tinv = mat_mul(unshear, tinv)
    return t, tinv


def random_jordan_structure(rng, n_max=6):
    """Random eigenvalues with random block partitions; returns
    (matrix J, [(lam, mult)], {(lam, size): count})."""
    n = rng.randint(2, n_max)
    n_eigs = rng.randint(1, min(3, n))
    values = rng.sample(range(-4, 5), n_eigs)
    # distribute n among eigenvalues
    cuts = sorted(rng.sample(range(1, n), n_eigs - 1)) if n_eigs > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    blocks = []
    pairs = []
    multiset = {}
    for lam, total in zip(values, sizes):
        pairs.append((gr(lam), total))
        left = total
        while left:
            size = rng.randint(1, left)
            blocks.append(jordan_block_exact(lam, size))
            multiset[(lam, size)] = multiset.get((lam, size), 0) + 1
            left -= size
    rng.shuffle(blocks)
    return block_diag_exact(blocks), pairs, multiset


# ---------------------------------------------------------------------------
# the nilpotent product over distinct eigenvalues (a theta_stack of one)


def test_theta_identity_matrix():
    theta = theta_product([[gr(1), gr(0)], [gr(0), gr(1)]], [gr(1)])
    assert all(x.is_zero() for row in theta for x in row)


def test_theta_shifted_block():
    # diag(J2(0), 1): Theta = (0 - Phi)(1 - Phi) has rank 1
    phi = block_diag_exact([jordan_block_exact(0, 2), jordan_block_exact(1, 1)])
    theta = theta_product(phi, [gr(0), gr(1)])
    from jordanscope.ranklab import exact_rank

    assert exact_rank(theta) == 1


def test_theta_companion_at_nonzero_parameter():
    # [[0,1],[z,0]] at z=4: Theta = (2-A)(-2-A) = A^2 - 4 I = 0
    phi = [[gr(0), gr(1)], [gr(4), gr(0)]]
    theta = theta_product(phi, [gr(2), gr(-2)])
    assert all(x.is_zero() for row in theta for x in row)


def theta_by_loop(phi, eigenvalues):
    """Theta as eye @ (lam_1 - Phi) @ ... @ (lam_m - Phi), one 2-d
    product at a time in the ring of Phi."""
    phi = as_matrix(phi)
    eye = identity_like(phi)
    theta = eye
    for lam in eigenvalues:
        if phi.dtype != object:
            lam = complex(lam)
        theta = theta @ (lam * eye - phi)
    return theta


def test_theta_product_has_the_bits_of_the_factor_loop():
    rng = np.random.default_rng(15)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        phi = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lams = [lam for lam, _ in tracker.distinct_eigenvalues(phi)]
        got, want = theta_product(phi, lams), theta_by_loop(phi, lams)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    pyrng = random.Random(16)
    for _ in range(20):
        j, pairs, _ = random_jordan_structure(pyrng, n_max=6)
        t, tinv = random_unimodular(pyrng, len(j))
        phi = mat_mul(t, mat_mul(j, tinv)) + gr(0, 1) * as_matrix(j)
        lams = [lam for lam, _ in pairs] + [gr(1, -2)]
        assert theta_product(phi, lams).tolist() == theta_by_loop(phi, lams).tolist()


def test_theta_cross_check_squarefree_route():
    rng = random.Random(77)
    for _ in range(20):
        j, pairs, _ = random_jordan_structure(rng, n_max=5)
        t, tinv = random_unimodular(rng, len(j))
        phi = mat_mul(t, mat_mul(j, tinv))
        direct = theta_product(phi, [lam for lam, _ in pairs])
        via_gcd = theta_from_squarefree(phi, square_free_part(char_poly(phi)))
        assert direct.tolist() == via_gcd.tolist()


# ---------------------------------------------------------------------------
# rank profiles


def profile_at(phi, lam):
    """The rank profile of Phi at lam, from the profile code of the census."""
    return jordan._rank_profiles(as_matrix(phi)[None], [[lam]], ranklab.DEFAULT_REL_TOL)[0][0]


def test_rank_profile_nilpotent_block():
    phi = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    prof = profile_at(phi, 0.0)
    assert prof.ranks == (3, 2, 1, 0, 0)


def test_rank_profile_mixed_blocks():
    phi = block_diag_exact([jordan_block_exact(0, 2), jordan_block_exact(0, 1)])
    prof = profile_at(phi, gr(0))
    assert prof.ranks == (3, 1, 0, 0, 0)


def test_rank_profile_identity():
    prof = profile_at(np.eye(4, dtype=complex), 1.0)
    assert prof.ranks == (4, 0, 0, 0, 0, 0)


def test_rank_profile_non_eigenvalue_is_degenerate():
    prof = profile_at(np.eye(3, dtype=complex), 5.0)
    assert prof.ranks == (3, 3, 3, 3, 3)


def test_rank_profiles_are_convex():
    def is_convex(r):
        return all(r[k - 1] + r[k + 1] >= 2 * r[k] for k in range(1, len(r) - 1))

    rng = random.Random(31)
    for _ in range(10):
        j, pairs, _ = random_jordan_structure(rng)
        t, tinv = random_unimodular(rng, len(j))
        phi = mat_mul(t, mat_mul(j, tinv))
        for lam, _ in pairs:
            assert is_convex(profile_at(phi, lam).ranks)


def early_stop_profile(phi, lam):
    """Oracle: rank (lam - Phi)^k by Bareiss, one power at a time, and no
    power formed once two consecutive ranks agree."""
    phi = as_matrix(phi)
    n = len(phi)
    power = identity_like(phi)
    base = lam * power - phi
    ranks = [n]
    for _ in range(n + 1):
        if len(ranks) >= 2 and ranks[-1] == ranks[-2]:
            ranks.append(ranks[-1])
            continue
        power = power @ base
        ranks.append(exact_rank(power))
    return tuple(ranks)


GAUSSIAN_INT = st.builds(gr, st.integers(-3, 3), st.integers(-3, 3))
SMALL_EIGENVALUES = st.sampled_from([gr(0), gr(1), gr(-1), gr(0, 1), gr(2, -1)])


@st.composite
def profile_cases(draw):
    """(Phi, eigenvalue candidates): a Gaussian-integer matrix with n <= 5,
    either plain, or T J T^-1 for a Jordan matrix J whose blocks may share
    eigenvalues and a product T of integer shears."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        phi = draw(st.lists(st.lists(GAUSSIAN_INT, min_size=n, max_size=n),
                            min_size=n, max_size=n))
        return phi, [gr(0), phi[0][0], draw(GAUSSIAN_INT)]
    blocks = []
    while sum(size for _, size in blocks) < n:
        left = n - sum(size for _, size in blocks)
        blocks.append((draw(SMALL_EIGENVALUES), draw(st.integers(1, left))))
    j = block_diag_exact([jordan_block_exact(lam, size) for lam, size in blocks])
    t = as_matrix([[int(r == c) for c in range(n)] for r in range(n)])
    tinv = t.copy()
    shears = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), GAUSSIAN_INT)
    for row, col, c in draw(st.lists(shears, max_size=6)):
        if row != col:
            t[:, col] += c * t[:, row]
            tinv[row, :] -= c * tinv[col, :]
    lams = sorted({lam for lam, _ in blocks}, key=lambda z: (z.re, z.im))
    return t @ as_matrix(j) @ tinv, lams + [draw(SMALL_EIGENVALUES)]


@settings(max_examples=60, deadline=None)
@given(profile_cases())
def test_exact_profiles_and_power_ranks_against_power_by_power(case):
    phi, lams = case
    phi = as_matrix(phi)
    n = len(phi)
    for lam in lams:
        assert profile_at(phi, lam).ranks == early_stop_profile(phi, lam)
    bases = np.array([lam * identity_like(phi) - phi for lam in lams])
    got = power_ranks(bases, n + 1, None, lambda ranks: False)
    for base, row in zip(bases, got):
        assert len(row) == n + 2 and row[0] == n
        power = base
        for k in range(1, n + 2):
            assert row[k] == exact_rank(power)
            power = power @ base


# ---------------------------------------------------------------------------
# jordan_census


def test_census_single_block():
    phi = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    census = jordan_census(phi, [(0.0, 3)])
    assert census.blocks == ({3: 1},)


def test_census_two_blocks():
    phi = block_diag_exact([jordan_block_exact(0, 2), jordan_block_exact(0, 1)])
    census = jordan_census(phi, [(gr(0), 3)])
    assert census.blocks == ({1: 1, 2: 1},)
    assert census.aggregate == {1: 1, 2: 1}


def test_census_recovers_construction_exactly():
    rng = random.Random(424242)
    for _ in range(60):
        j, pairs, multiset = random_jordan_structure(rng)
        t, tinv = random_unimodular(rng, len(j))
        phi = mat_mul(t, mat_mul(j, tinv))
        census = jordan_census(phi, pairs)
        got = {}
        for lam, sizes in zip(census.eigenvalues, census.blocks):
            for size, count in sizes.items():
                got[(int(lam.re), size)] = count
        assert got == multiset


def test_census_similarity_invariance():
    rng = random.Random(9)
    for _ in range(10):
        j, pairs, _ = random_jordan_structure(rng, n_max=5)
        t, tinv = random_unimodular(rng, len(j))
        phi = mat_mul(t, mat_mul(j, tinv))
        c1 = jordan_census(phi, pairs)
        c2 = jordan_census(j, pairs)
        assert c1.blocks == c2.blocks


def sympy_similar_to_jordan(rng, n_max=4):
    """P J P^-1 over the Gaussian integers: J has random blocks at
    Gaussian-integer eigenvalues, and P, a permutation times a unit upper
    triangular matrix times one lower shear, has determinant +-1."""
    n = rng.randint(2, n_max)
    grid = [a + b * sympy.I for a in range(-2, 3) for b in range(-2, 3)]
    values = rng.sample(grid, rng.randint(1, min(3, n)))
    blocks, left = [], n
    while left:
        size = rng.randint(1, left)
        blocks.append(sympy.Matrix.jordan_block(size, rng.choice(values)))
        left -= size
    j = sympy.diag(*blocks)

    def gaussian():
        return rng.randint(-1, 1) + rng.randint(-1, 1) * sympy.I

    upper = sympy.Matrix(n, n, lambda r, c: 1 if r == c else gaussian() if r < c else 0)
    shear = sympy.eye(n)
    row = rng.randrange(1, n)
    shear[row, rng.randrange(row)] = gaussian()
    p = sympy.eye(n).permute(rng.sample(range(n), n)) * upper * shear
    return (p * j * p.inv()).expand()


def sympy_gr(x):
    re, im = x.as_real_imag()
    return gr(int(re), int(im))


def sympy_block_sizes(a):
    """{eigenvalue: {block size: count}} read off sympy's Jordan form."""
    j = a.jordan_form(calc_transform=False)
    sizes, i = {}, 0
    while i < a.rows:
        size = 1
        while i + size < a.rows and j[i + size - 1, i + size] == 1:
            size += 1
        counts = sizes.setdefault(sympy_gr(j[i, i]), {})
        counts[size] = counts.get(size, 0) + 1
        i += size
    return sizes


def test_census_matches_sympy_jordan_form():
    rng = random.Random(31)
    for _ in range(20):
        a = sympy_similar_to_jordan(rng)
        exact = [[sympy_gr(x) for x in a.row(r)] for r in range(a.rows)]
        pairs = [(sympy_gr(lam), m) for lam, m in a.eigenvals().items()]
        census = jordan_census(exact, pairs)
        assert dict(zip(census.eigenvalues, census.blocks)) == sympy_block_sizes(a)


def test_census_floating_autodetects_eigenvalues():
    phi = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    census = jordan_census(phi)
    assert census.blocks == ({2: 1},)


def test_census_inconsistency_raises():
    # claim the only eigenvalue of I2 is 0: multiplicity can't match
    with pytest.raises(CensusInconsistencyError) as err:
        jordan_census(np.eye(2, dtype=complex), [(0.0, 2)])
    assert err.value.profile is not None


def jordan_of_size(rng, n):
    """(T J T^-1, [(lam, mult)]) over the Gaussian integers: J an n x n
    (n >= 2) Jordan matrix with blocks of size 1-4 at one to three eigenvalues."""
    values = rng.sample(range(-3, 4), rng.randint(1, min(3, n)))
    blocks, mults, left = [], {}, n
    while left:
        lam, size = rng.choice(values), rng.randint(1, min(4, left))
        blocks.append(jordan_block_exact(lam, size))
        mults[lam] = mults.get(lam, 0) + size
        left -= size
    rng.shuffle(blocks)
    t, tinv = random_unimodular(rng, n, shears=4, magnitude=1)
    phi = mat_mul(t, mat_mul(block_diag_exact(blocks), tinv))
    return phi, [(gr(lam), m) for lam, m in mults.items()]


def census_or_error(phi, pairs):
    try:
        return jordan_census(phi, pairs)
    except CensusInconsistencyError as err:
        return err


def assert_same_census(got, want):
    assert type(got) is type(want)
    if isinstance(want, CensusInconsistencyError):
        assert str(got) == str(want) and got.profile == want.profile
    else:
        assert got.eigenvalues == want.eigenvalues
        assert got.multiplicities == want.multiplicities
        assert got.blocks == want.blocks and got.profiles == want.profiles


def census_runs(seed):
    """(matrices, eigenvalue lists) runs of one size n <= 6 each: exact
    and floating T J T^-1 with repeated eigenvalues and blocks of size
    up to 4, one of them also scaled by 1e4, random dense and
    nilpotent-family matrices with clustered eigenvalues, and some lists
    that make the census inconsistent."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    for _ in range(3):
        n = rng.randint(2, 6)
        exact = [jordan_of_size(rng, n) for _ in range(rng.randint(1, 6))]
        wrong = [(phi, [(lam + gr(0, 1), m) for lam, m in pairs])
                 for phi, pairs in exact[:2]]
        yield exact + wrong
        floating = [(as_matrix(phi).astype(complex), [(complex(lam), m) for lam, m in pairs])
                    for phi, pairs in exact + wrong]
        # a matrix 1e4 times larger: no roundoff floor may leak across
        floating.append((1e4 * floating[0][0], [(1e4 * lam, m) for lam, m in floating[0][1]]))
        for _ in range(3):
            phi = nprng.normal(size=(n, n)) + 1j * nprng.normal(size=(n, n))
            floating.append((phi, tracker.distinct_eigenvalues(phi)))
        yield floating
    family = nilpotent_family()
    points = [(0.0, 0.0)] + [tuple(nprng.normal(size=2)) for _ in range(4)]
    yield [(a, tracker.distinct_eigenvalues(a))
           for a in family.at_many(np.array(points, dtype=complex))]


@pytest.mark.parametrize("seed", range(8))
def test_census_of_a_run_equals_census_one_matrix_at_a_time(seed):
    kinds = set()
    for run in census_runs(seed):
        got = jordan_censuses([phi for phi, _ in run], [pairs for _, pairs in run])
        assert len(got) == len(run)
        for (phi, pairs), census in zip(run, got):
            assert_same_census(census, census_or_error(phi, pairs))
            if isinstance(census, CensusInconsistencyError):
                kinds.add("inconsistent")
            else:
                kinds.update(f"block {size}" for b in census.blocks for size in b)
                kinds.update("repeated" for m in census.multiplicities if m > 1)
    assert {"inconsistent", "repeated", "block 2"} <= kinds
    assert jordan_censuses([], []) == []


def test_census_chain_ranks_no_power_past_stabilization(monkeypatch):
    ranked = []
    real = ranklab.stacked_ranks

    def spy(stack, *args, **kwargs):
        ranked.append(len(stack))
        return real(stack, *args, **kwargs)

    monkeypatch.setattr(ranklab, "stacked_ranks", spy)
    monkeypatch.setattr(jordan, "stacked_ranks", spy, raising=False)
    for n in range(1, 7):  # n simple eigenvalues: ranks of (lam - A) and its square
        ranked.clear()
        jordan_census(np.diag(np.arange(n) + 1j), [(k + 1j, 1) for k in range(n)])
        assert sum(ranked) == 2 * n
    rng = random.Random(3)
    for _ in range(20):
        phi, pairs = jordan_of_size(rng, rng.randint(2, 6))
        for a, lams in [(phi, pairs),
                        (as_matrix(phi).astype(complex),
                         [(complex(lam), m) for lam, m in pairs])]:
            ranked.clear()
            census = jordan_census(a, lams)
            # a profile is ranked up to the first k with rank k = rank (k-1)
            want = sum(next(k for k in range(1, len(p.ranks)) if p.ranks[k] == p.ranks[k - 1])
                       for p in census.profiles)
            assert sum(ranked) == want


def test_census_overflow_only_where_a_profile_needs_the_power():
    # Phi = J2(0) (+) 0 scaled by 1e150: the profile at 0 needs (0 - Phi)^3,
    # whose roundoff scale ||Phi||^3 = 1e450 is beyond float64
    big = np.zeros((3, 3), dtype=complex)
    big[0, 1] = 1e150
    with pytest.raises(NonFiniteError):
        jordan_census(big, [(0j, 3)])
    # three simple eigenvalues near 1e150 stop at the square, and a
    # small J2 (+) 1 needs the cube: neither profile needs a power that
    # overflows, in one chain as alone
    simple = np.diag([1e150, 2e150, 3e150]).astype(complex)
    small = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)
    lists = [[(1e150 + 0j, 1), (2e150 + 0j, 1), (3e150 + 0j, 1)], [(0j, 2), (1 + 0j, 1)]]
    got = jordan_censuses([simple, small], lists)
    for phi, pairs, census in zip([simple, small], lists, got):
        assert_same_census(census, jordan_census(phi, pairs))
    assert got[1].blocks == ({2: 1}, {1: 1})
    # one matrix: the simple eigenvalue c stops at the square, though
    # ||c - Phi||^3 overflows; the profile at 0 needs the cube, and
    # ||Phi||^3 = c^3 = 1.25e308 is finite
    c = 5e102
    phi = np.array([[0, c / 2, 0], [0, 0, 0], [0, 0, c]], dtype=complex)
    assert jordan_census(phi, [(0j, 2), (c + 0j, 1)]).blocks == ({2: 1}, {1: 1})


SHEAR_CALLS = {
    "jordan_census": lambda m: jordan_census(m, [(1.0, 2)]),
    "rank_profile": lambda m: profile_at(m, 1.0),
    "theta_product": lambda m: theta_product(m, [1.0]),
    "verify_rank_identities":
        lambda m: verify_rank_identities(m, jordan_census(m, [(1.0, 2)])),
    "distinct_zero_count": lambda m: distinct_zero_count(char_poly(m)),
}


@pytest.mark.parametrize("call", SHEAR_CALLS.values(), ids=SHEAR_CALLS.keys())
def test_float_lists_take_the_floating_path(call):
    # a float among the entries puts the matrix in the floating ring,
    # whether it comes as nested lists or as a numpy array
    rows = [[1.0, 1.0], [0.0, 1.0]]
    got, want = call(rows), call(np.array(rows))
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# verify_rank_identities


def test_identities_shifted_block():
    phi = block_diag_exact([jordan_block_exact(0, 2), jordan_block_exact(1, 1)])
    census = jordan_census(phi, [(gr(0), 2), (gr(1), 1)])
    report = verify_rank_identities(phi, census)
    assert report.passed, [c for c in report.checks if not c.ok]


def test_identities_single_nilpotent_block():
    for n in (2, 3, 4):
        phi = jordan_block_exact(0, n)
        census = jordan_census(phi, [(gr(0), n)])
        report = verify_rank_identities(phi, census)
        assert report.passed


def test_identities_identity_matrix_degenerate():
    phi = [[gr(1) if i == j else gr(0) for j in range(3)] for i in range(3)]
    census = jordan_census(phi, [(gr(1), 3)])
    report = verify_rank_identities(phi, census)
    assert report.passed


def test_identities_floating_path():
    rng = random.Random(3131)
    for _ in range(5):
        j, pairs, _ = random_jordan_structure(rng, n_max=4)
        t, tinv = random_unimodular(rng, len(j))
        phi_exact = mat_mul(t, mat_mul(j, tinv))
        phi = np.array([[complex(x) for x in row] for row in phi_exact])
        census = jordan_census(phi, [(complex(l), m) for l, m in pairs])
        report = verify_rank_identities(phi, census)
        assert report.passed, [c for c in report.checks if not c.ok]


def test_floating_identities_build_theta_once(monkeypatch):
    calls = []
    build = tracker.theta_stack

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(tracker, "theta_stack", counted)
    monkeypatch.setattr(jordan, "theta_stack", counted, raising=False)
    floating = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    exact = block_diag_exact([jordan_block_exact(2, 2), jordan_block_exact(5, 1)])
    for phi, census in [(floating, jordan_census(floating)),
                        (exact, jordan_census(exact, [(gr(2), 2), (gr(5), 1)]))]:
        calls.clear()
        report = verify_rank_identities(phi, census)
        assert report.passed, [c for c in report.checks if not c.ok]
        assert len(calls) == 1


def test_floating_nilpotency_check_beyond_float64():
    # |Phi| near 1e150: the bound 1e-8 * (1 + |Phi|)^4 leaves float64, so it
    # is inf, which |Theta^2| meets
    phi = np.array([[1e150, 1.0], [0.0, -1e150]])
    checks = verify_rank_identities(phi, jordan_census(phi)).checks
    (nilpotent,) = [c for c in checks if c.name == "theta-nilpotent"]
    assert nilpotent.ok and nilpotent.rhs == float("inf")
    # entries up to 1.8e114: Theta^3 leaves float64, an input error
    phi = np.array([[18e113, 1j, -1j], [4e66 + 1e11, 3e82, 0], [1, 1j, -1j]])
    with pytest.raises(NonFiniteError):
        verify_rank_identities(phi, jordan_census(phi))


def test_identities_detect_corruption():
    phi = block_diag_exact([jordan_block_exact(0, 2), jordan_block_exact(1, 1)])
    census = jordan_census(phi, [(gr(0), 2), (gr(1), 1)])
    hacked = census.blocks[0].copy()
    hacked.pop(2)
    hacked[1] = 2  # pretend the 2-block is two 1-blocks
    import dataclasses

    bad = dataclasses.replace(census, blocks=(hacked, census.blocks[1]))
    report = verify_rank_identities(phi, bad)
    assert not report.passed


# ---------------------------------------------------------------------------
# stability sampling, through the one pointwise classifier


def nilpotent_family():
    return MatrixFamily.from_entries(
        [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"]
    )


def test_stability_nilpotent_family_origin_jumps():
    got = classify_points(nilpotent_family(), [[0.0, 0.0]])[0]
    assert got.kind is PointKind.JUMP


def test_stability_nilpotent_family_generic_point():
    got = classify_points(nilpotent_family(), [[1.0, 1.0]])[0]
    assert got.kind is PointKind.STABLE_CANDIDATE


def test_stability_shear_family_splits_at_origin():
    f = MatrixFamily.from_entries([["z", "1"], ["0", "-z"]], ["z"])
    assert classify_points(f, [[0.0]])[0].kind is PointKind.SPLIT


# ---------------------------------------------------------------------------
# local_jordan_transform


def test_transform_constant_jordan_block():
    f = MatrixFamily.from_entries([["0", "1"], ["0", "0"]], ["z"])
    report = local_jordan_transform(f, [0.5], disk_radius=0.2, sample_count=10)
    assert report.max_residual <= 1e-8
    assert report.kernel_dim == 2


def test_transform_diagonalizable_disk():
    f = MatrixFamily.from_entries([["z", "1"], ["0", "-z"]], ["z"])
    report = local_jordan_transform(f, [1.0], disk_radius=0.2, sample_count=50)
    assert report.max_residual <= 1e-8
    assert len(report.samples) == 50


def test_transform_nilpotent_family_disk():
    report = local_jordan_transform(
        nilpotent_family(), [1.0, 1.0], disk_radius=0.2, sample_count=50
    )
    assert report.max_residual <= 1e-6 * 3  # generous: TRANSFORM_RESIDUAL_SCALE*(1+|A|)
    assert report.kernel_dim == 2


def centralizer_dimension(blocks):
    """Sum over eigenvalues of sum_{a,b} min(a, b) c_a c_b, c_a the
    number of blocks of size a (``blocks``: one {a: c_a} per eigenvalue):
    the dimension of the matrices that commute with the Jordan form."""
    return sum(min(a, b) * ca * cb
               for sizes in blocks
               for a, ca in sizes.items() for b, cb in sizes.items())


def constant_family(matrix):
    texts = [[str(x.re) for x in row] for row in matrix]
    return MatrixFamily.from_entries(texts, ["z"])


def transform_cases():
    """(family, point, blocks per eigenvalue): constant families
    T J T^(-1) of random Jordan structures, with the blocks they were
    built from, then the built-in corpus at its stable points, with the
    census there."""
    rng = random.Random(515)
    for _ in range(25):
        j, _, multiset = random_jordan_structure(rng, n_max=5)
        t, tinv = random_unimodular(rng, len(j), shears=5, magnitude=1)
        blocks = {}
        for (lam, size), count in multiset.items():
            blocks.setdefault(lam, {})[size] = count
        yield constant_family(mat_mul(t, mat_mul(j, tinv))), (0.0,), blocks.values()
    for case in builtin_cases():
        census = jordan_census(case.family.at(case.stable_point))
        yield case.family, case.stable_point, census.blocks


def test_transform_recovers_random_structures():
    for family, xi, blocks in transform_cases():
        report = local_jordan_transform(family, xi, disk_radius=0.1,
                                        sample_count=5)
        assert report.kernel_dim == centralizer_dimension(blocks)
        norm = np.linalg.norm(family.at(xi), 2)
        assert report.max_residual <= 1e-6 * (1 + norm)


@pytest.mark.parametrize("entries", [
    [["3", "0"], ["0", "3"]],
    [["z", "0"], ["0", "z"]],
    [["z", "0", "0"], ["0", "z", "0"], ["0", "0", "z"]],
], ids=["constant-2x2", "z-2x2", "z-3x3"])
def test_transform_of_a_scalar_family_keeps_the_whole_kernel(entries):
    # the intertwining map is zero up to roundoff: its kernel is every matrix
    family = MatrixFamily.from_entries(entries, ["z"])
    report = local_jordan_transform(family, [0.3], disk_radius=0.1,
                                    sample_count=10)
    assert report.kernel_dim == family.n ** 2
    assert all(s.kernel_dim == family.n ** 2 for s in report.samples)
