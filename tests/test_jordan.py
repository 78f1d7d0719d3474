import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope import jordan, tracker
from jordanscope.algebra import GaussianRational
from jordanscope.algebra.matrices import as_matrix, char_poly, identity_like
from jordanscope.family import MatrixFamily
from jordanscope.jordan import (
    CensusInconsistencyError,
    TransformReport,
    jordan_basis,
    jordan_census,
    jordan_form_from_census,
    local_jordan_transform,
    rank_profile,
    theta_from_squarefree,
    theta_product,
    verify_rank_identities,
)
from jordanscope.ranklab import exact_rank, power_ranks
from jordanscope.scanner import PointKind, classify_point
from jordanscope.sylv import distinct_zero_count

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
# theta_product


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


def test_theta_rejects_repeats():
    with pytest.raises(ValueError):
        theta_product(np.eye(2), [1.0, 1.0])


def test_theta_cross_check_squarefree_route():
    rng = random.Random(77)
    for _ in range(20):
        j, pairs, _ = random_jordan_structure(rng, n_max=5)
        t, tinv = random_unimodular(rng, len(j))
        phi = mat_mul(t, mat_mul(j, tinv))
        direct = theta_product(phi, [lam for lam, _ in pairs])
        via_gcd = theta_from_squarefree(phi)
        assert direct.tolist() == via_gcd.tolist()


# ---------------------------------------------------------------------------
# rank_profile


def test_rank_profile_nilpotent_block():
    phi = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    prof = rank_profile(phi, 0.0)
    assert prof.ranks == (3, 2, 1, 0, 0)


def test_rank_profile_mixed_blocks():
    phi = block_diag_exact([jordan_block_exact(0, 2), jordan_block_exact(0, 1)])
    prof = rank_profile(phi, gr(0))
    assert prof.ranks == (3, 1, 0, 0, 0)


def test_rank_profile_identity():
    prof = rank_profile(np.eye(4, dtype=complex), 1.0)
    assert prof.ranks == (4, 0, 0, 0, 0, 0)


def test_rank_profile_non_eigenvalue_is_degenerate():
    prof = rank_profile(np.eye(3, dtype=complex), 5.0)
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
            assert is_convex(rank_profile(phi, lam).ranks)


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
        assert rank_profile(phi, lam).ranks == early_stop_profile(phi, lam)
    bases = np.array([lam * identity_like(phi) - phi for lam in lams])
    got = power_ranks(bases, n + 1, None)
    assert got.shape == (len(lams), n + 1)
    for base, row in zip(bases, got.tolist()):
        power = base
        for k in range(n + 1):
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


SHEAR_CALLS = {
    "jordan_census": lambda m: jordan_census(m, [(1.0, 2)]),
    "rank_profile": lambda m: rank_profile(m, 1.0),
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
    assert report.passed, report.failures()


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
        assert report.passed, report.failures()


def test_floating_identities_build_theta_once(monkeypatch):
    phi = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    census = jordan_census(phi)
    calls = []
    build = tracker.theta_stack

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(tracker, "theta_stack", counted)
    monkeypatch.setattr(jordan, "theta_stack", counted, raising=False)
    report = verify_rank_identities(phi, census)
    assert report.passed, report.failures()
    assert len(calls) == 1


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
# jordan_basis


def test_basis_already_in_jordan_form():
    phi = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    res = jordan_basis(phi)
    assert np.allclose(res.transform, np.eye(2))
    assert np.allclose(res.jordan_form, phi)


def test_basis_recovers_random_structures():
    rng = random.Random(515)
    for _ in range(25):
        j, pairs, _ = random_jordan_structure(rng, n_max=5)
        t, tinv = random_unimodular(rng, len(j), shears=5, magnitude=1)
        phi_exact = mat_mul(t, mat_mul(j, tinv))
        phi = np.array([[complex(x) for x in row] for row in phi_exact])
        census = jordan_census(phi, [(complex(l), m) for l, m in pairs])
        res = jordan_basis(phi, census)
        recon = np.linalg.solve(res.transform, phi @ res.transform)
        assert np.linalg.norm(recon - res.jordan_form, 2) <= 1e-7 * (
            1 + np.linalg.norm(phi, 2)
        ) * max(1.0, res.condition)
        # canonical reference form matches the construction
        ref = jordan_form_from_census(census)
        assert np.allclose(ref, res.jordan_form)


# ---------------------------------------------------------------------------
# stability sampling, through the one pointwise classifier


def nilpotent_family():
    return MatrixFamily.from_entries(
        [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"]
    )


def test_stability_nilpotent_family_origin_jumps():
    got = classify_point(nilpotent_family(), [0.0, 0.0])
    assert got.kind is PointKind.JUMP


def test_stability_nilpotent_family_generic_point():
    got = classify_point(nilpotent_family(), [1.0, 1.0])
    assert got.kind is PointKind.STABLE_CANDIDATE


def test_stability_shear_family_splits_at_origin():
    f = MatrixFamily.from_entries([["z", "1"], ["0", "-z"]], ["z"])
    assert classify_point(f, [0.0]).kind is PointKind.SPLIT


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
