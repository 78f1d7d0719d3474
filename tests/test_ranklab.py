import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.algebra import GaussianRational, MultiPoly, parse_entry
from jordanscope.algebra.matrices import as_matrix
from jordanscope.ranklab import (
    MinorSizeError,
    NonFiniteError,
    det_multipoly,
    exact_rank,
    generic_rank,
    kernel_basis,
    minors,
    numerical_rank,
    power_ranks,
)
from jordanscope.tracker import theta_power_ranks, theta_stack

GR = GaussianRational


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
    r, note = generic_rank(m, seed=0)
    assert r == 2
    assert "rational points" in note


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


@pytest.mark.parametrize("seed", range(4))
def test_power_ranks_equal_ranks_of_sequential_powers(seed):
    n = 4
    stack = power_test_stack(seed, n)
    scales = np.linalg.norm(stack, 2, axis=(1, 2)).tolist()
    got = power_ranks(stack, n + 1, scales)
    assert got.shape == (len(stack), n + 1)
    assert got[3].tolist() == [3, 2, 1, 0, 0]  # floored: B^4 is roundoff
    assert got[4].tolist() == [2] * (n + 1)
    for i, base in enumerate(stack):
        power = np.eye(n, dtype=complex)
        for k in range(1, n + 2):
            power = power @ base
            want = numerical_rank(power, scale=scales[i] ** k).rank
            assert got[i, k - 1] == want


def test_power_ranks_stop_at_the_first_overflowing_power():
    # the third power of 1e104 * I is beyond float64
    stack = np.array([1e104 * np.eye(4), np.eye(4)], dtype=complex)
    scales = [1e104, 1.0]
    assert power_ranks(stack, 3, scales).tolist() == [[4, 4], [4, 4]]
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        theta_power_ranks(stack, scales)


def test_power_ranks_stop_at_the_first_roundoff_scale_beyond_float64():
    # B^2 = 0 is finite, but its scale ||B||^2 = 1e400 is not: an infinite
    # threshold would call any B^2 rank 0
    b = np.array([[[0, 1e200], [0, 0]]], dtype=complex)
    assert power_ranks(b, 2, [1e200]).tolist() == [[1]]
    # Theta = B^2, whose scale ||0 - B||^2 overflows
    theta, scales = theta_stack(b, [[(0.0, 2)]])
    assert np.all(theta == 0) and scales == [math.inf]
    with pytest.raises(NonFiniteError):
        theta_power_ranks(theta, scales)
