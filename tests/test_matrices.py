"""The one matrix layer against the list-of-lists code it replaced.

``list_mat_mul``, ``list_char_poly`` and ``list_poly_at_matrix`` are the
exact path as it was before exact matrices became numpy object arrays.
Over GaussianRational and MultiPoly entries the arrays must give equal
values whose polynomial terms were inserted in the same order: a
floating evaluation sums the terms in that order, so it fixes the last
bits of ``track`` roots and of bound-check ratios.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.algebra import GaussianRational, MultiPoly, char_poly
from jordanscope.algebra.matrices import _keyed, as_matrix, char_poly_stack, poly_at_matrix
from jordanscope.algebra.multipoly import one_like, zero_like
from jordanscope.family import MatrixFamily
from jordanscope.sylv import split_matrices

DATA = Path(__file__).parent / "data"


def list_mat_mul(a, b):
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = a[i][0] * b[0][j]
            for t in range(1, len(b)):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def list_identity(n, sample):
    one, zero = one_like(sample), zero_like(sample)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def list_char_poly(a):
    """Faddeev-LeVerrier on lists; coefficients, constant term first."""
    n = len(a)
    m = list_identity(n, a[0][0])
    coeffs = [None] * n + [m[0][0]]
    for k in range(1, n + 1):
        m = list_mat_mul(a, m)
        trace = m[0][0]
        for i in range(1, n):
            trace = trace + m[i][i]
        if isinstance(trace, MultiPoly):
            c = (-trace).scale(Fraction(1, k))
        else:
            c = -trace / GaussianRational(k)
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = m[i][i] + c
    return coeffs


def list_poly_at_matrix(coeffs, a):
    acc = [[coeffs[-1] * x for x in row] for row in list_identity(len(a), a[0][0])]
    for c in reversed(coeffs[:-1]):
        acc = list_mat_mul(acc, a)
        for i in range(len(a)):
            acc[i][i] = acc[i][i] + c
    return acc


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
GAUSSIAN = st.builds(GaussianRational, RATIONALS, RATIONALS)


def multipolys(nvars):
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exponents, GAUSSIAN, max_size=3).map(
        lambda terms: MultiPoly(nvars, terms))


def square(entries, n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def families(draw):
    """n x n MultiPoly matrices, n <= 4, in one or two parameters."""
    return draw(square(multipolys(draw(st.integers(1, 2))), draw(st.integers(1, 4))))


def same_polys(got, want):
    """Equal values and, for MultiPolys, terms in the same insertion order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        if isinstance(w, MultiPoly):
            assert list(g.terms) == list(w.terms)


@settings(max_examples=40, deadline=None)
@given(families())
def test_char_poly_of_a_family_has_the_list_terms_in_their_order(rows):
    same_polys(char_poly(rows).coeffs, list_char_poly(rows))


def test_char_poly_of_random_families_has_the_list_terms_in_their_order():
    """Dense integer families; many of them tell a diagonal update
    c + m_ii from m_ii + c by the term order of the result. Then dense
    5 x 5 and 6 x 6 families in two parameters, with the benchmark's
    integer and Gaussian-integer coefficients and zero entries."""
    rng = random.Random(5)
    for _ in range(80):
        nvars, n = rng.randint(1, 2), rng.randint(2, 4)

        def entry():
            return MultiPoly(nvars, {
                tuple(rng.randint(0, 2) for _ in range(nvars)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 3))})

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        same_polys(char_poly(rows).coeffs, list_char_poly(rows))
    for n in (5, 6, 5, 6):
        def dense_entry():
            if rng.random() > 0.7:
                return MultiPoly.zero(2)
            return MultiPoly(2, {
                (rng.randint(0, 1), rng.randint(0, 1)):
                    GaussianRational(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-1, 0, 1)))
                for _ in range(rng.randint(1, 2))})

        rows = [[dense_entry() for _ in range(n)] for _ in range(n)]
        same_polys(char_poly(rows).coeffs, list_char_poly(rows))


def test_char_poly_takes_float_scalars_only_below_the_exactness_bound():
    """A 3 x 3 family over denominator 3 whose first row sum alpha of
    |re| + |im| puts B = n * 2**n * alpha**n just below 2**53, and one
    just above: the first runs on Python complex, the second on
    GaussianRational, and both give the list recursion's terms."""
    below = round((2**53 / 24) ** (1 / 3))
    while 24 * below**3 >= 2**53:
        below -= 1
    while 24 * (below + 1) ** 3 < 2**53:
        below += 1
    z, w = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    one = MultiPoly.one(2)
    for alpha, scalar in ((below, complex), (below + 1, GaussianRational)):
        top = GaussianRational(alpha - 9, -6)  # |re| + |im| = alpha - 3
        rows = [[z * top + one, w * 2, MultiPoly.zero(2)],
                [one, z * GaussianRational(0, 1), w + one],
                [z * 5, one * 7, z + w * 2]]
        rows = [[x * Fraction(1, 3) for x in row] for row in rows]
        keyed, _, d = _keyed(as_matrix(rows))
        assert d == 3
        assert {type(v) for x in keyed.flat for v in x.terms.values()} == {scalar}
        same_polys(char_poly(rows).coeffs, list_char_poly(rows))


def test_char_poly_beyond_the_float_bound_keeps_the_list_terms():
    family = MatrixFamily.from_spec_dict(json.loads((DATA / "dense8.json").read_text()))
    keyed, _, _ = _keyed(as_matrix(family.entries))
    assert {type(v) for x in keyed.flat for v in x.terms.values()} == {GaussianRational}
    same_polys(char_poly(family.entries).coeffs, list_char_poly(family.entries))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: square(GAUSSIAN, n)))
def test_char_poly_of_a_gaussian_matrix_equals_the_list_recursion(rows):
    assert char_poly(rows).coeffs == list_char_poly(rows)


@settings(max_examples=25, deadline=None)
@given(families(), st.data())
def test_products_and_matrix_polynomials_keep_the_list_term_order(rows, data):
    a = as_matrix(rows)
    same_polys((a @ a).ravel().tolist(),
               [x for row in list_mat_mul(rows, rows) for x in row])
    coeffs = data.draw(st.lists(multipolys(rows[0][0].nvars), min_size=1, max_size=3))
    same_polys(poly_at_matrix(coeffs, a).ravel().tolist(),
               [x for row in list_poly_at_matrix(coeffs, rows) for x in row])


def test_a_stack_of_exact_matrices_is_the_stack_of_their_char_polys():
    stack = as_matrix([[GaussianRational(3 * i + j) for j in range(3)] for i in range(3)])
    stack = np.stack([stack, stack @ stack])
    coeffs = char_poly_stack(stack)
    assert coeffs.dtype == object and coeffs.shape == (2, 4)
    for a, row in zip(stack, coeffs):
        assert row.tolist() == list_char_poly(a.tolist())


# Gaussian rationals with denominators 1, 2 and 4: their products with the
# small derivative factors are exact in float64 too
DYADIC = st.builds(GaussianRational,
                   st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 4])),
                   st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 4])))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(DYADIC, min_size=n, max_size=n), min_size=1, max_size=3)))
def test_split_matrices_of_exact_coefficients_are_the_complex_ones(lower):
    exact = as_matrix([row + [GaussianRational(1)] for row in lower])
    floating = np.array(exact.tolist(), dtype=complex)
    got = np.array(split_matrices(exact).tolist(), dtype=complex)
    assert np.array_equal(got, split_matrices(floating))


@pytest.mark.parametrize("rows, dtype", [
    ([[1, Fraction(1, 2)], [0, GaussianRational(0, 1)]], object),
    ([[1, 0.5], [0, 1]], complex),
    ([[1, 2j], [0, 1]], complex),
    ([[GaussianRational(1), 2.0], [0, 1]], complex),
    ([[np.int64(1), 2], [0, 1]], complex),
    (np.array([[1, 2], [0, 1]], dtype=object), object),
], ids=["exact", "float", "complex", "mixed", "numpy-int", "object-array"])
def test_as_matrix_reads_the_ring_off_the_entries(rows, dtype):
    # one float or numpy scalar among exact entries makes the matrix floating
    a = as_matrix(rows)
    assert a.dtype == dtype
    if dtype is object:
        assert all(isinstance(x, GaussianRational) for x in a.flat)
    assert np.array_equal(np.asarray(a, dtype=complex),
                          np.array([[complex(x) for x in row] for row in rows]))
