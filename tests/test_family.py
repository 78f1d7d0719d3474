"""The stacked evaluators of a family against exact evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.algebra import GaussianRational, char_poly
from jordanscope.algebra.matrices import char_poly_stack
from jordanscope.family import MatrixFamily

from test_evaluator import bits, term_loop

FAMILIES = [
    MatrixFamily.from_entries(
        [["z*w", "-z^2"], ["w^2", "-z*w"]], ["z", "w"], label="nilpotent"
    ),
    # constant-only and zero entries, a complex coefficient, a zero row
    MatrixFamily.from_entries(
        [["3", "0", "i*z^2 - 2"], ["0", "0", "0"], ["z^3 + 1", "7*i", "z"]],
        ["z"],
        label="constants and zeros",
    ),
    MatrixFamily.from_entries(
        [["x - y", "x*y^2", "1", "0"],
         ["2*i*y", "x^2 - y", "0", "y"],
         ["0", "5", "x*y + i", "x^3"],
         ["x + y", "0", "-4", "y^2"]],
        ["x", "y"],
        label="dense 4x4",
    ),
    MatrixFamily.from_entries([["0", "0"], ["0", "0"]], ["z"], label="zero"),
]

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=20)
GAUSSIAN = st.builds(GaussianRational, RATIONALS, RATIONALS)


def _close(got, exact):
    """Agreement to 1e-12, relative to the largest exact value."""
    want = np.array([complex(x) for x in exact])
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - want))) <= 1e-12 * scale


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stacked_evaluation_matches_exact(family, data):
    points = data.draw(
        st.lists(st.lists(GAUSSIAN, min_size=family.nparams,
                          max_size=family.nparams),
                 min_size=1, max_size=4)
    )
    floating = [[complex(c) for c in pt] for pt in points]
    matrices = family.at_many(floating)
    coeffs = char_poly_stack(matrices)
    assert matrices.shape == (len(points), family.n, family.n)
    assert coeffs.shape == (len(points), family.n + 1)
    for pt, a, c in zip(points, matrices, coeffs):
        exact = family.at_exact(pt)
        assert _close(a.ravel(), [x for row in exact for x in row])
        assert _close(c, char_poly(exact).coeffs)


def test_stacked_evaluation_of_one_point_stays_close_to_the_loop():
    family = FAMILIES[2]
    point = (0.3 - 0.2j, -1.1 + 0.7j)
    stacked = family.at_many([point])[0]
    loop = np.array([[term_loop(e, point) for e in row] for row in family.entries])
    assert np.array_equal(stacked.view(np.uint64), loop.view(np.uint64))
    assert np.array_equal(family.at(point).view(np.uint64), loop.view(np.uint64))
    coeffs = [term_loop(c, point) for c in family.char_poly_family().coeffs]
    assert [bits(c) for c in family.char_poly_at(point).coeffs] == [
        bits(c) for c in coeffs]
    assert family.at_many(np.empty((0, 2))).shape == (0, 4, 4)


COMPLEX = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_char_poly_at_many_has_the_bits_of_char_poly_at(family, data):
    points = data.draw(st.lists(
        st.tuples(*[COMPLEX] * family.nparams), min_size=1, max_size=6))
    stacked = family.char_poly_at_many(points)
    assert len(stacked) == len(points)
    for point, p in zip(points, stacked):
        assert [bits(c) for c in p.coeffs] == [
            bits(c) for c in family.char_poly_at(point).coeffs]
    assert family.char_poly_at_many(np.empty((0, family.nparams))) == []


def test_stacked_evaluation_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        FAMILIES[0].at_many([(1.0,)])

