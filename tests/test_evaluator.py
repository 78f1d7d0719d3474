"""The stacked polynomial evaluator against the term loop it replaced.

``term_loop`` is the single-point evaluator ``MultiPoly.eval_complex``
used before there was one evaluator for single points and stacks. Every
value of ``StackedEvaluator`` must have its bits, signed zeros included,
and every overflowing power must raise its OverflowError, whether the
powers come from Python's ``**`` or from numpy's complex power.
"""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.algebra import GaussianRational, MultiPoly, multipoly, parse_entry
from jordanscope.algebra.multipoly import (
    BLOCK_CELLS,
    MAX_SQUARING_EXPONENT,
    StackedEvaluator,
)


def term_loop(poly, point):
    if len(point) != poly.nvars:
        raise ValueError("point dimension mismatch")
    total = 0j
    for expo, coeff in poly.terms.items():
        v = complex(coeff)
        for x, e in zip(point, expo):
            if e:
                v *= complex(x) ** e
        total += v
    return total


def outcome(poly, point):
    """The loop's value, or the type and message of its error."""
    try:
        return term_loop(poly, point)
    except OverflowError as err:
        return OverflowError, str(err)


def bits(z):
    """Real and imaginary parts as bit patterns; every NaN alike."""
    return tuple("nan" if math.isnan(x) else struct.pack("<d", x)
                 for x in (z.real, z.imag))


RATIONALS = st.builds(Fraction, st.integers(-100, 100), st.integers(1, 20))
GAUSSIAN = st.builds(GaussianRational, RATIONALS, RATIONALS)
EXPONENT = st.one_of(st.integers(0, 4), st.integers(0, 120))
PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-3, 3),
    st.floats(-1e3, 1e3),
)
COORDINATE = st.one_of(
    st.builds(complex, PART, PART),
    GAUSSIAN.map(complex),
)


def polynomials(nvars):
    """Terms in drawn insertion order; the zero polynomial included."""
    term = st.tuples(st.tuples(*[EXPONENT] * nvars), GAUSSIAN)
    return st.lists(term, max_size=6).map(lambda ts: MultiPoly(nvars, dict(ts)))


#: the crossover below which power tables come from numpy's complex power,
#: patched to 0, so that every table takes ``**`` whole, and left at its
#: value, where tables of exponents below it take numpy's power
CROSSOVERS = pytest.mark.parametrize(
    "crossover", [0, MAX_SQUARING_EXPONENT], ids=["crossover-0", "crossover-default"])


@CROSSOVERS
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_stacked_values_have_the_bits_of_the_term_loop(crossover, data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multipoly, "MAX_SQUARING_EXPONENT", crossover)
        check_stacked_values(data)


def check_stacked_values(data):
    nvars = data.draw(st.integers(1, 3))
    polys = data.draw(st.lists(polynomials(nvars), min_size=1, max_size=4))
    points = data.draw(st.lists(st.tuples(*[COORDINATE] * nvars),
                                min_size=1, max_size=6))
    evaluator = StackedEvaluator(polys, nvars)
    want = [[outcome(p, pt) for p in polys] for pt in points]
    errors = [{w[1] for w in row if isinstance(w, tuple)} for row in want]
    for pt, row, messages in zip(points, want, errors):
        if messages:
            with pytest.raises(OverflowError) as err:
                evaluator([pt])
            assert str(err.value) in messages
        else:
            assert [bits(v) for v in evaluator([pt])[0]] == [bits(w) for w in row]
    evaluator.block = data.draw(st.integers(1, 3))
    if any(errors):
        with pytest.raises(OverflowError):
            evaluator(points)
    clean = [(pt, row) for pt, row, messages in zip(points, want, errors)
             if not messages]
    if clean:
        stacked = evaluator([pt for pt, _ in clean])
        assert [[bits(v) for v in vals] for vals in stacked] == [
            [bits(w) for w in row] for _, row in clean]


def test_a_point_has_the_same_bits_alone_in_a_stack_and_across_blocks():
    rng = random.Random(11)
    polys = [parse_entry(text, ["z", "w"]) for text in
             ("z^3*w - 2*i*z + 7", "w^5 - z*w^2", "0", "3*z^2*w^2 + i")]
    points = [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
               complex(rng.choice([-0.0, 0.0, rng.uniform(-2, 2)]), -0.0))
              for _ in range(7)]
    evaluator = StackedEvaluator(polys, 2)
    alone = [evaluator([pt])[0] for pt in points]
    whole = evaluator(points)
    evaluator.block = 3
    blocked = evaluator(points)
    want = [[bits(term_loop(p, pt)) for p in polys] for pt in points]
    for values in (alone, whole, blocked):
        assert [[bits(v) for v in row] for row in values] == want


def test_blocks_bound_the_working_arrays():
    polys = [MultiPoly(1, {(k,): GaussianRational(1) for k in range(60)})] * 40
    evaluator = StackedEvaluator(polys, 1)
    assert evaluator.block * evaluator.terms.size <= max(BLOCK_CELLS,
                                                         evaluator.terms.size)
    # the power table of a block: real and imaginary parts of 59 powers
    assert evaluator.block * 2 * 59 <= BLOCK_CELLS
    points = [(complex(k / 500, -k / 700),) for k in range(500)]
    want = [term_loop(polys[0], pt) for pt in points]
    assert [bits(v) for v in evaluator(points)[:, 0]] == [bits(w) for w in want]


@pytest.mark.parametrize("text,point", [
    ("z^120", (1e3, 0.0)),       # Python's pow formula, beyond exponent 100
    ("z^50*w", (1e10, 1.0)),     # repeated squaring
    ("w + 2*z^3", (1e200, 1.0)),
])
def test_overflowing_power_raises_the_loops_error(text, point):
    poly = parse_entry(text, ["z", "w"])
    with pytest.raises(OverflowError) as want:
        term_loop(poly, point)
    with pytest.raises(OverflowError) as got:
        StackedEvaluator([poly], 2)([point])
    assert str(got.value) == str(want.value)
    with pytest.raises(OverflowError):
        poly.eval_complex(point)


@pytest.mark.parametrize("text,point", [
    ("z*w - 3*z*w + 1", (complex(1e200, -1e200), complex(1e200, 1e-300))),
    # the term 100*z overflows to inf + 0j; a factor w**0 = 1 + 0j would
    # turn its imaginary part into nan
    ("100*z + w^2", (1e307, 1.0)),
])
def test_overflowing_product_is_a_value_not_an_error(text, point):
    poly = parse_entry(text, ["z", "w"])
    assert bits(poly.eval_complex(point)) == bits(term_loop(poly, point))


def test_eval_complex_is_the_one_point_case():
    poly = MultiPoly(2, {(2, 0): GaussianRational(Fraction(1, 3), 2),
                         (0, 0): GaussianRational(0, -1),
                         (1, 3): GaussianRational(-5)})
    point = (complex(-0.0, 1.5), complex(0.25, -0.0))
    assert bits(poly.eval_complex(point)) == bits(term_loop(poly, point))
    assert type(poly.eval_complex(point)) is complex
    with pytest.raises(ValueError):
        poly.eval_complex((1.0,))


def test_empty_stack_and_empty_list():
    assert StackedEvaluator([MultiPoly.one(2)], 2)(np.empty((0, 2))).shape == (0, 1)
    assert StackedEvaluator([], 1)([(1.0,)]).shape == (1, 0)


#: the exponents of z, on both sides of MAX_SQUARING_EXPONENT, so that
#: z's table, with an exponent of 100 or more, takes ``**`` whole; w takes
#: those below 100 only, so that its table comes from numpy's complex
#: power on every row where that cannot differ from ``**``.
EXPONENTS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100, 101, 120)
SQUARING_EXPONENTS = EXPONENTS[:-3]


def thousand_point_stack(rng):
    """Polynomials in z and w with exponents 0-120, and 1,000 points whose
    parts include signed zeros; no power of them overflows."""
    polys = []
    for _ in range(5):
        terms = {(rng.choice((0,) + EXPONENTS), rng.choice((0,) + SQUARING_EXPONENTS)):
                 GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                  rng.choice([0, Fraction(rng.randint(-9, 9), 7)]))
                 for _ in range(8)}
        polys.append(MultiPoly(2, terms))
    # every power of z and of w
    polys[0] = MultiPoly(2, {**{(e, 0): GaussianRational(1) for e in EXPONENTS},
                             **{(0, e): GaussianRational(0, 1) for e in SQUARING_EXPONENTS}})

    def part():
        return rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-1.4, 1.4)])

    points = [(complex(part(), part()), complex(part(), part())) for _ in range(1000)]
    return polys, points


@CROSSOVERS
def test_a_thousand_point_stack_has_the_bits_of_the_term_loop(crossover, monkeypatch):
    monkeypatch.setattr(multipoly, "MAX_SQUARING_EXPONENT", crossover)
    polys, points = thousand_point_stack(random.Random(5))
    evaluator = StackedEvaluator(polys, 2)
    want = [[bits(term_loop(p, pt)) for p in polys] for pt in points]
    assert [[bits(v) for v in row] for row in evaluator(points)] == want
    # the power tables alone, whose parts include signed zeros: one with an
    # exponent of 100 or more, and one from numpy's power at the default
    # crossover
    z = np.array([pt[0] for pt in points])
    for expos in (EXPONENTS, SQUARING_EXPONENTS):
        table = [[bits(v) for v in row] for row in multipoly._powers(z, list(expos))]
        powers = [[bits(w**e) for e in expos] for w in z.tolist()]
        assert table == powers
        assert any(part == struct.pack("<d", -0.0)
                   for row in powers for v in row for part in v)


@CROSSOVERS
@pytest.mark.parametrize("bad", [
    (complex(400.0, -0.0), complex(0.5, 0.5)),  # z**120 only: the pow formula
    (complex(1.0, 0.0), complex(-0.0, 3e3)),    # (3e3 i)**89 by repeated squaring
    (complex(1.0, 1.0), complex(1e200, -0.0)),  # w**2 already
])
def test_a_thousand_point_stack_raises_the_loops_overflow(crossover, bad, monkeypatch):
    monkeypatch.setattr(multipoly, "MAX_SQUARING_EXPONENT", crossover)
    polys, points = thousand_point_stack(random.Random(6))
    points[617] = bad
    messages = {outcome(p, bad)[1] for p in polys if isinstance(outcome(p, bad), tuple)}
    assert messages == {"complex exponentiation"}
    with pytest.raises(OverflowError) as err:
        StackedEvaluator(polys, 2)(points)
    assert str(err.value) in messages


#: parts of edge points: signed zeros, the least subnormal, parts whose
#: powers underflow or overflow (to inf, or through it to NaN), and plain
#: values of either sign
EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-170, 1e4, 1e100, 1e200, -1e160,
              1.5, -2.5)
#: on both sides of numpy's shortcuts (1, 2, 3) and of MAX_SQUARING_EXPONENT
EDGE_EXPONENTS = (1, 2, 3, 4, 99, 100, 101)


@pytest.mark.parametrize("expos", [(e,) for e in EDGE_EXPONENTS]
                         + [EDGE_EXPONENTS[:5], EDGE_EXPONENTS])
def test_powers_have_the_bits_and_errors_of_python_pow(expos):
    """Every edge point, real negative points and zero bases among them:
    alone, ``_powers`` raises where ``**`` does, with its message, and
    otherwise gives its bits; the points whose powers do not overflow give
    them in one stack too. A bare call warns of nothing (pytest turns a
    RuntimeWarning into an error)."""
    points = [complex(re, im) for re in EDGE_PARTS for im in EDGE_PARTS]
    clean, want = [], []
    for w in points:
        try:
            row = [bits(w**e) for e in expos]
        except OverflowError as err:
            with pytest.raises(OverflowError) as got:
                multipoly._powers(np.array([w]), list(expos))
            assert str(got.value) == str(err)
            continue
        assert [bits(v) for v in multipoly._powers(np.array([w]), list(expos))[0]] == row
        clean.append(w)
        want.append(row)
    table = multipoly._powers(np.array(clean), list(expos))
    assert [[bits(v) for v in row] for row in table] == want
    assert len(clean) < len(points) or expos == (1,)  # some powers overflow


SLOT_PART = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_slot_sums_have_the_bits_of_accumulate(data):
    """The left-to-right ``+=`` loop over the slot axis against
    ``np.add.accumulate`` along it: the same operands in the same order,
    so the same bits, signed zeros included. Every NaN counts alike, as in
    ``bits``: IEEE 754 leaves open which NaN operand's payload a sum keeps,
    and numpy's inner loops for different strides differ in it."""
    shape = (2, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)),
             data.draw(st.integers(1, 3)))
    cells = data.draw(st.lists(SLOT_PART, min_size=math.prod(shape),
                               max_size=math.prod(shape)))
    slots = np.array(cells, dtype=float).reshape(shape)
    with np.errstate(all="ignore"):  # as in the evaluator
        got = multipoly._slot_sums(slots)
        want = np.add.accumulate(slots, axis=2)[:, :, -1]
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    got[np.isnan(got)] = want[np.isnan(want)] = math.nan
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_slot_sums_of_one_slot_copy_it():
    slots = np.array([-0.0, math.nan, math.inf, 1.5]).reshape(2, 2, 1, 1)
    got = multipoly._slot_sums(slots)
    assert got.view(np.uint64).tolist() == slots[:, :, 0].view(np.uint64).tolist()
    got[0, 0, 0] = 7.0
    assert math.copysign(1, slots[0, 0, 0, 0]) == -1.0  # a copy, not a view
