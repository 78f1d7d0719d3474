"""The stacked polynomial evaluator against the term loop it replaced.

``term_loop`` is the single-point evaluator ``MultiPoly.eval_complex``
used before there was one evaluator for single points and stacks. Every
power comes from numpy's complex power. Where every exponent is below 100
each value keeps the loop's bits in every nonzero part (``loop_bits``: a
zero compares equal whatever its sign); with larger exponents it agrees
to roundoff, and with the exact value at Gaussian-rational points. Where
the loop's power overflows, the value is not finite.
"""

import cmath
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.algebra import GaussianRational, MultiPoly, multipoly, parse_entry
from jordanscope.algebra.multipoly import BLOCK_CELLS, NonFiniteError, StackedEvaluator
from jordanscope.family import MatrixFamily


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
    """The loop's value, or None where one of its powers overflows."""
    try:
        return term_loop(poly, point)
    except OverflowError:
        return None


def bits(z):
    """Real and imaginary parts as bit patterns; every NaN alike."""
    return tuple("nan" if math.isnan(x) else struct.pack("<d", x)
                 for x in (z.real, z.imag))


def loop_bits(z):
    """``bits``, with every zero alike: numpy's power shortcuts (e = 1, 2,
    3 and a zero base) skip CPython's first product by 1 + 0j, which moves
    only the sign of a zero part."""
    return tuple("0" if x == 0 else part for x, part in zip((z.real, z.imag), bits(z)))


def term_scale(poly, point):
    """The sum of the loop's term moduli: the scale of its roundoff."""
    return sum(abs(complex(c) * math.prod(complex(x) ** e for x, e in zip(point, expo)))
               for expo, c in poly.terms.items())


def agrees(poly, point, got):
    """``got`` against the term loop at ``point``: not finite where a power
    of the loop overflows; the loop's bits in every nonzero part where every
    exponent is below 100; within roundoff of it otherwise."""
    want = outcome(poly, point)
    if want is None:
        return not cmath.isfinite(got)
    if max((max(e) for e in poly.terms), default=0) < 100:
        return loop_bits(got) == loop_bits(want)
    if not cmath.isfinite(want):
        return not cmath.isfinite(got)
    return abs(got - want) <= 1e-12 * term_scale(poly, point)


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


#: BLOCK_CELLS, the cells a block of points may fill before the stack
#: crosses over to the next block: patched to 0, so that every point is a
#: block of its own, and left at its value, where a short stack is one block
CROSSOVERS = pytest.mark.parametrize(
    "crossover", [0, BLOCK_CELLS], ids=["crossover-0", "crossover-default"])


@CROSSOVERS
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_stacked_values_have_the_bits_of_the_term_loop(crossover, data):
    """Each point alone against the loop (``agrees``), and every stack, in
    the evaluator's own blocks and in blocks of 1-3 points, with the bits of
    the points alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multipoly, "BLOCK_CELLS", crossover)
        check_stacked_values(data)


def check_stacked_values(data):
    nvars = data.draw(st.integers(1, 3))
    polys = data.draw(st.lists(polynomials(nvars), min_size=1, max_size=4))
    points = data.draw(st.lists(st.tuples(*[COORDINATE] * nvars),
                                min_size=1, max_size=6))
    evaluator = StackedEvaluator(polys, nvars)
    alone = [evaluator([pt])[0] for pt in points]
    for pt, row in zip(points, alone):
        assert all(agrees(p, pt, v) for p, v in zip(polys, row.tolist()))
    want = [[bits(v) for v in row] for row in alone]
    assert [[bits(v) for v in row] for row in evaluator(points)] == want
    evaluator.block = data.draw(st.integers(1, 3))
    assert [[bits(v) for v in row] for row in evaluator(points)] == want


#: Gaussian-rational coordinates of modulus at most 8 * sqrt(2): a power
#: up to 120 of each of two stays far inside float64
SMALL_GAUSSIAN = st.builds(GaussianRational,
                           *[st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8))] * 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_values_are_within_roundoff_of_the_exact_value(data):
    """An oracle independent of the loop, for the exponents of 100 and more
    too: at Gaussian-rational points each value lies within 1e-12 times the
    sum of the term moduli, sum |c * x^e|, of the exact value (``eval_exact``)."""
    nvars = data.draw(st.integers(1, 2))
    polys = data.draw(st.lists(polynomials(nvars), min_size=1, max_size=3))
    exact = data.draw(st.lists(st.tuples(*[SMALL_GAUSSIAN] * nvars),
                               min_size=1, max_size=4))
    points = [[complex(x) for x in pt] for pt in exact]
    values = StackedEvaluator(polys, nvars)(points)
    for pt, point, row in zip(exact, points, values.tolist()):
        for p, got in zip(polys, row):
            assert abs(got - complex(p.eval_exact(pt))) <= 1e-12 * term_scale(p, point)


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
    assert [[bits(v) for v in row] for row in whole] == [
        [bits(v) for v in row] for row in alone]
    assert [[bits(v) for v in row] for row in blocked] == [
        [bits(v) for v in row] for row in alone]
    assert [[loop_bits(v) for v in row] for row in alone] == [
        [loop_bits(term_loop(p, pt)) for p in polys] for pt in points]


def test_blocks_bound_the_working_arrays():
    polys = [MultiPoly(1, {(k,): GaussianRational(1) for k in range(60)})] * 40
    evaluator = StackedEvaluator(polys, 1)
    assert evaluator.block * evaluator.terms.size <= max(BLOCK_CELLS,
                                                         evaluator.terms.size)
    # the power table of a block: real and imaginary parts of 59 powers
    assert evaluator.block * 2 * 59 <= BLOCK_CELLS
    points = [(complex(k / 500, -k / 700),) for k in range(500)]
    want = [term_loop(polys[0], pt) for pt in points]
    assert [loop_bits(v) for v in evaluator(points)[:, 0]] == [loop_bits(w) for w in want]


@pytest.mark.parametrize("text,point", [
    ("z^120", (1e3, 0.0)),       # beyond exponent 100: numpy's pow formula
    ("z^50*w", (1e10, 1.0)),     # repeated squaring
    ("w + 2*z^3", (1e200, 1.0)),
])
def test_a_power_beyond_float64_is_a_non_finite_value(text, point):
    """Where the loop's power overflows, the value is not finite, and the
    family's matrices and characteristic polynomials there are refused."""
    poly = parse_entry(text, ["z", "w"])
    with pytest.raises(OverflowError):
        term_loop(poly, point)
    assert not cmath.isfinite(StackedEvaluator([poly], 2)([point])[0, 0])
    assert not cmath.isfinite(poly.eval_complex(point))
    family = MatrixFamily(n=1, params=["z", "w"], entries=[[poly]])
    with pytest.raises(NonFiniteError):
        family.at_many([point])
    with pytest.raises(NonFiniteError):
        family.char_poly_at_many([point])


@pytest.mark.parametrize("text,point", [
    ("z*w - 3*z*w + 1", (complex(1e200, -1e200), complex(1e200, 1e-300))),
    # the term 100*z overflows to inf + 0j; a factor w**0 = 1 + 0j would
    # turn its imaginary part into nan
    ("100*z + w^2", (1e307, 1.0)),
])
def test_overflowing_product_is_a_value_not_an_error(text, point):
    poly = parse_entry(text, ["z", "w"])
    assert loop_bits(poly.eval_complex(point)) == loop_bits(term_loop(poly, point))


def test_eval_complex_is_the_one_point_case():
    poly = MultiPoly(2, {(2, 0): GaussianRational(Fraction(1, 3), 2),
                         (0, 0): GaussianRational(0, -1),
                         (1, 3): GaussianRational(-5)})
    point = (complex(-0.0, 1.5), complex(0.25, -0.0))
    assert loop_bits(poly.eval_complex(point)) == loop_bits(term_loop(poly, point))
    assert type(poly.eval_complex(point)) is complex
    with pytest.raises(ValueError):
        poly.eval_complex((1.0,))


def test_empty_stack_and_empty_list():
    assert StackedEvaluator([MultiPoly.one(2)], 2)(np.empty((0, 2))).shape == (0, 1)
    assert StackedEvaluator([], 1)([(1.0,)]).shape == (1, 0)


#: the exponents of z, on both sides of 100, where numpy's power turns from
#: CPython's repeated squaring to its pow formula; w takes those below 100
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
    # the powers of w alone, all below 100
    polys.append(MultiPoly(2, {(0, e): GaussianRational(1) for e in SQUARING_EXPONENTS}))

    def part():
        return rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-1.4, 1.4)])

    points = [(complex(part(), part()), complex(part(), part())) for _ in range(1000)]
    return polys, points


@CROSSOVERS
def test_a_thousand_point_stack_has_the_bits_of_the_term_loop(crossover, monkeypatch):
    monkeypatch.setattr(multipoly, "BLOCK_CELLS", crossover)
    polys, points = thousand_point_stack(random.Random(5))
    evaluator = StackedEvaluator(polys, 2)
    assert (evaluator.block == 1) == (crossover == 0) and evaluator.block < len(points)
    values = evaluator(points)
    assert all(agrees(p, pt, v) for pt, row in zip(points, values.tolist())
               for p, v in zip(polys, row))


@CROSSOVERS
@pytest.mark.parametrize("bad", [
    (complex(400.0, -0.0), complex(0.5, 0.5)),  # z**120 only: the pow formula
    (complex(1.0, 0.0), complex(-0.0, 3e3)),    # (3e3 i)**89 by repeated squaring
    (complex(1.0, 1.0), complex(1e200, -0.0)),  # w**2 already
])
def test_a_thousand_point_stack_raises_the_loops_overflow(crossover, bad, monkeypatch):
    """The family's matrices raise NonFiniteError where the loop's powers
    overflow at the bad point; the evaluator's values there are not finite,
    and every other point keeps its values."""
    monkeypatch.setattr(multipoly, "BLOCK_CELLS", crossover)
    polys, points = thousand_point_stack(random.Random(6))
    evaluator = StackedEvaluator(polys, 2)
    clean = evaluator(points)
    points[617] = bad
    values = evaluator(points)
    assert any(outcome(p, bad) is None for p in polys)
    assert all(agrees(p, bad, v) for p, v in zip(polys, values[617].tolist()))
    rest = np.arange(len(points)) != 617
    assert np.array_equal(values[rest].view(np.uint64), clean[rest].view(np.uint64))
    family = MatrixFamily(n=2, params=["z", "w"], entries=[polys[:2], polys[2:4]])
    family.at_many(points[:617])
    with pytest.raises(NonFiniteError):
        family.at_many(points)


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
