"""Contract of the CLI text parsers: every input ends in a value or an
InputError, never in another exception.

The inputs are hostile on purpose: huge ints, NaN and Infinity, bools,
null, strings, pairs, ints past the digit limit, and JSON nested past the
decoder's recursion limit.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope.cli import (
    InputError,
    parse_box,
    parse_path,
    parse_point,
    parse_resolution,
)

CONTRACT = settings(max_examples=150, deadline=None, derandomize=True)

NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
LEAVES = st.one_of(
    NUMBERS,
    st.booleans(),
    st.none(),
    st.text(max_size=5),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(NUMBERS, NUMBERS).map(list),  # a complex value as a pair
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def deep_json(draw):
    """A value nested up to 2,000 lists or objects deep."""
    depth = draw(st.integers(0, 2000))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    return opener * depth + json.dumps(draw(LEAVES)) + closer * depth


PATH_TEXTS = st.one_of(
    JSON_VALUES.map(json.dumps),  # NaN and Infinity as JSON's extensions
    deep_json(),
    deep_json().map(lambda deep: f"[[0], [{deep}]]"),
    deep_json().map(lambda deep: f"[[0], {deep}]"),
    st.integers(4290, 4310).map(lambda digits: f"[[0], [1{'0' * digits}]]"),
    st.text(max_size=20),
)
TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1+2i", "2i", "i", "", " ",
                     "1:1", "0:1", "-1:nan", "1:2:3", "true", "null", "1_0"]),
    NUMBERS.map(str),
    st.text(max_size=6),
)
TEXTS = st.one_of(st.lists(TOKENS, min_size=1, max_size=4).map(",".join),
                  st.text(max_size=20))
PARAMS = st.integers(1, 3)


def holds_contract(parse, text, nparams):
    try:
        parse(text, nparams)
    except InputError:
        pass


@CONTRACT
@given(text=PATH_TEXTS, nparams=PARAMS)
def test_parse_path_returns_or_raises_input_error(text, nparams):
    holds_contract(parse_path, text, nparams)


@CONTRACT
@given(text=st.one_of(TEXTS, PATH_TEXTS), nparams=PARAMS,
       parse=st.sampled_from([parse_point, parse_box, parse_resolution]))
def test_text_parsers_return_or_raise_input_error(text, nparams, parse):
    holds_contract(parse, text, nparams)
