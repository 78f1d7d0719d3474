"""Contract of the CLI: every input to a text parser ends in a value or
an InputError, never in another exception, and every drawn family spec
ends ``split-set``, ``jst-set`` and ``scan`` in a report (exit 0 or 1)
or a one-line input error (exit 2), with the same bytes on a rerun; a
scan has them also in runs of one node. ``census`` at a drawn point
ends in a report (exit 0), one census-inconsistency line and no report
(exit 1), or a one-line input error. ``verify`` ends in PASS/FAIL lines
and an ``--out`` report that passed exactly when it exits 0 (exit 0 or
1), or a one-line input error.

The inputs are hostile on purpose: huge ints, NaN and Infinity, bools,
null, strings, pairs, ints past the digit limit, JSON nested past the
decoder's recursion limit, and entries with constants and exponents at
and past the parser's limits.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope import scanner
from jordanscope.algebra.exprparse import MAX_EXPONENT
from jordanscope.cli import (
    InputError,
    main,
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


# ---------------------------------------------------------------------------
# whole commands: split-set, jst-set, scan and census on drawn family specs

def entry_texts(params):
    """Entries in exprparse's grammar: parameters, i, small ints and
    d*10^k constants (k up to 300 as a power, and up to 308 as digits, so
    that a coefficient can fit float64 while its values at the samples
    leave it), joined by
    +, - and *, with exponents up to MAX_EXPONENT + 1, parentheses and
    unary minus."""
    digit = st.integers(1, 9)
    constant = st.one_of(
        st.builds("{}*10^{}".format, digit, st.integers(0, 300)),
        st.builds(lambda d, k: f"{d}{'0' * k}", digit, st.integers(0, 308)),
    )
    name = st.sampled_from(params + ["i", "0", "1", "2"])
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT + 1))
    power = st.builds("{}^{}".format, st.one_of(name, constant.map("({})".format)), exponent)
    return st.recursive(st.one_of(name, constant, power), lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
    ), max_leaves=4)


PARAM_LISTS = [["z"], ["z", "w"]]
ENTRY_TEXTS = [entry_texts(params) for params in PARAM_LISTS]


@st.composite
def family_specs(draw):
    """A family of n <= 3 in one or two parameters, its entries drawn by
    :func:`entry_texts`."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(0, 1))
    entries = [[draw(ENTRY_TEXTS[k]) for _ in range(n)] for _ in range(n)]
    return {"n": n, "params": PARAM_LISTS[k], "entries": entries}


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def spec_file(tmp, spec):
    path = os.path.join(tmp, "family.json")
    with open(path, "w") as f:
        json.dump(spec, f)
    return path


def assert_exit_contract(argv, command):
    """Exit 0 or 1 with a report of kind ``command``, or 2 with one
    input-error line, and the same outcome and bytes on a rerun. A census
    exits 1 with one line saying why and no report."""
    code, out, err = run_command(argv)
    assert code in (0, 1, 2), err
    if code == 2:
        assert not out and err.count("\n") == 1 and err.startswith("input error:"), err
    elif code == 1 and command == "census":
        assert not out and err.count("census inconsistency:") == 1, err
    else:
        assert json.loads(out)["kind"] == command
    assert run_command(argv)[:2] == (code, out)
    return code, out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=family_specs(), command=st.sampled_from(["split-set", "jst-set"]),
       samples=st.integers(1, 50), seed=st.integers(0, 3))
def test_symbolic_commands_keep_the_exit_contract(spec, command, samples, seed):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, spec_file(tmp, spec), "--samples", str(samples),
                "--seed", str(seed)]
        assert_exit_contract(argv, command)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=family_specs(), res=st.integers(2, 4),
       radius=st.sampled_from([None, "1e-3", "0.5", "10"]))
def test_scan_keeps_the_exit_contract_at_any_run_size(spec, res, radius):
    with tempfile.TemporaryDirectory() as tmp:
        box = ",".join(["-1:1"] * len(spec["params"]))
        argv = ["scan", spec_file(tmp, spec), f"--box={box}", "--res", str(res)]
        if radius is not None:
            argv += ["--probe-radius", radius]
        code, out = assert_exit_contract(argv, "scan")
        with mock.patch.object(scanner, "RUN_NODES", 1):
            assert run_command(argv)[:2] == (code, out)


# coordinates at 0, at the edges of the float range a census meets, and
# complex values, as parse_point reads them
COORDINATES = st.one_of(
    st.sampled_from(["0", "1e-160", "-1e-160", "1e150", "-1e150", "1+2i", "-0.5i"]),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False).map(str),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=family_specs(), coordinates=st.lists(COORDINATES, min_size=2, max_size=2))
def test_census_keeps_the_exit_contract(spec, coordinates):
    with tempfile.TemporaryDirectory() as tmp:
        point = ",".join(coordinates[:len(spec["params"])])
        assert_exit_contract(["census", spec_file(tmp, spec), f"--point={point}"], "census")


def verify_outcome(argv, path):
    """(exit code, stdout, stderr, the --out file's text or None) of a
    ``verify`` run, with no --out file before it."""
    if os.path.exists(path):
        os.remove(path)
    code, out, err = run_command(argv)
    if not os.path.exists(path):
        return code, out, err, None
    with open(path) as f:
        return code, out, err, f.read()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=family_specs(), seed=st.integers(0, 3))
def test_verify_keeps_the_exit_contract(spec, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verify.json")
        argv = ["verify", spec_file(tmp, spec), "--seed", str(seed), "--out", path]
        code, out, err, report = verify_outcome(argv, path)
        assert code in (0, 1, 2), err
        if code == 2:
            assert not out and err.count("\n") == 1 and err.startswith("input error:"), err
        else:
            assert out and all(line.startswith(("PASS  ", "FAIL  "))
                               for line in out.splitlines())
            doc = json.loads(report)
            assert doc["kind"] == "verify" and doc["passed"] == (code == 0)
        again = verify_outcome(argv, path)
        assert (again[0], again[1], again[3]) == (code, out, report)
