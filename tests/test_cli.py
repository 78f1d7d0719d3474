import hashlib
import json
import subprocess
import sys
import warnings

import pytest

from jordanscope import cli
from jordanscope.algebra import parse_entry
from jordanscope.family import MatrixFamily

NILPOTENT = {
    "n": 2,
    "params": ["z", "w"],
    "entries": [["z*w", "-z^2"], ["w^2", "-z*w"]],
    "label": "rank-one nilpotent family",
}
SHEAR = {
    "n": 2,
    "params": ["z"],
    "entries": [["z", "1"], ["0", "-z"]],
    "label": "shear",
}
IDENTITY3 = {
    "n": 3,
    "params": ["z"],
    "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "label": "identity",
}
CONSTANT = {
    "n": 2,
    "params": ["z"],
    "entries": [["1", "1"], ["0", "2"]],
    "label": "constant",
}


@pytest.fixture
def family_file(tmp_path):
    def write(doc, name="family.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# census


def test_census_nilpotent_family_generic_point(family_file, capsys):
    path = family_file(NILPOTENT)
    code, out = run_cli(["census", path, "--point", "1.0,1.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert doc["census"]["blocks"] == [{"2": 1}]
    assert doc["census"]["eigenvalues"] == [[0.0, 0.0]] or abs(
        doc["census"]["eigenvalues"][0][0]
    ) < 1e-8


def test_census_identity_family(family_file, capsys):
    path = family_file(IDENTITY3)
    code, out = run_cli(["census", path, "--point", "0.3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["census"]["aggregate"] == {"1": 3}
    assert doc["census"]["eigenvalues"] == [[1.0, 0.0]]


def test_census_shear_family_two_simple_eigenvalues(family_file, capsys):
    path = family_file(SHEAR)
    code, out = run_cli(["census", path, "--point", "2.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["census"]["aggregate"] == {"1": 2}
    eigs = sorted(e[0] for e in doc["census"]["eigenvalues"])
    assert eigs == pytest.approx([-2.0, 2.0])


# ---------------------------------------------------------------------------
# split-set / jst-set


def test_split_set_shear(family_file, capsys):
    path = family_file(SHEAR)
    code, out = run_cli(["split-set", path, "--samples", "200"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["r_max"] == 3
    assert len(doc["functions"]) == 1
    poly = parse_entry(doc["functions"][0], ["z"])
    expect = parse_entry("4*z^2", ["z"])
    assert poly in (expect, -expect)
    assert doc["bound_check"]["passed"]
    assert not doc["empty"]


def test_jst_set_nilpotent(family_file, capsys):
    path = family_file(NILPOTENT)
    code, out = run_cli(["jst-set", path, "--samples", "200"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["denominator_is_one"]
    assert doc["k0"] == 1
    assert doc["rank_values"] == {"1": 1}
    assert not doc["empty"]
    # common zero set of the emitted polynomials is exactly the origin
    hs = [parse_entry(s, ["z", "w"]) for s in doc["functions"]]
    from fractions import Fraction

    from jordanscope.algebra import GaussianRational

    origin = [GaussianRational(0), GaussianRational(0)]
    assert all(h.eval_exact(origin).is_zero() for h in hs)
    probe = [GaussianRational(Fraction(1, 3)), GaussianRational(0)]
    assert not all(h.eval_exact(probe).is_zero() for h in hs)
    assert doc["bound_check"]["passed"]


def test_jst_set_constant_family_empty_marker(family_file, capsys):
    path = family_file(CONSTANT)
    code, out = run_cli(["jst-set", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["empty"] is True


# ---------------------------------------------------------------------------
# scan


def test_scan_shear_flags_origin(family_file, capsys):
    path = family_file(SHEAR)
    code, out = run_cli(
        ["scan", path, "--box=-1:1", "--res", "11"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["Split"] == 1
    flagged = [p for p in doc["points"] if p["kind"] == "Split"]
    assert flagged[0]["point"] == [[0.0, 0.0]]


def test_scan_deterministic_and_jobs_invariant(family_file, tmp_path, capsys):
    path = family_file(NILPOTENT)
    outs = []
    for jobs in ("1", "1", "2"):
        out_path = tmp_path / f"scan_{len(outs)}.json"
        code, _ = run_cli(
            [
                "scan", path, "--box=-1:1,-1:1", "--res", "5",
                "--jobs", jobs, "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count and
    maps in-process, so no worker is started."""

    requested = []

    def __init__(self, processes):
        RecordingPool.requested.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return [fn(x) for x in iterable]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_jobs_below_one_is_input_error(family_file, capsys, jobs):
    path = family_file(SHEAR)
    code = cli.main(["scan", path, "--box=-1:1", "--res", "5", "--jobs", jobs])
    assert code == 2
    assert "--jobs" in capsys.readouterr().err


def test_scan_jobs_clamped_to_cpu_count(family_file, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    RecordingPool.requested.clear()
    path = family_file(SHEAR)
    outs = []
    for jobs in ("64", "2", "1"):
        out_path = tmp_path / f"scan_{jobs}.json"
        code, _ = run_cli(["scan", path, "--box=-1:1", "--res", "5",
                           "--jobs", jobs, "--out", str(out_path)], capsys)
        assert code == 0
        outs.append(out_path.read_bytes())
    assert RecordingPool.requested == [2, 2]
    assert outs[0] == outs[1] == outs[2]


def test_manifest_records_the_argv_given_to_main(family_file, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(sys, "argv", ["jordanscope", "census", "other.json"])
    path = family_file(SHEAR)
    argv = ["scan", path, "--box=-1:1", "--res", "5", "--jobs", "1",
            "--csv=grid.csv", "--seed", "3"]
    monkeypatch.chdir(tmp_path)  # the --csv file lands here
    code, out = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == [
        "scan", path, "--box=-1:1", "--res", "5", "--seed", "3"
    ]


def test_scan_csv_projection(family_file, tmp_path, capsys):
    path = family_file(SHEAR)
    csv_path = tmp_path / "grid.csv"
    code, _ = run_cli(
        ["scan", path, "--box=-1:1", "--res", "5", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re_z,kind,rank_theta"
    assert len(lines) == 6


# ---------------------------------------------------------------------------
# track


def test_track_emits_samples_and_events(family_file, tmp_path, capsys):
    path = family_file(SHEAR)
    csv_path = tmp_path / "branches.csv"
    code, out = run_cli(
        [
            "track", path, "--path", "[[1.0],[-1.0]]", "--steps", "50",
            "--csv", str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["events"]) == 1
    assert doc["events"][0]["type"] == "split"
    za = complex(*doc["events"][0]["point_bracket"][0][0])
    assert abs(za) < 1e-5
    assert csv_path.read_text().startswith("t,branch,lambda_re,lambda_im")


# the sha256 of whole track reports without their manifest, recorded before
# path steps were evaluated as one stack: the branches must stay bit for bit
FREE_5X5 = {
    "n": 5,
    "params": ["z", "w"],
    "entries": [
        ["z + 1", "2*w", "0", "1 - i*z", "0"],
        ["w", "4 - z", "i*w", "0", "2"],
        ["0", "1 + z*w", "8 + i*z", "w", "0"],
        ["3*z", "0", "-w", "12 + w", "i"],
        ["0", "z - w", "0", "1", "16 - i*w"],
    ],
    "label": "free 5x5",
}
PINNED_TRACKS = [
    (None, "[[1.0],[-1.0]]",
     "b1cc6d32fa1847beb449f7079fa270542a8b8e0b7f6fbbcb07e79cad2e8e4a67"),
    (FREE_5X5, "[[[-0.6,0.3],[0.2,-0.5]],[[0.7,-0.4],[-0.3,0.8]]]",
     "7d5cd5665d4fb342e353e37cacfcd415eade8ec57cc1b544e43986f6186e0f0b"),
]


@pytest.mark.parametrize("spec,path,digest", PINNED_TRACKS,
                         ids=["shear", "free-5x5"])
def test_track_report_is_pinned(family_file, capsys, spec, path, digest):
    family = ["--builtin", "shear"] if spec is None else [family_file(spec)]
    code, out = run_cli(["track", *family, "--path", path, "--steps", "100"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    del doc["manifest"]
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# verify


def test_verify_builtin_corpus_passes(capsys):
    code, out = run_cli(["verify", "--builtin-corpus"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_detects_corruption(family_file, capsys, monkeypatch):
    # corrupt the identity checker: a failing report must give exit 1
    from jordanscope.jordan import IdentityCheck, IdentityReport

    def broken(*a, **k):
        return IdentityReport([IdentityCheck("forced", "negative control", False)])

    monkeypatch.setattr(cli, "verify_rank_identities", broken)
    path = family_file(CONSTANT)
    code, out = run_cli(["verify", path], capsys)
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# wire format / errors


def test_family_roundtrip_identical_polynomials(family_file):
    fam = MatrixFamily.from_spec_dict(NILPOTENT)
    emitted = fam.to_spec_dict()
    fam2 = MatrixFamily.from_spec_dict(emitted)
    assert fam.entries == fam2.entries


def test_missing_file_is_input_error(capsys):
    code = cli.main(["census", "/nonexistent.json", "--point", "1.0"])
    assert code == 2


def test_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["census", str(path), "--point", "1.0"])
    assert code == 2


def test_bad_entry_expression_is_input_error(tmp_path, capsys):
    doc = dict(SHEAR, entries=[["z/2", "1"], ["0", "-z"]])  # '/' not in grammar
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["census", str(path), "--point", "1.0"])
    assert code == 2


@pytest.mark.parametrize("res", ["1", "2,1", "x", "2000", "2,3,4"])
def test_scan_bad_resolution_is_input_error(capsys, res):
    code = cli.main(["scan", "--builtin", "nilpotent", "--box=-1:1,-1:1",
                     "--res", res])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def test_deeply_nested_entry_is_input_error(tmp_path, capsys):
    doc = dict(SHEAR, entries=[["(" * 3000 + "z" + ")" * 3000, "1"], ["0", "-z"]])
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["census", str(path), "--point", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "nesting deeper than" in err


@pytest.mark.parametrize("entry,error", [
    ("(z+w+1)^40", "product may form 861 terms, more than 512"),
    ("z^100000000", "exponent 100000000 exceeds 256"),
], ids=["many-terms", "huge-exponent"])
def test_entry_beyond_parse_caps_is_input_error(family_file, capsys, entry, error):
    doc = {"n": 2, "params": ["z", "w"], "entries": [[entry, "1"], ["0", "-z"]]}
    code = cli.main(["scan", family_file(doc), "--box=-1:1,-1:1", "--res", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and error in err


def corner(entry):
    """A 2 x 2 family with ``entry`` in its top-left corner."""
    return [[entry, "1"], ["0", "z"]]


BIG = [["10^200*z^2", "0"], ["0", "1"]]
BEYOND_FLOAT64 = [
    # a coefficient above 1.8e308 fails every command at load time
    (corner("99999999999999999999^20*z"), ["scan", "--box=-1:1", "--res", "3"]),
    (corner("99999999999999999999^20*z"), ["census", "--point", "0.5"]),
    (corner("99999999999999999999^20*z"), ["track", "--path", "[[0.5],[0.6]]"]),
    (corner("99999999999999999999^20*z"), ["split-set", "--samples", "5"]),
    (corner("99999999999999999999^20*z"), ["jst-set", "--samples", "5"]),
    # finite entries whose products of (lam - A) factors overflow
    (corner("10^200*z^2"), ["scan", "--box=-1:1", "--res", "3"]),
    (corner("10^200*z^2"), ["scan", "--box=-1:1", "--res", "3", "--jobs", "2"]),
    (corner("10^200*z^2"), ["census", "--point", "0.5"]),
    (corner("(2*z+3)^256"), ["scan", "--box=-1:1", "--res", "3"]),
    (corner("(2*z+3)^256"), ["census", "--point", "0.5"]),
    # infinite entries, which eigvals and the SVDs refuse
    (BIG, ["census", "--point", "1e60"]),
    (BIG, ["scan", "--box=-1e60:1e60", "--res", "3"]),
    (BIG, ["track", "--path", "[[1e60],[2e60]]", "--steps", "2"]),
    # a power that overflows in the evaluator
    ([["z^256", "0"], ["0", "1"]], ["census", "--point", "1e2"]),
    # finite powers (lam - A)^k whose roundoff scale ||lam - A||^k overflows
    ([["10^150*z", "10^150", "0"], ["0", "10^150*z", "1"], ["0", "0", "z^2"]],
     ["census", "--point", "0"]),
    # finite entries whose characteristic polynomial overflows
    ([["10^200*z", "1"], ["0", "10^200*z+1"]], ["scan", "--box=1:2", "--res", "3"]),
    ([["10^200*z", "1"], ["0", "10^200*z+1"]],
     ["track", "--path", "[[1],[2]]", "--steps", "2"]),
    ([["10^200*z", "1"], ["0", "10^200*z+1"]], ["split-set", "--samples", "5"]),
    # a finite point at which lam - A overflows
    ([["z", "1"], ["0", "-z"]], ["census", "--point", "1e308+1e308i"]),
]


@pytest.mark.parametrize("entries,argv", BEYOND_FLOAT64, ids=[
    "scan-coeff", "census-coeff", "track-coeff", "split-set-coeff", "jst-set-coeff",
    "scan-product", "scan-product-jobs2", "census-product", "scan-power",
    "census-power", "census-inf-entry", "scan-inf-entry", "track-inf-entry",
    "census-entry-power", "census-roundoff-scale", "scan-char-poly",
    "track-char-poly", "split-set-char-poly", "census-extreme-point",
])
def test_values_beyond_float64_are_input_errors(family_file, capsys, entries, argv):
    doc = {"n": len(entries), "params": ["z"], "entries": entries}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([argv[0], family_file(doc), *argv[1:]])
    assert code == 2
    assert not caught  # numpy overflow warnings would add stderr lines
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


def jordan_chain(n):
    """n x n: z on the diagonal (z + 1 in the corner), ones above it."""
    entries = [["z" if i == j else "1" if j == i + 1 else "0" for j in range(n)]
               for i in range(n)]
    entries[0][0] = "z+1"
    return {"n": n, "params": ["z"], "entries": entries, "label": f"chain{n}"}


@pytest.mark.parametrize("n", [6, 12])
def test_split_set_beyond_minor_cap_is_input_error(family_file, capsys, n):
    code = cli.main(["split-set", family_file(jordan_chain(n)), "--samples", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "capped at dimension 9" in err and "n <= 5" in err


# a triangular family whose path crosses the collision at z = -1: the
# residue integral does not converge there
CROSSING = {
    "n": 2,
    "params": ["z"],
    "entries": [["1", "-z"], ["0", "-z"]],
    "label": "crossing",
}


@pytest.mark.parametrize("argv,error", [
    (["track", "{family}", "--path",
      "[[[-1.0992367902901106,-0.3646642897643553]],"
      "[[-0.8774821952815862,0.4502147652147583]]]", "--steps", "100"],
     "ContourError"),
    (["jst-set", "{family4}"], "OverflowError"),
], ids=["track-contour", "jst-set-n4"])
def test_unexpected_error_exits_3_with_one_line(family_file, capsys, argv, error):
    four = {"n": 4, "params": ["z"], "label": "four",
            "entries": [["z", "1", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "2", "0"], ["0", "0", "0", "3"]]}
    files = {"{family}": family_file(CROSSING),
             "{family4}": family_file(four, "four.json")}
    code = cli.main([files.get(a, a) for a in argv])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1


def test_env_tolerance_override(family_file, capsys, monkeypatch):
    monkeypatch.setenv("JORDANSCOPE_TOL", "1e-6")
    path = family_file(CONSTANT)
    code, out = run_cli(["census", path, "--point", "0.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["tolerances"]["rel_tol"] == 1e-6


@pytest.mark.parametrize("argv", [
    ["census", "--builtin", "shear", "--point", "0.5", "--tol", "5"],
    ["census", "--builtin", "shear", "--point", "0.5", "--tol", "0"],
    ["census", "--builtin", "shear", "--point", "0.5", "--tol=-1"],
    ["census", "--builtin", "shear", "--point", "0.5", "--tol", "nan"],
    ["census", "--builtin", "shear", "--point", "0.5", "--tol", "inf"],
    ["scan", "--builtin", "shear", "--box=-1:1", "--res", "3", "--tol", "5"],
    ["split-set", "--builtin", "shear", "--samples", "5", "--tol", "7"],
], ids=["census-5", "census-0", "census-neg", "census-nan", "census-inf",
        "scan-5", "split-set-7"])
def test_tolerance_outside_unit_interval_is_input_error(capsys, argv):
    code = cli.main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --tol must lie strictly between 0 and 1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["scan", "--box=-1:1", "--res", "3", "--probe-radius", "nan"],
    ["scan", "--box=-1:1", "--res", "3", "--probe-radius", "inf"],
    ["scan", "--box=-1:1", "--res", "3", "--probe-radius", "0"],
    ["scan", "--box=nan:1", "--res", "3"],
    ["scan", "--box=inf:1", "--res", "3"],
    ["scan", "--box=1:1", "--res", "3"],
    ["census", "--point", "nan"],
    ["census", "--point", "1e400"],
    ["track", "--path", "[[NaN],[1.0]]"],
    ["track", "--path", "[[Infinity],[1.0]]"],
    ["track", "--path", '[[["a","b"]],[1.0]]'],
    ["track", "--path", "[[1],[1]]"],
    ["track", "--path", "[[0],[1e-300]]"],
    ["track", "--path", "[[0],[1e200]]"],
], ids=["radius-nan", "radius-inf", "radius-0", "box-nan", "box-inf", "box-zero-width",
        "point-nan", "point-overflow", "path-nan", "path-inf", "path-strings",
        "path-zero-length", "path-length-underflow", "path-length-overflow"])
def test_non_finite_or_degenerate_number_is_input_error(capsys, argv):
    code = cli.main([argv[0], "--builtin", "shear", *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["5", "0", "nan"])
def test_env_tolerance_outside_unit_interval_is_input_error(capsys, monkeypatch,
                                                            tol):
    monkeypatch.setenv("JORDANSCOPE_TOL", tol)
    code = cli.main(["scan", "--builtin", "shear", "--box=-1:1", "--res", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: JORDANSCOPE_TOL must")


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_track_steps_below_one_is_input_error(capsys, steps):
    code = cli.main(["track", "--builtin", "shear", "--path", "[[1.0],[-1.0]]",
                     f"--steps={steps}"])
    assert code == 2
    assert capsys.readouterr().err == f"input error: --steps must be at least 1, got {steps}\n"


@pytest.mark.parametrize("command", ["split-set", "jst-set"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_input_error(capsys, command, samples):
    code = cli.main([command, "--builtin", "shear", f"--samples={samples}"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"input error: --samples must be at least 1, got {samples}\n")


def refuse(*args, **kwargs):
    raise AssertionError("the command ran past its input checks")


@pytest.mark.parametrize("command,work", [
    ("split-set", "split_defining_functions"), ("jst-set", "jst_defining_functions")])
def test_samples_above_cap_is_input_error(capsys, monkeypatch, command, work):
    monkeypatch.setattr(cli, work, refuse)
    built = []
    monkeypatch.setattr(cli.random, "Random", lambda seed: built.append(seed))
    code = cli.main([command, "--builtin", "shear", "--samples", "100001"])
    assert code == 2 and not built
    assert capsys.readouterr().err == (
        "input error: --samples must be at most 100000, got 100001\n")


def test_track_steps_above_cap_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "track_path", refuse)
    monkeypatch.setattr(cli, "parse_path", refuse)
    code = cli.main(["track", "--builtin", "shear", "--path", "[[1.0],[-1.0]]",
                     "--steps", "100001"])
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: --steps must be at most 100000, got 100001\n")


def diagonal(n):
    entries = [[f"z + {i}" if i == j else "0" for j in range(n)] for i in range(n)]
    return {"n": n, "params": ["z"], "entries": entries, "label": f"diag{n}"}


@pytest.mark.parametrize("argv", [
    ["scan", "--box=-1:1", "--res", "3"],
    ["census", "--point", "0.5"],
    ["track", "--path", "[[1.0],[-1.0]]", "--steps", "5"],
], ids=["scan", "census", "track"])
def test_family_beyond_documented_size_is_input_error(family_file, capsys, argv):
    code = cli.main([argv[0], family_file(diagonal(9)), *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: n = 9 exceeds the supported size 8\n")
    code = cli.main([argv[0], family_file(diagonal(8)), *argv[1:]])
    assert code == 0


def test_builtin_family_listing_error(capsys):
    code = cli.main(["census", "--builtin", "no-such", "--point", "1.0"])
    assert code == 2


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "jordanscope.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "0.1.0"
