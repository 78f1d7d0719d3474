import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanscope import cli, ranklab, scanner, sylv
from jordanscope.algebra import MultiPoly, parse_entry
from jordanscope.family import MAX_PARAMS, MatrixFamily

DATA = Path(__file__).parent / "data"

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


def test_jst_set_capped_product_list(capsys, monkeypatch):
    # the moving Jordan cell has 25 products g * f; a cap of 1 leaves the
    # factor lists only, and the bound on the products does not apply
    monkeypatch.setattr(scanner, "MAX_PRODUCT_FUNCTIONS", 1)
    code, out = run_cli(["jst-set", "--builtin", "jordan-cell", "--samples", "20"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["functions"] is None and doc["capped"] is True
    assert doc["notes"][-1] == (
        "product count 25 exceeds cap 1; factor lists emitted instead")
    assert doc["bound_check"]["applicable"] is False
    code, out = run_cli(["verify", "--builtin", "jordan-cell"], capsys)
    assert code == 0
    assert ("PASS  moving Jordan cell: non-stable-set bound NOT APPLICABLE: "
            "product list capped; factors emitted instead\n") in out
    assert out.count("NOT APPLICABLE") == 1


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


def test_scan_probe_ring_disagreement_is_a_note(tmp_path, capsys):
    # at probe radius 10 the probes' eigenvalues +-10 e^(i t) of the shear
    # family leave the isolation disk of the double eigenvalue at z = 0:
    # the node still splits, with no extended product, at any --jobs
    outs = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"scan_{jobs}.json"
        code, _ = run_cli(["scan", "--builtin", "shear", "--box=-1:1", "--res", "3",
                           "--probe-radius", "10", "--jobs", jobs,
                           "--out", str(out_path)], capsys)
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["summary"] == {"Jump": 0, "Split": 1, "StableCandidate": 2}
    (origin,) = [p for p in doc["points"] if p["point"] == [[0.0, 0.0]]]
    assert origin["kind"] == "Split"
    assert origin["note"].startswith(
        "extended product unavailable: probe ring disagrees")


TRIANGULAR = {
    "n": 3,
    "params": ["x", "y"],
    "entries": [["x", "y", "0"], ["0", "x", "0"], ["0", "0", "y"]],
    "label": "triangular, x and y collide on x = y",
}


@pytest.mark.parametrize("run", [1, 7, 16])
def test_scan_report_bytes_hold_at_any_run_size(family_file, capsys, monkeypatch, run):
    argv = ["scan", family_file(TRIANGULAR), "--box=-1:1,-1:1", "--res", "5"]
    code, default = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(default)["summary"] == {"Jump": 4, "Split": 5, "StableCandidate": 16}
    monkeypatch.setattr(scanner, "RUN_NODES", run)
    assert run_cli(argv, capsys) == (0, default)


def test_scan_reversed_box_axis_keeps_the_probe_radius(capsys):
    docs = []
    for box in ("--box=-1:1,-0.1:0.1", "--box=1:-1,-0.1:0.1"):
        code, out = run_cli(["scan", "--builtin", "nilpotent", box, "--res", "3"], capsys)
        assert code == 0
        docs.append(json.loads(out))
    forward, reverse = docs
    assert forward["probe_radius"] == reverse["probe_radius"] == 0.025
    kinds = [{str(p["point"]): (p["kind"], p["rank_theta"]) for p in doc["points"]}
             for doc in docs]
    assert kinds[0] == kinds[1]
    assert forward["summary"] == reverse["summary"] == {
        "Jump": 1, "Split": 0, "StableCandidate": 8}


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
    # at n = 6 the term order of the symbolic characteristic polynomial,
    # which the exact scalar arithmetic must keep, reaches the report's last
    # bits
    (DATA / "free6x6.json", "[[[-0.6,0.3],[0.2,-0.5]],[[0.7,-0.4],[-0.3,0.8]]]",
     "55bb2cb90d20f3f921d9c29bd0426967984a7f21894dd617b0010ca9a560b291"),
    # eigenvalues z, 0 and -z, which collide at z = 0 where the path crosses:
    # 104 rejected trial steps, 125 quadrature levels beyond the 64 Rouche
    # nodes, and one split event
    (DATA / "cross3.json",
     "[[[-0.3427594851912155,0.2073339183180593]],"
     "[[0.7339970901425316,-0.44399206822360193]]]",
     "fa26b4da515bffb65f4afece9c6c5bff6f5abf79bc7ce8f2ef013da72d675c40"),
]


@pytest.mark.parametrize("spec,path,digest", PINNED_TRACKS,
                         ids=["shear", "free-5x5", "free-6x6", "cross-3x3"])
def test_track_report_is_pinned(family_file, capsys, spec, path, digest):
    family = (["--builtin", "shear"] if spec is None
              else [str(spec)] if isinstance(spec, Path) else [family_file(spec)])
    code, out = run_cli(["track", *family, "--path", path, "--steps", "100"],
                        capsys)
    assert code == 0
    doc = json.loads(out)
    del doc["manifest"]
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


TRI4_TRIPLE = {
    "n": 4,
    "params": ["z", "w"],
    "entries": [
        ["z", "1", "w", "2"],
        ["0", "z", "1", "w"],
        ["0", "0", "z", "z + w"],
        ["0", "0", "0", "w + 1"],
    ],
    "label": "4x4 triangular, triple eigenvalue",
}
DENSE3 = {
    "n": 3,
    "params": ["z"],
    "entries": [["(3-1*i) + (3+1*i)*z", "0", "0"], ["0", "(-3-1*i)", "0"],
                ["0", "0", "0"]],
    "label": "dense-split-set-n3-p1-r0",
}
# max_ratio's bits pin the term order of the minors: with its minor's
# terms in any other order, the dense3 report ends in other bits
PINNED_SPLIT_SETS = [
    (TRI4_TRIPLE, 5, 399,
     "7dda7579d2c16e9d8ad00c3fa586fd1b07f4db208f630349664c3f84dc9792c6"),
    (DENSE3, 5, 1,
     "e81720905b706ad48ecea04d2902de16a0d9ba3158ef83ad0a24e6134a274ddd"),
]


@pytest.mark.parametrize("spec,r_max,count,digest", PINNED_SPLIT_SETS,
                         ids=["tri4-triple", "dense3"])
def test_split_set_report_is_pinned(family_file, capsys, spec, r_max, count,
                                    digest):
    code, out = run_cli(["split-set", family_file(spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["r_max"], len(doc["functions"])) == (r_max, count)
    del doc["manifest"]
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


TRI3_DOUBLE = {
    "n": 3,
    "params": ["z", "w"],
    "entries": [["z", "1", "w"], ["0", "z", "1 + w"], ["0", "0", "w"]],
    "label": "3x3 triangular, double eigenvalue",
}
# recorded before jst-set stopped building the square-free part of a
# square-free characteristic polynomial (dense3) and kept for the other
PINNED_JST_SETS = [
    (DENSE3, {"1": 0}, 0, 1,
     "69e5de0826f71f24cf2707bb2cc0c21a2f795667126d30e557ebcfa66c2879d2"),
    (TRI3_DOUBLE, {"1": 1, "2": 0}, 1, 50,
     "03a0086957820dc60cdfbb328249cc62a9439e080dffebc6ae1a52be3b7bc172"),
]


@pytest.mark.parametrize("spec,rank_values,k0,count,digest", PINNED_JST_SETS,
                         ids=["dense3", "tri3-double"])
def test_jst_set_report_is_pinned(family_file, capsys, spec, rank_values, k0, count,
                                  digest):
    code, out = run_cli(["jst-set", family_file(spec)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["rank_values"], doc["k0"], len(doc["functions"])) == (rank_values, k0, count)
    del doc["manifest"]
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class CountedPowers(np.ndarray):
    """Theta as a spied square_free_part_family returns it: each product
    formed from it is counted in ``self.products``, a list shared by its
    views."""

    def __array_finalize__(self, obj):
        self.products = getattr(obj, "products", None)

    def __matmul__(self, other):
        self.products.append(1)
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        self.products.append(1)
        return np.asarray(other) @ np.asarray(self)


@pytest.mark.parametrize("builtin,square_free", [
    ("shear", True), ("double-eig", False), ("tri3-double", False), ("jordan3", False)])
def test_jst_set_decides_square_freeness_from_the_determinant(capsys, monkeypatch,
                                                               family_file, builtin,
                                                               square_free):
    # shear's characteristic polynomial is square-free, the others' are not;
    # Theta^2 = 0 on tri3-double (k0 = 1 < n - 1), not on jordan3 (k0 = 2)
    parts, ranked, counted, chains, evaluations, products = [], [], [], [], [], []
    real_part, real_rank = scanner.square_free_part_family, ranklab.generic_rank
    real_count, real_chain = sylv.split_counts, ranklab.power_ranks
    real_eval = MultiPoly.eval_exact

    def part(family):
        parts.append(family)
        theta, degree = real_part(family)
        theta = theta.view(CountedPowers)
        theta.products = products
        return theta, degree

    def rank(m, seed=0, powers=1):
        ranked.append((np.shape(m), powers))
        return real_rank(m, seed, powers)

    def count(split, *args):
        counted.append(np.shape(split))
        return real_count(split, *args)

    def chain(bases, *args):
        chains.append(np.asarray(bases).dtype)
        return real_chain(bases, *args)

    def evaluate(poly, point):
        evaluations.append(1)
        return real_eval(poly, point)

    monkeypatch.setattr(scanner, "square_free_part_family", part)
    monkeypatch.setattr(scanner, "generic_rank", rank)
    monkeypatch.setattr(sylv, "split_counts", count)
    monkeypatch.setattr(ranklab, "power_ranks", chain)
    monkeypatch.setattr(MultiPoly, "eval_exact", evaluate)
    source = (["--builtin", builtin] if builtin in cli.builtin_families()
              else [family_file(TRI3_DOUBLE)] if builtin == "tri3-double"
              else [str(DATA / f"{builtin}.json")])
    code, out = run_cli(["jst-set", *source, "--samples", "20"], capsys)
    assert code == 0
    if square_free:  # no Theta is built, evaluated or ranked
        assert parts == ranked == counted == chains == evaluations == []
        return
    # one seeded count, one chain for every power of Theta, each value
    # taken once a point; Theta^k is formed only for k <= k0
    (family,) = parts
    n, k0 = family.n, json.loads(out)["k0"]
    assert ranked == [((n, n), n - 1)]
    assert counted == [(ranklab.GENERIC_RANK_POINTS, 2 * n - 1, 2 * n - 1)]
    assert chains == [np.dtype(object)]
    assert len(evaluations) == ranklab.GENERIC_RANK_POINTS * (n + 1 + n * n)
    assert len(products) == max(k0 - 1, 0)


# the sha256 of every byte a command writes, manifest included: stdout, then
# the file named by "{file}"; recorded before the commands shared one runner
PINNED_OUTPUTS = [
    (["census", "--builtin", "jordan-cell", "--point", "3"],
     ["76a8853b5f1b6d850903ab122a97a501eb102b5d78b9dba0d2bfd5b18f31d3a1"]),
    (["split-set", "--builtin", "nilpotent", "--samples", "50"],
     ["9f9d56836b5bff4c6f4323bf2ab57a677b228648c0bf09c31d9b2bddd35a7822"]),
    (["jst-set", "--builtin", "jordan-cell", "--samples", "50"],
     ["62cd839ff3a8ff9f1686d1369e3b22e6c5b6ba2020a1818e4b9fe761921ae27e"]),
    (["scan", "--builtin", "nilpotent", "--box=-1:1,-1:1", "--res", "3",
      "--csv", "{file}"],
     ["7994c1de7a5e2b3d54a9b6591ce58ce203465b21c88e2ebdaff40c5bb97bf9c8",
      "5b4b7ea4c32b2b2327627e8a8843e22112d32e9b7de5fd150279e06bcfef5b58"]),
    (["track", "--builtin", "shear", "--path", "[[1.0],[-1.0]]", "--steps", "50",
      "--csv", "{file}"],
     ["13025a9aff9f03855c4270eb19136e9edc46bd9240bd329b9e23de7c45f50dcc",
      "12cbba74b8ce1da22fa112991eb9f54253dadceeb6bbf78d350988ee7b5209a7"]),
    (["verify", "--builtin-corpus", "--out", "{file}"],
     ["2c2c8927bf70e46941689317ef9c72b86f20b8a15656d6a6b6113c2baf929386",
      "ab62c5c34b9e0423e498c04cea0b46d8dbd74c1ee2eee9b2a31739d9935dbd9b"]),
]


@pytest.mark.parametrize("argv,digests", PINNED_OUTPUTS,
                         ids=["census", "split-set", "jst-set", "scan-csv",
                              "track-csv", "verify-out"])
def test_output_bytes_are_pinned(tmp_path, capsys, argv, digests):
    out_file = tmp_path / "output"
    code = cli.main([str(out_file) if a == "{file}" else a for a in argv])
    assert code == 0
    outputs = [capsys.readouterr().out.encode()]
    if out_file.exists():
        outputs.append(out_file.read_bytes())
    assert [hashlib.sha256(b).hexdigest() for b in outputs] == digests


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


def test_verify_internal_error_exits_3(capsys, monkeypatch):
    # only a probe disagreement is a FAIL line; any other error is a crash
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "splitting_amounts", broken)
    code = cli.main(["verify", "--builtin-corpus"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "error: RuntimeError: injected\n"
    assert "FAIL" not in captured.out


def test_verify_census_inconsistency_at_stable_point_fails(capsys, monkeypatch):
    # an inconsistent census at the designated stable point fails both the
    # identity check and the expected-census check, and the battery goes on
    from jordanscope.jordan import CensusInconsistencyError

    real = cli.jordan_census

    def inconsistent_at_shear_stable_point(a, **kwargs):
        if np.array_equal(a, [[1, 1], [0, -1]]):  # shear at z = 1
            raise CensusInconsistencyError("injected")
        return real(a, **kwargs)

    monkeypatch.setattr(cli, "jordan_census", inconsistent_at_shear_stable_point)
    code, out = run_cli(["verify", "--builtin-corpus"], capsys)
    assert code == 1
    failures = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failures == ["FAIL  shear: census at (1.0,) (injected)",
                        "FAIL  shear: census at (1.0,) = {1: 2}"]


def test_verify_ends_when_no_draw_has_the_generic_count(family_file):
    # the clustering tolerance 1e-5 (1 + |A|) merges the two eigenvalues,
    # which differ by 1, at every point the cross-check draws
    path = family_file({"n": 2, "params": ["z"],
                        "entries": [["10^6*z", "1"], ["0", "10^6*z+1"]]})
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "jordanscope.cli", "verify", path],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 1
    assert ("FAIL  family: square-free product cross-check: only 0 of 5 points "
            "compared in 100 draws\n") in result.stdout


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
    # the second file is nested past the JSON decoder's recursion limit
    for name, text in [("bad.json", "{not json"), ("deep.json", "[" * 5000 + "]" * 5000)]:
        path = tmp_path / name
        path.write_text(text)
        code = cli.main(["census", str(path), "--point", "1.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: family file is not valid JSON")
        assert err.count("\n") == 1


def test_bad_entry_expression_is_input_error(tmp_path, capsys):
    doc = dict(SHEAR, entries=[["z/2", "1"], ["0", "-z"]])  # '/' not in grammar
    path = tmp_path / "bad_entry.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["census", str(path), "--point", "1.0"])
    assert code == 2


@pytest.mark.parametrize("text", [
    '{"n": 1e999, "params": ["z"], "entries": [["z"]]}',
    '{"n": [1], "params": ["z"], "entries": [["z"]]}',
    '{"n": 1, "params": 5, "entries": [["z"]]}',
    '{"n": 1, "params": ["z"], "entries": [[1]]}',
    '[1, ["z"], [["z"]]]',
    '{"n": 2, "params": ["z"], "entries": ["z1", "0z"]}',
    '{"n": 1, "params": ["z", "z"], "entries": [["z"]]}',
    '{"n": ' + "9" * 5000 + ', "params": ["z"], "entries": [["z"]]}',
    json.dumps({"n": 1, "params": [f"p{k}" for k in range(MAX_PARAMS + 1)],
                "entries": [["p0"]]}),
], ids=["n-overflow", "n-list", "params-int", "entry-int", "top-level-list",
        "rows-as-strings", "repeated-param", "n-long-digits", "params-over-cap"])
def test_malformed_family_spec_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    code = cli.main(["split-set", str(path), "--samples", "10"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


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
SAMPLED_POWER = [["z^256*z^256*z^256*z^256*z^256*z^256*z^256*z^256*z^256", "1"],
                 ["0", "-z"]]
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
    # products that overflow only past z = 10: from node 80 of 160, in the
    # second run of scanner.run_nodes(2) = 64 nodes and later ones
    (corner("10^150*z^4"), ["scan", "--box=0:20", "--res", "160"]),
    (corner("10^150*z^4"), ["scan", "--box=0:20", "--res", "160", "--jobs", "2"]),
    # infinite entries, which eigvals and the SVDs refuse
    (BIG, ["census", "--point", "1e60"]),
    (BIG, ["scan", "--box=-1e60:1e60", "--res", "3"]),
    (BIG, ["track", "--path", "[[1e60],[2e60]]", "--steps", "2"]),
    # a power that overflows in the evaluator
    ([["z^256", "0"], ["0", "1"]], ["census", "--point", "1e2"]),
    ([["z^40"]], ["track", "--path", "[[1],[1e8]]", "--steps", "2"]),
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
    # characteristic-polynomial coefficients within float64 whose modulus at
    # a sample is beyond it, and one whose value there is
    ([["10^154*10^154*(1+i)*z"]], ["split-set"]),
    ([["10^154*z", "10^154"], ["10^154", "-10^154*z"]], ["split-set"]),
    ([["10^154*10^154*z^2"]], ["split-set"]),
    # a power beyond float64 at a bound-check sample: z^2304 leaves float64
    # where |z| > 1.36, which samples from the square [-1, 1]^2 reach
    (SAMPLED_POWER, ["split-set"]),
    (SAMPLED_POWER, ["jst-set", "--samples", "50"]),
    # eigenvalues +-1.2e154 whose characteristic polynomial z^2 - 1.44e308 is
    # finite at the path's points, and beyond float64 on their contours
    ([["z", "1"], ["0", "-z"]], ["track", "--path", "[[1.2e154],[1.3e154]]", "--steps", "2"]),
]


@pytest.mark.parametrize("entries,argv", BEYOND_FLOAT64, ids=[
    "scan-coeff", "census-coeff", "track-coeff", "split-set-coeff", "jst-set-coeff",
    "scan-product", "scan-product-jobs2", "census-product", "scan-power",
    "census-power", "scan-late-run", "scan-late-run-jobs2", "census-inf-entry", "scan-inf-entry", "track-inf-entry",
    "census-entry-power", "track-entry-power", "census-roundoff-scale", "scan-char-poly",
    "track-char-poly", "split-set-char-poly", "census-extreme-point",
    "split-set-modulus", "split-set-modulus-2x2", "split-set-sampled-value",
    "split-set-sampled-power", "jst-set-sampled-power", "track-contour",
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


@pytest.mark.parametrize("steps", ["1", "2"])
def test_track_halves_a_step_whose_trial_polynomial_overflows(family_file, capsys, steps):
    # p is finite at every point of the path and on each point's own
    # circles, but p at z = -6e153 (or 0) is beyond float64 on the circles
    # of z = 6e153: that trial fails the dominance check and shorter steps
    # follow, up to the split event where the branches cross at z = 0
    doc = {"n": 2, "params": ["z"], "entries": [["z", "0"], ["0", "2*z"]]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(["track", family_file(doc), "--path", "[[6e153],[-6e153]]",
                             "--steps", steps], capsys)
    assert code == 0 and not caught
    result = json.loads(out)
    assert len(result["samples"]) > 2 and len(result["events"]) == 1


def test_scan_ranks_no_power_of_a_zero_theta(family_file, capsys):
    # distinct eigenvalues near 1e80: every Theta has rank 0, so no higher
    # power is ranked, though the roundoff scale of Theta^2, about 1.6e481,
    # is beyond float64
    doc = {"n": 3, "params": ["z"],
           "entries": [["z", "0", "0"], ["0", "10^80", "0"], ["0", "0", "2*10^80"]]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(["scan", family_file(doc), "--box=-1:1", "--res", "3"],
                            capsys)
    assert code == 0 and not caught
    points = json.loads(out)["points"]
    assert len(points) == 3
    assert all(p["kind"] == "StableCandidate" and p["rank_theta"] == [0, 0]
               for p in points)


# finite entries whose sampled bound constant * max(1, |A|)^e leaves
# float64: the bound is inf, which every finite value meets
HUGE_BOUNDS = [
    ([["10^200"]], "split-set"),
    ([["10^200"]], "jst-set"),
    ([["10^150*z", "1"], ["0", "-z"]], "split-set"),
    ([["10^150*z", "1"], ["0", "-z"]], "jst-set"),
    ([["10^200*z", "1"], ["0", "10^200*z+1"]], "jst-set"),
]


@pytest.mark.parametrize("entries,command", HUGE_BOUNDS, ids=[
    "split-set-constant", "jst-set-constant", "split-set-norm", "jst-set-norm",
    "jst-set-char-poly",
])
def test_bound_beyond_float64_is_met(family_file, capsys, entries, command):
    doc = {"n": len(entries), "params": ["z"], "entries": entries}
    code, out = run_cli([command, family_file(doc), "--samples", "20"], capsys)
    assert code == 0
    check = json.loads(out)["bound_check"]
    assert check["passed"] and check["max_ratio"] == 0.0


# verify's nilpotency check on the floating path. |A| near 1e150: the bound
# 1e-8 * (1 + |A|)^4 leaves float64 and is inf, which |Theta^2| meets, but
# at seed 0 a sample point's Theta^2 leaves float64 too. Entries up to
# 1.8e114: Theta^3 leaves float64 at every seed. A Theta^n beyond float64
# is an input error.
NILPOTENCY_BEYOND_FLOAT64 = [
    ([["10^150*z", "1"], ["0", "-10^150*z"]], seed, seed == 0) for seed in range(4)
] + [
    ([["18*10^113", "i", "-i"], ["4*10^66+10^11", "3*10^82", "0"], ["1", "i", "-i"]],
     seed, True) for seed in range(4)
]


@pytest.mark.parametrize("entries,seed,theta_overflows", NILPOTENCY_BEYOND_FLOAT64,
                         ids=[f"bound-seed{s}" for s in range(4)]
                         + [f"theta-seed{s}" for s in range(4)])
def test_verify_nilpotency_check_beyond_float64(family_file, capsys, entries, seed,
                                                theta_overflows):
    doc = {"n": len(entries), "params": ["z"], "entries": entries}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["verify", family_file(doc), "--seed", str(seed)])
    captured = capsys.readouterr()
    assert not caught
    if theta_overflows:
        assert code == 2 and not captured.out
        assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
    else:
        assert code in (0, 1)
        lines = captured.out.splitlines()
        identities = [line for line in lines if ": rank identities at " in line]
        assert len(identities) == 4 and all(line.startswith("PASS") for line in identities)


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


@pytest.mark.parametrize("argv,error", [
    (["scan", "--box=-1:1", "--res", "3", "--probe-radius", "nan"], "--probe-radius"),
    (["scan", "--box=-1:1", "--res", "3", "--probe-radius", "inf"], "--probe-radius"),
    (["scan", "--box=-1:1", "--res", "3", "--probe-radius", "0"], "--probe-radius"),
    (["scan", "--box=nan:1", "--res", "3"], "interval"),
    (["scan", "--box=inf:1", "--res", "3"], "interval"),
    (["scan", "--box=1:1", "--res", "3"], "interval"),
    (["census", "--point", "nan"], "coordinate"),
    (["census", "--point", "1e400"], "coordinate"),
    (["track", "--path", "[[NaN],[1.0]]"], "path coordinates"),
    (["track", "--path", "[[Infinity],[1.0]]"], "path coordinates"),
    (["track", "--path", '[[["a","b"]],[1.0]]'], "cannot read complex value"),
    (["track", "--path", "[[1],[1]]"], "--path has zero length"),
    (["track", "--path", "[[0],[1e-300]]"], "--path has zero length"),
    (["track", "--path", "[[0],[1e200]]"], "--path segment lengths overflow"),
    (["track", "--path", "[[1e308],[-1e308]]"], "--path segment lengths overflow"),
    (["track", "--path", "[[0],[1" + "0" * 400 + "]]"], "complex value beyond"),
    (["track", "--path", "[[0],[[1, 1" + "0" * 400 + "]]]"], "complex value beyond"),
    (["track", "--path", "[[0],[1" + "0" * 5000 + "]]"], "--path must be JSON"),
    (["track", "--path", "[[0],[true]]"], "cannot read complex value"),
    (["track", "--path", "[[0]," + "[" * 5000 + "]" * 5000 + "]"], "--path must be JSON"),
], ids=["radius-nan", "radius-inf", "radius-0", "box-nan", "box-inf", "box-zero-width",
        "point-nan", "point-overflow", "path-nan", "path-inf", "path-strings",
        "path-zero-length", "path-length-underflow", "path-length-overflow",
        "path-length-inf", "path-big-int", "path-big-int-pair",
        "path-int-beyond-digit-limit", "path-bool", "path-nested-too-deep"])
def test_non_finite_or_degenerate_number_is_input_error(capsys, argv, error):
    code = cli.main([argv[0], "--builtin", "shear", *argv[1:]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {error}") and err.count("\n") == 1


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


def test_jst_bound_violation_is_a_validation_failure(capsys, monkeypatch):
    real = scanner.bound_report

    def tiny_constant(label, points, functions, constant, scales, exponent):
        return real(label, points, functions, 1e-300, scales, exponent)

    monkeypatch.setattr(scanner, "bound_report", tiny_constant)
    code, out = run_cli(["jst-set", "--builtin", "shear", "--samples", "20"], capsys)
    assert code == cli.EXIT_VALIDATION
    bound = json.loads(out)["bound_check"]
    assert bound["applicable"] and not bound["passed"]
    assert bound["violations"]
    for violation in bound["violations"]:
        assert [[type(x) for x in c] for c in violation["point"]] == [[float, float]]


@pytest.fixture
def svd_count(monkeypatch):
    """Matrices whose SVD norm a bound check asks of ``ranklab.svd_norms``."""
    counted = []
    real = ranklab.svd_norms

    def spy(stack):
        counted.append(1 if np.ndim(stack) == 2 else len(stack))
        return real(stack)

    monkeypatch.setattr(ranklab, "svd_norms", spy)
    return counted


def test_jst_bound_takes_fewer_svds_than_samples(capsys, svd_count):
    code, out = run_cli(["jst-set", "--builtin", "double-eig", "--samples", "1000"], capsys)
    bound = json.loads(out)["bound_check"]
    assert code == 0 and bound["passed"] and bound["checked"] > 0
    assert 0 < sum(svd_count) < 1000


def test_jst_bound_takes_exact_norms_at_a_few_top_candidates(capsys, svd_count, monkeypatch):
    checks = []
    real = scanner.bound_report

    def spy(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(scanner, "bound_report", spy)
    code, out = run_cli(["jst-set", "--builtin", "double-eig", "--samples", "2000"], capsys)
    bound = json.loads(out)["bound_check"]
    assert code == 0 and bound["passed"] and len(checks) == 1
    assert 0 < sum(svd_count) <= 32  # 932 where every candidate took its norm
    # the ratio of taking the exact bound at every sample
    _, points, functions, constant, scales, exponent = checks[0]
    limits = [constant * ranklab.power_or_inf(max(1.0, s), exponent)
              for s in scales.exact(np.arange(len(points))).tolist()]
    with np.errstate(all="ignore"):
        ratios = sylv._moduli(functions, points) / np.array(limits)[:, None]
    assert bound["max_ratio"] == float(np.fmax.reduce(ratios, axis=None, initial=0.0))


def test_coefficient_bound_takes_no_svd(capsys, svd_count):
    code, out = run_cli(["split-set", "--builtin", "double-eig", "--samples", "1000"],
                        capsys)
    assert code == 0 and json.loads(out)["bound_check"]["passed"]
    assert svd_count == []


def test_jst_bound_constant_overflow_exits_3_before_any_evaluation(
        family_file, capsys, monkeypatch, svd_count):
    # (2n)**(2n**4) leaves float64 at n = 4 (ROADMAP item 6)
    four = {"n": 4, "params": ["z"], "label": "four",
            "entries": [["z", "1", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "2", "0"], ["0", "0", "0", "3"]]}
    stacks = []
    monkeypatch.setattr(MatrixFamily, "at_many", lambda self, points: stacks.append(points))
    assert cli.main(["jst-set", family_file(four)]) == 3
    assert capsys.readouterr().err.startswith("error: OverflowError: ")
    assert stacks == [] and svd_count == []


def test_verify_builds_the_norm_intervals_once_per_case(capsys, monkeypatch):
    built = {"cli": 0, "scanner": 0}

    def counted(where, real):
        def norm_scales(stack):
            built[where] += 1
            return real(stack)
        return norm_scales

    monkeypatch.setattr(cli, "norm_scales", counted("cli", cli.norm_scales))
    monkeypatch.setattr(scanner, "norm_scales", counted("scanner", scanner.norm_scales))
    assert cli.main(["verify", "--builtin", "double-eig"]) == 0
    assert built == {"cli": 1, "scanner": 0}


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    out_path = tmp_path / "seed3.json"
    code, out = run_cli(["split-set", "--builtin", "shear", "--samples", "20",
                         "--seed", "3", "--out", str(out_path)], capsys)
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["manifest"]["seed"] == 3
    src = str(Path(cli.__file__).resolve().parents[1])
    for command in ("split-set", "jst-set"):
        argv = [command, "--builtin", "shear", "--samples", "20"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "jordanscope.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert fresh.returncode == 0
        assert out == fresh.stdout


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


@pytest.mark.parametrize("argv", [
    ["scan", "--builtin", "shear", "--box=-1:1", "--res", "3", "--tol", "0.3"],
    ["scan", "--builtin", "double-eig", "--box=-1:1", "--res", "3", "--tol", "0.05"],
    ["verify", "--builtin-corpus", "--tol", "0.1"],
], ids=["scan-shear", "scan-double-eig", "verify-corpus"])
def test_tolerance_too_loose_for_the_family_is_input_error(capsys, argv):
    # the SVD threshold drops a splitting-matrix rank below n: no distinct zero
    code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err == (
        "input error: splitting-matrix rank outside the admissible band; "
        "the tolerance is too loose for this family\n")


UNWRITABLE_OUTPUTS = pytest.mark.parametrize("argv", [
    ["scan", "--builtin", "shear", "--box=-1:1", "--res", "3", "--out", "{file}"],
    ["scan", "--builtin", "shear", "--box=-1:1", "--res", "3", "--csv", "{file}"],
    ["track", "--builtin", "shear", "--path", "[[1],[2]]", "--csv", "{file}"],
    ["verify", "--builtin-corpus", "--out", "{file}"],
], ids=["scan-out", "scan-csv", "track-csv", "verify-out"])


@UNWRITABLE_OUTPUTS
def test_unwritable_output_is_input_error(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir" / "output"
    code = cli.main([str(missing) if a == "{file}" else a for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write output file:") and err.count("\n") == 1


@UNWRITABLE_OUTPUTS
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_fails_before_the_computation(tmp_path, capsys, monkeypatch,
                                                        argv, target):
    monkeypatch.setattr(cli, "resolve_family", refuse)
    monkeypatch.setattr(cli, "_verify_case", refuse)
    path = tmp_path / "no-such-dir" / "output" if target == "missing-dir" else tmp_path
    code = cli.main([str(path) if a == "{file}" else a for a in argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot write output file:") and err.count("\n") == 1


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


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**60, 10**60),
    st.floats(),  # NaN, +-inf and +-0.0 among them
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\"\\/\b\f\n\r\t\x7f", "\u00e9\u6f22\U0001f642",
                     "\u2028\ud800"]),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
        # keys that are not strings: the subtree takes json.dumps
        st.dictionaries(st.integers(-5, 5), kids, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(JSON_DOCS)
def test_json_text_is_json_dumps(doc):
    assert cli.json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)
