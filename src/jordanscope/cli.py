"""Command-line surface: JSON in, JSON reports out.

Wire conventions (schema "v1"): complex numbers serialize as [re, im]
pairs, exact rationals as "num/den" strings, polynomials as entry-
grammar strings. Every report embeds a run manifest with the command,
an input digest, tolerances, the seed and the tool version, so a run
can be reproduced byte-identically (wall-clock timing goes to stderr
only, never into the report).

Exit codes: 0 success, 1 validation failure, 2 input error, 3 internal
error (an unexpected exception, reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import math
import multiprocessing
import os
import random
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .algebra.exprparse import EntrySyntaxError
from .algebra.scalars import GaussianRational
from .family import MatrixFamily
from .jordan import (
    CensusInconsistencyError,
    jordan_census,
    theta_from_squarefree,
    theta_product,
    verify_rank_identities,
)
from .corpus import builtin_cases, builtin_families
from .ranklab import (
    DEFAULT_REL_TOL,
    MINOR_DIMENSION_CAP,
    MinorSizeError,
    NonFiniteError,
)
from .scanner import (
    MAX_GRID_POINTS,
    MAX_MATRIX_SIZE,
    MAX_SAMPLES,
    MAX_STEPS,
    check_jst_bound,
    check_split_bound,
    classify_point,
    jst_defining_functions,
    scan_grid,
)
from .sylv import check_coeff_bound, split_defining_functions
from .tracker import distinct_eigenvalues, splitting_amounts, track_path

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

TOL_ENV_VAR = "JORDANSCOPE_TOL"


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# wire helpers


def cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def from_wire_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex(v[0], v[1])
    raise InputError(f"cannot read complex value from {v!r}")


#: options that change where results go or how many workers compute
#: them, never the result; the manifest leaves them out so that reports
#: are byte-identical across reruns, output paths and worker counts
NOT_IN_MANIFEST = ("--jobs", "--out", "--csv")


def manifest(argv, raw_input: bytes, rel_tol: float, seed: int) -> dict:
    """The run manifest; ``argv`` is the command line given to ``main``."""
    cleaned = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg in NOT_IN_MANIFEST:
            skip = True
            continue
        if arg.split("=", 1)[0] in NOT_IN_MANIFEST:
            continue
        cleaned.append(arg)
    return {
        "command": cleaned,
        "input_sha256": hashlib.sha256(raw_input).hexdigest(),
        "tolerances": {"rel_tol": rel_tol},
        "seed": seed,
        "tool_version": __version__,
        "timing": None,  # kept out of reports so reruns are byte-identical
    }


def emit(doc: dict, out_path=None):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_family(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read family file: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"family file is not valid JSON: {err}") from err
    try:
        fam = MatrixFamily.from_spec_dict(doc)
    except (KeyError, ValueError, EntrySyntaxError) as err:
        raise InputError(f"invalid family spec: {err}") from err
    return fam, raw


def resolve_family(args):
    if getattr(args, "builtin", None):
        families = builtin_families()
        if args.builtin not in families:
            raise InputError(
                f"unknown builtin {args.builtin!r}; choose from "
                f"{sorted(families)}"
            )
        fam = families[args.builtin]
        raw = json.dumps(fam.to_spec_dict(), sort_keys=True).encode()
        return fam, raw
    if not getattr(args, "family", None):
        raise InputError("provide a family file or --builtin NAME")
    return load_family(args.family)


def floating_family(args):
    """resolve_family for the commands that take n <= MAX_MATRIX_SIZE."""
    fam, raw = resolve_family(args)
    if fam.n > MAX_MATRIX_SIZE:
        raise InputError(f"n = {fam.n} exceeds the supported size {MAX_MATRIX_SIZE}")
    return fam, raw


def parse_point(text: str, nparams: int):
    parts = text.split(",")
    if len(parts) != nparams:
        raise InputError(f"expected {nparams} coordinates, got {len(parts)}")
    out = []
    for part in parts:
        try:
            value = complex(part.strip().replace("i", "j"))
        except ValueError as err:
            raise InputError(f"bad coordinate {part!r}") from err
        if not cmath.isfinite(value):
            raise InputError(f"coordinate {part!r} is not finite")
        out.append(value)
    return tuple(out)


def parse_box(text: str, nparams: int):
    parts = text.split(",")
    if len(parts) != nparams:
        raise InputError(f"expected {nparams} intervals, got {len(parts)}")
    out = []
    for part in parts:
        try:
            lo, hi = (float(x) for x in part.split(":"))
        except ValueError as err:
            raise InputError(f"bad interval {part!r} (use lo:hi)") from err
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
            raise InputError(f"interval {part!r} must have finite ends that differ")
        out.append((lo, hi))
    return out


def parse_resolution(text: str, nparams: int):
    try:
        resolution = [int(r) for r in text.split(",")]
    except ValueError as err:
        raise InputError(f"bad --res {text!r} (use integers)") from err
    if len(resolution) == 1:
        resolution = resolution * nparams
    if len(resolution) != nparams:
        raise InputError(f"--res takes one value or one per parameter ({nparams}), "
                         f"got {len(resolution)}")
    if min(resolution) < 2:
        raise InputError("--res must be at least 2 per axis")
    total = math.prod(resolution)
    if total > MAX_GRID_POINTS:
        raise InputError(f"grid size {total} exceeds cap {MAX_GRID_POINTS}")
    return resolution


def parse_path(text: str, nparams: int):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"--path must be JSON: {err}") from err
    if not isinstance(doc, list) or len(doc) < 2:
        raise InputError("--path needs a JSON list of at least two vertices")
    path = []
    for vertex in doc:
        if not isinstance(vertex, list) or len(vertex) != nparams:
            raise InputError(f"each vertex needs {nparams} coordinates")
        vertex = tuple(from_wire_complex(v) for v in vertex)
        if not all(cmath.isfinite(c) for c in vertex):
            raise InputError("path coordinates must be finite")
        path.append(vertex)
    # the tracker's measure: Euclidean segment lengths
    try:
        length = sum(abs(x - y) ** 2 for a, b in zip(path, path[1:])
                     for x, y in zip(a, b))
    except OverflowError:
        raise InputError("--path segment lengths overflow float64") from None
    if length == 0:
        raise InputError("--path has zero length")
    return path


def effective_tol(args) -> float:
    tol, source = args.tol, "--tol"
    if tol is None:
        env = os.environ.get(TOL_ENV_VAR)
        if not env:
            return DEFAULT_REL_TOL
        try:
            tol, source = float(env), TOL_ENV_VAR
        except ValueError as err:
            raise InputError(f"bad {TOL_ENV_VAR}={env!r}") from err
    if not 0 < tol < 1:  # also refuses nan
        raise InputError(f"{source} must lie strictly between 0 and 1, got {tol}")
    return tol


def checked_count(option: str, value: int, cap: float = math.inf) -> int:
    """value, if 1 <= value <= cap; an input error otherwise."""
    if value < 1:
        raise InputError(f"{option} must be at least 1, got {value}")
    if value > cap:
        raise InputError(f"{option} must be at most {cap}, got {value}")
    return value


def unit_polydisk_samples(nparams: int, count: int, seed: int) -> np.ndarray:
    """``count`` points of the box [-1, 1]^(2 nparams): shape (count, nparams).

    Each coordinate lies in the square |Re|, |Im| <= 1, so the points
    fill a product of squares, not the unit polydisk: about 21 % of the
    coordinates (1 - pi/4) have modulus above 1, up to sqrt(2).

    The values are those of ``complex(rng.uniform(-1, 1), rng.uniform(-1, 1))``
    per parameter per sample with ``rng = random.Random(seed)``, bit for bit,
    drawn as one array. ``uniform(-1, 1)`` is ``-1 + 2.0 * random()``, and
    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` for two
    consecutive 32-bit Mersenne Twister outputs a, b; every step but the
    last sum is exact in float64. ``getrandbits(32 k)`` returns k
    consecutive outputs with the first in the lowest word.
    """
    checked_count("--samples", count, MAX_SAMPLES)
    words = 4 * nparams * count  # two outputs per float, two floats per coordinate
    raw = random.Random(seed).getrandbits(32 * words).to_bytes(4 * words, "little")
    a, b = np.frombuffer(raw, dtype="<u4").reshape(-1, 2).T
    unit = ((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
    return (-1.0 + 2.0 * unit).view(complex).reshape(count, nparams)


# ---------------------------------------------------------------------------
# serialization of result objects


def census_doc(census) -> dict:
    return {
        "eigenvalues": [cplx(l) for l in census.eigenvalues],
        "multiplicities": list(census.multiplicities),
        "blocks": [
            {str(size): count for size, count in sorted(b.items())}
            for b in census.blocks
        ],
        "aggregate": {str(k): v for k, v in census.aggregate.items()},
    }


def point_doc(pc) -> dict:
    return {
        "point": [cplx(c) for c in pc.point],
        "kind": pc.kind.value,
        "rank_theta": list(pc.rank_theta),
        "census": census_doc(pc.census) if pc.census is not None else None,
        "note": pc.note,
    }


def bound_doc(report) -> dict:
    return {
        "label": report.label,
        "checked": report.checked,
        "passed": report.passed,
        "applicable": report.applicable,
        "max_ratio": report.max_ratio,
        "violations": [
            {**v, "point": [cplx(c) for c in v["point"]]}
            for v in report.violations[:10]
        ],
        "note": report.note,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_census(args) -> int:
    fam, raw = floating_family(args)
    rel_tol = effective_tol(args)
    point = parse_point(args.point, fam.nparams)
    try:
        census = jordan_census(fam.at(point), rel_tol=rel_tol)
    except CensusInconsistencyError as err:
        sys.stderr.write(f"census inconsistency: {err}\n")
        return EXIT_VALIDATION
    doc = {
        "schema": "v1",
        "kind": "census",
        "manifest": manifest(args.argv, raw, rel_tol, args.seed),
        "family_label": fam.label,
        "point": [cplx(c) for c in point],
        "census": census_doc(census),
    }
    emit(doc, args.out)
    return EXIT_OK


def cmd_split_set(args) -> int:
    fam, raw = resolve_family(args)
    rel_tol = effective_tol(args)
    pts = unit_polydisk_samples(fam.nparams, args.samples, args.seed)
    res = split_defining_functions(fam.char_poly_family(), seed=args.seed)
    bound = check_coeff_bound(res.functions, fam.char_poly_family(), pts)
    empty = any(
        h.is_constant() and not h.constant_value().is_zero()
        for h in res.functions
    )
    doc = {
        "schema": "v1",
        "kind": "split-set",
        "manifest": manifest(args.argv, raw, rel_tol, args.seed),
        "family_label": fam.label,
        "r_max": res.r_max,
        "functions": [h.to_string(fam.params) for h in res.functions],
        "empty": empty,
        "generic_rank_note": res.generic_rank_note,
        "bound_check": {
            "samples": args.samples,
            "passed": bound.passed,
            "max_ratio": bound.max_ratio,
        },
    }
    emit(doc, args.out)
    return EXIT_OK if bound.passed else EXIT_VALIDATION


def cmd_jst_set(args) -> int:
    fam, raw = resolve_family(args)
    rel_tol = effective_tol(args)
    pts = unit_polydisk_samples(fam.nparams, args.samples, args.seed)
    res = jst_defining_functions(fam, seed=args.seed)
    bound = check_jst_bound(fam, res, pts)
    doc = {
        "schema": "v1",
        "kind": "jst-set",
        "manifest": manifest(args.argv, raw, rel_tol, args.seed),
        "family_label": fam.label,
        "rank_values": {str(k): v for k, v in res.rank_values.items()},
        "k0": res.k0,
        "denominator": res.denominator.to_string(fam.params),
        "denominator_is_one": res.denominator_is_one,
        "split_functions": [h.to_string(fam.params) for h in res.split_functions],
        "rank_minor_functions": {
            str(k): [h.to_string(fam.params) for h in v]
            for k, v in res.rank_minor_functions.items()
        },
        "functions": (
            [h.to_string(fam.params) for h in res.functions]
            if res.functions is not None
            else None
        ),
        "capped": res.capped,
        "empty": res.whole_space_stable,
        "notes": res.notes,
        "bound_check": bound_doc(bound),
    }
    emit(doc, args.out)
    ok = bound.passed or not bound.applicable
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_scan(args) -> int:
    fam, raw = floating_family(args)
    rel_tol = effective_tol(args)
    box = parse_box(args.box, fam.nparams)
    resolution = parse_resolution(args.res, fam.nparams)
    radius = args.probe_radius
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise InputError(f"--probe-radius must be finite and > 0, got {radius}")
    jobs = min(checked_count("--jobs", args.jobs), os.cpu_count() or 1)

    def scan(chunk_map=map):
        return scan_grid(fam, box, resolution, rel_tol, args.probe_radius,
                         chunk_map=chunk_map, chunks=jobs)

    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            report = scan(pool.map)
    else:
        report = scan()
    point_docs = [point_doc(p) for p in report.points]
    doc = {
        "schema": "v1",
        "kind": "scan",
        "manifest": manifest(args.argv, raw, rel_tol, args.seed),
        "family_label": fam.label,
        "params": fam.params,
        "box": [[lo, hi] for lo, hi in report.box],
        "resolution": report.resolution,
        "probe_radius": report.probe_radius,
        "summary": report.summary,
        "rank_theta_maxima": list(report.rank_theta_maxima),
        "points": point_docs,
    }
    emit(doc, args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            header = [f"re_{p}" for p in fam.params] + ["kind", "rank_theta"]
            fh.write(",".join(header) + "\n")
            for pdoc in point_docs:
                coords = [repr(c[0]) for c in pdoc["point"]]
                fh.write(
                    ",".join(
                        coords
                        + [pdoc["kind"], ";".join(map(str, pdoc["rank_theta"]))]
                    )
                    + "\n"
                )
    return EXIT_OK


def cmd_track(args) -> int:
    fam, raw = floating_family(args)
    rel_tol = effective_tol(args)
    checked_count("--steps", args.steps, MAX_STEPS)
    path = parse_path(args.path, fam.nparams)
    result = track_path(fam, path, steps=args.steps, rel_tol=rel_tol)
    doc = {
        "schema": "v1",
        "kind": "track",
        "manifest": manifest(args.argv, raw, rel_tol, args.seed),
        "family_label": fam.label,
        "steps": args.steps,
        "samples": [
            {
                "t": s.t,
                "point": [cplx(c) for c in s.point],
                "branches": [cplx(b) for b in s.branches],
                "multiplicities": list(s.multiplicities),
            }
            for s in result.samples
        ],
        "events": [
            {
                "type": "split",
                "t_bracket": list(e.t_bracket),
                "point_bracket": [
                    [cplx(c) for c in e.point_bracket[0]],
                    [cplx(c) for c in e.point_bracket[1]],
                ],
            }
            for e in result.events
        ],
    }
    emit(doc, args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,branch,lambda_re,lambda_im,multiplicity\n")
            for s in result.samples:
                for idx, (b, m) in enumerate(
                    zip(s.branches, s.multiplicities)
                ):
                    fh.write(f"{s.t!r},{idx},{b.real!r},{b.imag!r},{m}\n")
    return EXIT_OK


def _verify_family(fam: MatrixFamily, case, rel_tol: float, seed: int, lines):
    """Run the identity/bound battery; append (label, ok) pairs."""
    label = case.name if case else (fam.label or "family")
    rng = random.Random(seed)

    def away_from_known_bad(pt) -> bool:
        if not case:
            return True
        for bad, _ in case.non_stable:
            if all(abs(a - b) < 0.05 for a, b in zip(pt, bad)):
                return False
        if case.split_point is not None and all(
            abs(a - b) < 0.05 for a, b in zip(pt, case.split_point)
        ):
            return False
        return True

    # rank identity suite at sample points
    sample_points = []
    if case and case.stable_point:
        sample_points.append(case.stable_point)
    while len(sample_points) < 4:
        cand = tuple(rng.uniform(0.4, 1.3) for _ in range(fam.nparams))
        if away_from_known_bad(cand):
            sample_points.append(cand)
    for pt in sample_points:
        try:
            a = fam.at(pt)
            census = jordan_census(a, rel_tol=rel_tol)
            report = verify_rank_identities(a, census, rel_tol)
            lines.append((f"{label}: rank identities at {pt}", report.passed))
        except CensusInconsistencyError as err:
            lines.append((f"{label}: census at {pt} ({err})", False))

    # expected census at the designated stable point
    if case and case.stable_point and case.stable_census:
        census = jordan_census(fam.at(case.stable_point), rel_tol=rel_tol)
        lines.append(
            (
                f"{label}: census at {case.stable_point} = {case.stable_census}",
                census.aggregate == case.stable_census,
            )
        )

    # direct product vs square-free route at rational points
    jst = jst_defining_functions(fam, seed=seed)
    generic_m = jst.squarefree.distinct_degree
    ok = True
    compared = 0
    while compared < 5:
        pt_exact = [
            GaussianRational(Fraction(rng.randint(1, 24), rng.randint(1, 4)))
            for _ in range(fam.nparams)
        ]
        pt = [complex(x) for x in pt_exact]
        a = fam.at(pt)
        clusters = distinct_eigenvalues(a, rel_tol)
        if len(clusters) != generic_m:
            continue  # point fell on the splitting set; resample
        sq = theta_from_squarefree(fam.at_exact(pt_exact)).astype(complex)
        direct = theta_product(a, [lam for lam, _ in clusters])
        if np.linalg.norm(sq - direct, 2) > 1e-6 * (1 + np.linalg.norm(direct, 2)):
            ok = False
        compared += 1
    lines.append((f"{label}: square-free product cross-check", ok))

    # splitting amounts at the known split point
    if case and case.split_point and case.splitting_amounts:
        try:
            sa = splitting_amounts(fam, case.split_point, probe_radius=1e-2,
                                   rel_tol=rel_tol)
            sa_half = splitting_amounts(fam, case.split_point, probe_radius=5e-3,
                                        rel_tol=rel_tol)
            lines.append(
                (
                    f"{label}: splitting amounts at {case.split_point}",
                    sa.amounts == case.splitting_amounts
                    and sa_half.amounts == case.splitting_amounts,
                )
            )
        except Exception as err:  # noqa: BLE001 - report, don't crash the battery
            lines.append((f"{label}: splitting amounts ({err})", False))

    # classification of the known non-stable points
    if case:
        for point, kind in case.non_stable:
            pc = classify_point(fam, point, probe_radius=1e-2, rel_tol=rel_tol)
            lines.append(
                (f"{label}: {point} classified {kind}", pc.kind.value == kind)
            )

    # norm bounds
    pts = unit_polydisk_samples(fam.nparams, 200, seed)
    coeff = check_coeff_bound(jst.split_functions, fam.char_poly_family(), pts)
    lines.append((f"{label}: coefficient bound on split minors", coeff.passed))
    split = check_split_bound(fam, jst.split_functions, pts)
    lines.append((f"{label}: norm bound on split functions", split.passed))
    bound = check_jst_bound(fam, jst, pts)
    if bound.applicable:
        lines.append((f"{label}: norm bound on non-stable-set functions",
                      bound.passed))
    else:
        lines.append((f"{label}: non-stable-set bound NOT APPLICABLE "
                      f"({bound.note})", True))


def cmd_verify(args) -> int:
    rel_tol = effective_tol(args)
    lines = []
    if args.builtin_corpus:
        raw = b"builtin-corpus"
        for case in builtin_cases():
            _verify_family(case.family, case, rel_tol, args.seed, lines)
    else:
        fam, raw = resolve_family(args)
        _verify_family(fam, None, rel_tol, args.seed, lines)
    failures = [label for label, ok in lines if not ok]
    for label, ok in lines:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {label}\n")
    doc = {
        "schema": "v1",
        "kind": "verify",
        "manifest": manifest(args.argv, raw, rel_tol, args.seed),
        "checks": [{"label": label, "passed": ok} for label, ok in lines],
        "passed": not failures,
    }
    if args.out:
        emit(doc, args.out)
    return EXIT_OK if not failures else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after: every
    ``parse_args`` returns a new namespace, and no option has a mutable
    default."""
    parser = argparse.ArgumentParser(
        prog="jordanscope",
        description=(
            "Rank-based analysis of parameterized complex matrix families: "
            "eigenvalue splitting sets, Jordan structure jumps, defining "
            "polynomials and norm bounds."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family=True):
        if family:
            p.add_argument("family", nargs="?", help="family spec JSON file")
            p.add_argument(
                "--builtin", help="use a built-in family by name instead"
            )
        p.add_argument("--tol", type=float, default=None,
                       help=f"relative rank tolerance (or ${TOL_ENV_VAR})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomized steps")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("census", help="Jordan block census at a point")
    common(p)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, e.g. 1.0,0.5 or 1+2i")
    p.set_defaults(func=cmd_census)

    samples_help = ("bound-check sample count; each coordinate's real and "
                    "imaginary parts are uniform in [-1, 1]")
    for name, zero_set, func in (("split-set", "splitting", cmd_split_set),
                                 ("jst-set", "non-Jordan-stable", cmd_jst_set)):
        p = sub.add_parser(name, help=f"defining polynomials of the {zero_set} set")
        common(p)
        p.add_argument("--samples", type=int, default=1000, help=samples_help)
        p.set_defaults(func=func)

    p = sub.add_parser("scan", help="classify every node of a parameter grid")
    common(p)
    p.add_argument("--box", required=True,
                   help="per-parameter interval lo:hi, comma-separated")
    p.add_argument("--res", required=True,
                   help="grid resolution per axis (single value or list)")
    p.add_argument("--probe-radius", type=float, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at most the CPU count)")
    p.add_argument("--csv", default=None, help="also write a CSV grid projection")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("track", help="continue eigenvalue branches along a path")
    common(p)
    p.add_argument("--path", required=True,
                   help='JSON polyline, e.g. "[[1.0],[-1.0]]" or [[re,im],...]')
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--csv", default=None, help="also write branch samples as CSV")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("verify", help="identity and bound validation battery")
    common(p)
    p.add_argument("--builtin-corpus", action="store_true",
                   help="run over all built-in families with known answers")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    started = time.monotonic()
    try:
        code = args.func(args)
    except InputError as err:
        sys.stderr.write(f"input error: {err}\n")
        return EXIT_INPUT
    except EntrySyntaxError as err:
        sys.stderr.write(f"entry parse error: {err}\n")
        return EXIT_INPUT
    except MinorSizeError as err:
        sys.stderr.write(
            f"input error: {err}; symbolic commands build the (2n-1) x (2n-1) "
            f"splitting matrix, so they take n <= {(MINOR_DIMENSION_CAP + 1) // 2}\n"
        )
        return EXIT_INPUT
    except NonFiniteError as err:
        sys.stderr.write(f"input error: {err}; values leave the float64 range\n")
        return EXIT_INPUT
    except Exception as err:  # noqa: BLE001 - no input ends in a traceback
        message = " ".join(str(err).split())
        sys.stderr.write(f"error: {type(err).__name__}: {message}\n")
        return EXIT_INTERNAL
    sys.stderr.write(
        f"[jordanscope] {args.command} finished in "
        f"{time.monotonic() - started:.3f}s\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
