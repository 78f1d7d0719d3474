"""Command-line surface: JSON in, JSON reports out.

Wire conventions (schema "v1"): complex numbers serialize as [re, im]
pairs, exact rationals as "num/den" strings, polynomials as entry-
grammar strings. Every report embeds a run manifest with the command,
an input digest, tolerances, the seed and the tool version, so a run
can be reproduced byte-identically (wall-clock timing goes to stderr
only, never into the report).

``main`` resolves the family and the tolerance, runs the command, and
writes the body it returns in the one report envelope (schema, kind,
manifest, family label) to stdout or ``--out``; ``verify`` alone writes
its own report.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 internal
error (an unexpected exception, reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
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
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .algebra.exprparse import EntrySyntaxError
from .algebra.scalars import GaussianRational
from .family import MatrixFamily
from .jordan import (
    CensusInconsistencyError,
    jordan_census,
    verify_rank_identities,
)
from .corpus import CorpusCase, builtin_cases, builtin_families
from .ranklab import (
    DEFAULT_REL_TOL,
    GENERIC_RANK_NOTE,
    MINOR_DIMENSION_CAP,
    MinorSizeError,
    NonFiniteError,
    norm_scales,
)
from .scanner import (
    MAX_GRID_POINTS,
    MAX_MATRIX_SIZE,
    MAX_SAMPLES,
    MAX_STEPS,
    check_jst_bound,
    check_split_bound,
    classify_points,
    jst_defining_functions,
    scan_grid,
)
from .sylv import RankBandError, certifies_empty, check_coeff_bound, split_defining_functions
from .tracker import (
    ProbeDisagreementError,
    distinct_eigenvalues,
    splitting_amounts,
    theta_stack,
    track_path,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

TOL_ENV_VAR = "JORDANSCOPE_TOL"

#: the commands that run floating-point kernels per point; they take
#: families up to n = MAX_MATRIX_SIZE
CAPPED_COMMANDS = ("census", "scan", "track")

#: the most rational points ``verify`` draws for its square-free cross-check:
#: on a family whose eigenvalues always cluster, no draw has the generic count
CROSS_CHECK_DRAWS = 100

#: what ``main`` adds to the message of an input error of each type
INPUT_ERROR_SUFFIXES = {
    MinorSizeError: "; symbolic commands build the (2n-1) x (2n-1) splitting "
                    f"matrix, so they take n <= {(MINOR_DIMENSION_CAP + 1) // 2}",
    NonFiniteError: "; values leave the float64 range",
    RankBandError: "; the tolerance is too loose for this family",
}


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# wire helpers


def cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def from_wire_complex(v) -> complex:
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise InputError(f"cannot read complex value from {v!r}")
    try:
        return complex(*parts)
    except OverflowError:
        raise InputError("complex value beyond the float64 range") from None


#: options that change where results go or how many workers compute
#: them, never the result; the manifest leaves them out so that reports
#: are byte-identical across reruns, output paths and worker counts
NOT_IN_MANIFEST = ("--jobs", "--out", "--csv")


def manifest(argv, raw_input: bytes, rel_tol: float, seed: int) -> dict:
    """The run manifest; ``argv`` is the command line given to ``main``."""
    cleaned = []
    words = iter(argv)
    for arg in words:
        if arg in NOT_IN_MANIFEST:
            next(words, None)  # its value
        elif arg.split("=", 1)[0] not in NOT_IN_MANIFEST:
            cleaned.append(arg)
    return {
        "command": cleaned,
        "input_sha256": hashlib.sha256(raw_input).hexdigest(),
        "tolerances": {"rel_tol": rel_tol},
        "seed": seed,
        "tool_version": __version__,
        "timing": None,  # kept out of reports so reruns are byte-identical
    }


_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_NAMES.get(text, text)


#: the text of a scalar of exactly this type, as ``json.dumps`` writes it
_SCALARS = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def json_text(doc, newline="\n") -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, each level built by
    one ``str.join``; every line break of the text is ``newline``. Any
    other type, or a dict with a key that is not a str, takes
    ``json.dumps`` of its subtree."""
    scalar = _SCALARS.get
    inner = newline + "  "
    kind = type(doc)
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        items = [s(v) if (s := scalar(type(v))) else json_text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict and all(type(k) is str for k in doc):
        if not doc:
            return "{}"
        items = [encode_basestring_ascii(k) + ": "
                 + (s(v) if (s := scalar(type(v))) else json_text(v, inner))
                 for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if s := scalar(kind):
        return s(doc)
    return json.dumps(doc, sort_keys=True, indent=2).replace("\n", newline)


def check_output_path(path: str):
    """Refuse, before any work, an output path in a missing directory or
    naming a directory: an input error. :func:`write_text` still turns an
    ``OSError`` of the write itself into one."""
    if os.path.isdir(path):
        raise InputError(f"cannot write output file: {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise InputError(f"cannot write output file: no directory for {path!r}")


def write_text(path: str, text: str):
    """Write ``text`` to ``path``; a path that cannot be written is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write output file: {err}") from err


def emit(doc: dict, out_path=None):
    text = json_text(doc) + "\n"
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def write_csv(path: str, header, rows):
    """One comma-separated line for the header and each row, fields by ``str``."""
    write_text(path, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


def resolve_family(args):
    """The family named by ``--builtin`` or read from the family file, and
    the bytes whose digest the manifest records."""
    if args.builtin:
        families = builtin_families()
        if args.builtin not in families:
            raise InputError(
                f"unknown builtin {args.builtin!r}; choose from "
                f"{sorted(families)}"
            )
        fam = families[args.builtin]
        raw = json.dumps(fam.to_spec_dict(), sort_keys=True).encode()
        return fam, raw
    if not args.family:
        raise InputError("provide a family file or --builtin NAME")
    try:
        with open(args.family, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read family file: {err}") from err
    try:
        doc = json.loads(raw)
    # JSONDecodeError, an int over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise InputError(f"family file is not valid JSON: {err}") from err
    try:
        fam = MatrixFamily.from_spec_dict(doc)
    except (KeyError, ValueError, EntrySyntaxError) as err:
        raise InputError(f"invalid family spec: {err}") from err
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
    # JSONDecodeError, an int over the digit limit, or nesting too deep
    except (ValueError, RecursionError) as err:
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
        length = math.inf
    if not math.isfinite(length):  # a difference of finite values can be inf
        raise InputError("--path segment lengths overflow float64")
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
# subcommands: each takes (args, family, rel_tol) and returns the exit code
# and the report body, or None for no report; ``main`` adds the envelope


def cmd_census(args, fam, rel_tol):
    point = parse_point(args.point, fam.nparams)
    try:
        census = jordan_census(fam.at(point), rel_tol=rel_tol)
    except CensusInconsistencyError as err:
        sys.stderr.write(f"census inconsistency: {err}\n")
        return EXIT_VALIDATION, None
    return EXIT_OK, {"point": [cplx(c) for c in point], "census": census_doc(census)}


def cmd_split_set(args, fam, rel_tol):
    pts = unit_polydisk_samples(fam.nparams, args.samples, args.seed)
    functions, r_max = split_defining_functions(fam.char_poly_family(), seed=args.seed)
    bound = check_coeff_bound(functions, fam.char_poly_family(), pts)
    return EXIT_OK if bound.passed else EXIT_VALIDATION, {
        "r_max": r_max,
        "functions": [h.to_string(fam.params) for h in functions],
        "empty": certifies_empty(functions),
        "generic_rank_note": GENERIC_RANK_NOTE,
        "bound_check": {
            "samples": args.samples,
            "passed": bound.passed,
            "max_ratio": bound.max_ratio,
        },
    }


def cmd_jst_set(args, fam, rel_tol):
    pts = unit_polydisk_samples(fam.nparams, args.samples, args.seed)
    res = jst_defining_functions(fam, seed=args.seed)
    bound = check_jst_bound(fam, res, pts)
    return EXIT_OK if bound.passed else EXIT_VALIDATION, {
        "rank_values": {str(k): v for k, v in res.rank_values.items()},
        "k0": res.k0,
        # schema-v1 constants: Theta has polynomial entries (Gauss's lemma)
        "denominator": "1",
        "denominator_is_one": True,
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
        "capped": res.functions is None,
        "empty": res.whole_space_stable,
        "notes": res.notes,
        "bound_check": bound_doc(bound),
    }


def cmd_scan(args, fam, rel_tol):
    box = parse_box(args.box, fam.nparams)
    resolution = parse_resolution(args.res, fam.nparams)
    radius = args.probe_radius
    if radius is not None and not (math.isfinite(radius) and radius > 0):
        raise InputError(f"--probe-radius must be finite and > 0, got {radius}")
    jobs = min(checked_count("--jobs", args.jobs), os.cpu_count() or 1)
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        report = scan_grid(fam, box, resolution, rel_tol, args.probe_radius,
                           chunk_map=pool.map if pool else map, chunks=jobs)
    point_docs = [point_doc(p) for p in report.points]
    if args.csv:
        write_csv(args.csv, [f"re_{p}" for p in fam.params] + ["kind", "rank_theta"],
                  ([c[0] for c in d["point"]]
                   + [d["kind"], ";".join(map(str, d["rank_theta"]))]
                   for d in point_docs))
    return EXIT_OK, {
        "params": fam.params,
        "box": [[lo, hi] for lo, hi in report.box],
        "resolution": report.resolution,
        "probe_radius": report.probe_radius,
        "summary": report.summary,
        "rank_theta_maxima": list(report.rank_theta_maxima),
        "points": point_docs,
    }


def cmd_track(args, fam, rel_tol):
    checked_count("--steps", args.steps, MAX_STEPS)
    path = parse_path(args.path, fam.nparams)
    result = track_path(fam, path, steps=args.steps, rel_tol=rel_tol)
    if args.csv:
        write_csv(args.csv, ["t", "branch", "lambda_re", "lambda_im", "multiplicity"],
                  ([s.t, idx, b.real, b.imag, m] for s in result.samples
                   for idx, (b, m) in enumerate(zip(s.branches, s.multiplicities))))
    return EXIT_OK, {
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


def _verify_case(case: CorpusCase, rel_tol: float, seed: int):
    """Run the identity/bound battery on a case's family; yield (label, ok)
    pairs. A family with no known answers is a case with only a name."""
    fam, label = case.family, case.name
    rng = random.Random(seed)
    non_stable = [point for point, _ in case.non_stable]
    known_bad = non_stable + ([] if case.split_point is None else [case.split_point])

    # rank identity suite at the stable point and at random points away
    # from the known bad ones
    sample_points = [case.stable_point] if case.stable_point else []
    while len(sample_points) < 4:
        cand = tuple(rng.uniform(0.4, 1.3) for _ in range(fam.nparams))
        if not any(all(abs(a - b) < 0.05 for a, b in zip(cand, bad))
                   for bad in known_bad):
            sample_points.append(cand)
    censuses = {}
    for pt in sample_points:
        a = fam.at(pt)
        try:
            censuses[pt] = jordan_census(a, rel_tol=rel_tol)
        except CensusInconsistencyError as err:
            yield f"{label}: census at {pt} ({err})", False
            continue
        report = verify_rank_identities(a, censuses[pt], rel_tol)
        yield f"{label}: rank identities at {pt}", report.passed

    # expected census at the designated stable point
    if case.stable_point and case.stable_census:
        census = censuses.get(case.stable_point)
        yield (f"{label}: census at {case.stable_point} = {case.stable_census}",
               census is not None and census.aggregate == case.stable_census)

    # the family's symbolic Theta, exact at rational points, against the
    # floating product over the eigenvalue clusters there
    jst = jst_defining_functions(fam, seed=seed)
    check = f"{label}: square-free product cross-check"
    ok, compared = True, 0
    for _ in range(CROSS_CHECK_DRAWS):
        pt_exact = [
            GaussianRational(Fraction(rng.randint(1, 24), rng.randint(1, 4)))
            for _ in range(fam.nparams)
        ]
        a = fam.at([complex(x) for x in pt_exact])
        clusters = distinct_eigenvalues(a, rel_tol)
        if len(clusters) != jst.distinct_degree:
            continue  # point fell on the splitting set; resample
        sq = np.array([[complex(e.eval_exact(pt_exact)) for e in row] for row in jst.theta])
        direct = theta_stack(a[None], [[(lam, 1) for lam, _ in clusters]])[0][0]
        if np.linalg.norm(sq - direct, 2) > 1e-6 * (1 + np.linalg.norm(direct, 2)):
            ok = False
        compared += 1
        if compared == 5:
            break
    else:
        check += f": only {compared} of 5 points compared in {CROSS_CHECK_DRAWS} draws"
        ok = False
    yield check, ok

    # splitting amounts at the known split point, at two probe radii
    if case.split_point and case.splitting_amounts:
        try:
            amounts = {splitting_amounts(fam, case.split_point, probe_radius=radius,
                                         rel_tol=rel_tol).amounts
                       for radius in (1e-2, 5e-3)}
            yield (f"{label}: splitting amounts at {case.split_point}",
                   amounts == {case.splitting_amounts})
        except ProbeDisagreementError as err:
            yield f"{label}: splitting amounts ({err})", False

    # classification of the known non-stable points, as one run
    if non_stable:
        classes = classify_points(fam, non_stable, probe_radius=1e-2, rel_tol=rel_tol)
        for (point, kind), pc in zip(case.non_stable, classes):
            yield f"{label}: {point} classified {kind}", pc.kind.value == kind

    # norm bounds
    pts = unit_polydisk_samples(fam.nparams, 200, seed)
    coeff = check_coeff_bound(jst.split_functions, fam.char_poly_family(), pts)
    yield f"{label}: coefficient bound on split minors", coeff.passed
    scales = norm_scales(fam.at_many(pts))  # one norm interval per point for both
    split = check_split_bound(fam, jst.split_functions, pts, scales)
    yield f"{label}: norm bound on split functions", split.passed
    bound = check_jst_bound(fam, jst, pts, scales)
    if bound.applicable:
        yield f"{label}: norm bound on non-stable-set functions", bound.passed
    else:
        yield f"{label}: non-stable-set bound {bound.note}", True


def cmd_verify(args, rel_tol) -> int:
    if args.builtin_corpus:
        raw, cases = b"builtin-corpus", builtin_cases()
    else:
        fam, raw = resolve_family(args)
        cases = [CorpusCase(fam.label or "family", fam)]
    lines = [line for case in cases for line in _verify_case(case, rel_tol, args.seed)]
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

    def common(p):
        p.add_argument("family", nargs="?", help="family spec JSON file")
        p.add_argument("--builtin", help="use a built-in family by name instead")
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
        for path in (args.out, getattr(args, "csv", None)):
            if path:
                check_output_path(path)
        if args.command == "verify":  # its report has no family label
            code = cmd_verify(args, effective_tol(args))
        else:
            fam, raw = resolve_family(args)
            if args.command in CAPPED_COMMANDS and fam.n > MAX_MATRIX_SIZE:
                raise InputError(f"n = {fam.n} exceeds the supported size "
                                 f"{MAX_MATRIX_SIZE}")
            rel_tol = effective_tol(args)
            code, body = args.func(args, fam, rel_tol)
            if body is not None:
                emit({"schema": "v1", "kind": args.command,
                      "manifest": manifest(args.argv, raw, rel_tol, args.seed),
                      "family_label": fam.label, **body}, args.out)
    except (InputError, MinorSizeError, NonFiniteError, RankBandError) as err:
        suffix = INPUT_ERROR_SUFFIXES.get(type(err), "")
        sys.stderr.write(f"input error: {err}{suffix}\n")
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
