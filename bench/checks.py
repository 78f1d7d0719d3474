"""Output checks, run after the timed region.

Each check takes an op and the text it printed and returns a list of
problems (empty when the output is right). Apart from the digests, the
checks do not ask the program anything: they use what the generator
knows about the input, numpy's eigensolver and sympy. Those two are
imported inside the checks that use them, so that importing this module
adds nothing to the program's measured set-up time.
"""

from __future__ import annotations

import hashlib
import json

import gen

#: eigenvalues at the end of a path: |branch - eigenvalue| below this,
#: relative to 1 + |A|
TRACK_TOL = 1e-6


def canonical(value):
    """The report with numerically zero floats cleared and the rest cut to
    nine significant digits, so that a different BLAS kernel's last bits
    do not change the digest while any real change does."""
    if isinstance(value, float):
        return 0.0 if abs(value) < 1e-9 else float(f"{value:.9g}")
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    return value


def digest(text: str) -> str:
    """sha256 of a report without its ``manifest`` block. ``verify``
    prints PASS/FAIL lines rather than JSON; those are hashed as text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        body = text
    else:
        doc.pop("manifest", None)
        body = json.dumps(canonical(doc), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def collision_nodes_split(op, report) -> list:
    """Grid nodes on a known collision line of a triangular family must
    classify as Split."""
    diag = op.facts["diag"]
    lines = [gen.difference(diag[i], diag[j]) for i, j in gen.collision_pairs(diag)]
    problems = []
    for pdoc in report["points"]:
        node = [complex(re, im) for re, im in pdoc["point"]]
        on_line = any(gen.evaluate(line, node) == 0 for line in lines)
        if on_line and pdoc["kind"] != "Split":
            problems.append(f"node {node} on a collision line is {pdoc['kind']}")
    return problems


def track_end_matches_eigvals(op, report) -> list:
    """The branches at the end of the path are numpy's eigenvalues of the
    family there, each with its multiplicity."""
    import numpy as np

    last = report["samples"][-1]
    if last["t"] != 1.0:  # tracking stopped at a split event near the end
        return []
    end = op.facts["path"][-1]
    a = np.array([[gen.evaluate(e, end) for e in row] for row in op.facts["grid"]])
    tol = TRACK_TOL * (1 + np.linalg.norm(a, 2))
    branches = [complex(re, im) for re, im in last["branches"]]
    hits = [0] * len(branches)
    for lam in np.linalg.eigvals(a):
        dists = [abs(lam - b) for b in branches]
        k = dists.index(min(dists))
        if dists[k] > tol:
            return [f"eigenvalue {lam} is {dists[k]:.3g} from every branch"]
        hits[k] += 1
    if hits != last["multiplicities"]:
        return [f"eigenvalue counts {hits} != multiplicities {last['multiplicities']}"]
    return []


def split_minor_is_discriminant(op, report) -> list:
    """For n <= 3 with a generically square-free characteristic
    polynomial, the one full-size split minor is +- its discriminant."""
    import sympy

    n = len(op.facts["grid"])
    if n > 3 or report["r_max"] != 2 * n - 1:
        return []
    names = op.spec["params"]
    symbols = dict(zip(names, sympy.symbols(names)))
    lam = sympy.Symbol("lam")

    def expr(poly):
        return sum(
            (sympy.Integer(int(c.real)) + sympy.I * int(c.imag))
            * sympy.Mul(*[symbols[p] ** e for p, e in zip(names, exps)])
            for exps, c in poly.items()
        )

    a = sympy.Matrix([[expr(e) for e in row] for row in op.facts["grid"]])
    disc = sympy.discriminant(a.charpoly(lam).as_expr(), lam)
    (text,) = report["functions"]
    minor = sympy.sympify(text.replace("^", "**"),
                          locals={**symbols, "i": sympy.I})
    if sympy.expand(disc - minor) != 0 and sympy.expand(disc + minor) != 0:
        return [f"split minor {text} is not +- the discriminant"]
    return []


#: checks by command, for generated ops that carry the facts they need
CHECKS = {
    "scan": ("diag", collision_nodes_split),
    "track": ("path", track_end_matches_eigvals),
    "split-set": ("grid", split_minor_is_discriminant),
}


def check_op(op, text) -> list:
    fact, check = CHECKS.get(op.argv[0], (None, None))
    if check is None or fact not in op.facts:
        return []
    return check(op, json.loads(text))
