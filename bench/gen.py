"""Seeded inputs for the benchmark workloads.

An op list is a few fixed built-in commands followed by rounds of
generated ones. Each round visits the same strata (command, size,
family kind) in the same order, so every prefix of the list holds about
the same mix as the whole list.

Two random streams keep runs on different seeds comparable. The *shape*
stream does not depend on the seed: it fixes which entries are nonzero,
their monomials, and the multiset of diagonal entries of triangular
families, which is what the cost of an op mostly depends on. The
*value* stream is seeded: it draws every coefficient, permutes and
mirrors the diagonal, and places the paths.

The program sees only the family JSON files and the argument lists. What
the generator knows about an input (the diagonal of a triangular family,
the end of a path) travels in ``Op.facts`` so the output checks do not
have to ask the program.

No input is resampled because the program fails on it: such an input is
a measured failure, not noise.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

PARAMS = ("z", "w")

#: diagonal entries of triangular families (polynomials, see ``render``).
#: Pairwise differences are linear with unit coefficients, so collision
#: lines pass through the nodes of a dyadic grid on [-1, 1].
DIAGONAL_CHOICES = {
    1: ({(1,): 1}, {(1,): -1}, {}, {(0,): 1}),
    2: (
        {(1, 0): 1},
        {(0, 1): 1},
        {(1, 0): 1, (0, 1): 1},
        {(1, 0): -1},
        {},
        {(0, 0): 1},
    ),
}


@dataclass
class Op:
    """One CLI command on one input. ``argv`` names the family file as
    ``{family}``; the runner writes ``spec`` there and fills it in.
    ``round`` is -1 for the built-in commands at the head of the list."""

    stratum: str
    argv: list
    spec: dict = None
    facts: dict = field(default_factory=dict)
    round: int = -1


# ---------------------------------------------------------------------------
# polynomials: {exponent tuple: complex with integer parts}


def render(poly: dict, params) -> str:
    """The polynomial in the program's entry grammar."""
    terms = []
    for exps, c in sorted(poly.items()):
        re, im = int(c.real), int(c.imag)
        coeff = f"({re}{im:+d}*i)" if im else f"({re})"
        mono = [p if e == 1 else f"{p}^{e}" for p, e in zip(params, exps) if e]
        terms.append("*".join([coeff] + mono))
    return " + ".join(terms) if terms else "0"


def evaluate(poly: dict, point) -> complex:
    acc = 0j
    for exps, c in poly.items():
        term = complex(c)
        for x, e in zip(point, exps):
            term *= x**e
        acc += term
    return acc


def difference(p: dict, q: dict) -> dict:
    out = Counter(p)
    out.subtract(q)
    return {k: v for k, v in out.items() if v != 0}


def monomial(shape: random.Random, nparams: int, degree: int) -> tuple:
    exps = [0] * nparams
    for _ in range(shape.randint(0, degree)):
        exps[shape.randrange(nparams)] += 1
    return tuple(exps)


def coefficient(value: random.Random, gaussian: bool) -> complex:
    re = value.choice((-3, -2, -1, 1, 2, 3))
    return complex(re, value.choice((-1, 0, 1)) if gaussian else 0)


def random_entry(shape, value, nparams, degree, terms, gaussian) -> dict:
    monos = {monomial(shape, nparams, degree) for _ in range(terms)}
    return {m: coefficient(value, gaussian) for m in sorted(monos)}


def spec_of(grid, nparams: int, label: str) -> dict:
    params = PARAMS[:nparams]
    return {
        "n": len(grid),
        "params": list(params),
        "entries": [[render(e, params) for e in row] for row in grid],
        "label": label,
    }


# ---------------------------------------------------------------------------
# families


def dense_family(shape, value, n, nparams, degree, density):
    """Each entry nonzero with probability ``density``, one or two terms,
    Gaussian-integer coefficients: eigenvalues are generically simple."""
    return [
        [
            random_entry(shape, value, nparams, degree, shape.randint(1, 2), True)
            if shape.random() < density
            else {}
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def mirror(poly: dict, nparams: int) -> dict:
    """z -> -z for one parameter, z <-> w for two: maps the box [-1, 1]^p
    onto itself, so the cost of an op does not change."""
    if nparams == 1:
        return {e: c * (-1) ** e[0] for e, c in poly.items()}
    return {e[::-1]: c for e, c in poly.items()}


def triangular_family(shape, value, n, nparams, min_distinct):
    """Upper triangular, so the eigenvalues are the diagonal entries. They
    come from a small set, collide on known lines, and repeat (so Jump
    points occur where an off-diagonal entry vanishes). At least
    ``min_distinct`` diagonal entries differ, and some pair collides."""
    choices = DIAGONAL_CHOICES[nparams]
    while True:
        diag = [dict(shape.choice(choices)) for _ in range(n)]
        distinct = {tuple(sorted(d.items())) for d in diag}
        if len(distinct) >= min_distinct and collision_pairs(diag):
            break
    value.shuffle(diag)
    if value.random() < 0.5:
        diag = [mirror(d, nparams) for d in diag]
    grid = [
        [
            diag[i] if i == j
            else random_entry(shape, value, nparams, 1, 1, False) if j > i
            else {}
            for j in range(n)
        ]
        for i in range(n)
    ]
    return grid, diag


def collision_pairs(diag):
    """Index pairs of diagonal entries whose difference is not constant:
    its zero set is a line on which two eigenvalues collide."""
    return [
        (i, j)
        for i in range(len(diag))
        for j in range(i + 1, len(diag))
        if any(any(e) for e in difference(diag[i], diag[j]))
    ]


def random_point(value, nparams):
    return [complex(value.uniform(-1, 1), value.uniform(-1, 1))
            for _ in range(nparams)]


def crossing_path(value, diag, nparams):
    """A segment through a random point of a collision line, crossing it
    at a random fraction of its length (not at a step node)."""
    i, j = value.choice(collision_pairs(diag))
    diff = difference(diag[i], diag[j])
    unit = [tuple(int(m == k) for m in range(nparams)) for k in range(nparams)]
    pivot = next(k for k in range(nparams) if diff.get(unit[k]))
    mid = random_point(value, nparams)
    mid[pivot] = 0
    mid[pivot] = -evaluate(diff, mid) / diff[unit[pivot]]
    step = random_point(value, nparams)
    before, after = value.uniform(0.3, 1.0), value.uniform(0.3, 1.0)
    return [[m - before * s for m, s in zip(mid, step)],
            [m + after * s for m, s in zip(mid, step)]]


def path_arg(path) -> str:
    return "[" + ",".join(
        "[" + ",".join(f"[{c.real!r},{c.imag!r}]" for c in v) + "]"
        for v in path
    ) + "]"


# ---------------------------------------------------------------------------
# workloads


def scan_ops(seed: int, rounds: int = 24) -> list:
    shape, value = random.Random("scan-shape"), random.Random(f"scan-{seed}")
    ops = [Op("scan-builtin", ["scan", "--builtin", "nilpotent",
                               "--box=-1:1,-1:1", "--res", "21"])]
    for r in range(rounds):
        for n in (2, 3, 4, 5):
            for nparams in (1, 2):
                # dyadic grids: 9 nodes on [-1, 1], or 5 x 5 on [-1, 1]^2
                grid_args = [f"--box={','.join(['-1:1'] * nparams)}",
                             "--res", "9" if nparams == 1 else "5"]
                label = f"n{n}-p{nparams}-r{r}"
                dense = dense_family(shape, value, n, nparams, 2, 0.8)
                ops.append(Op(f"scan-dense-n{n}", ["scan", "{family}"] + grid_args,
                              spec_of(dense, nparams, f"scan-dense-{label}"),
                              round=r))
                tri, diag = triangular_family(shape, value, n, nparams, 1)
                ops.append(Op(f"scan-tri-n{n}", ["scan", "{family}"] + grid_args,
                              spec_of(tri, nparams, f"scan-tri-{label}"),
                              {"diag": diag}, r))
    return ops


def symbolic_ops(seed: int, rounds: int = 16) -> list:
    shape = random.Random("symbolic-shape")
    value = random.Random(f"symbolic-{seed}")
    ops = [
        Op("split-set-builtin", ["split-set", "--builtin", "double-eig"]),
        Op("verify-builtin", ["verify", "--builtin-corpus"]),
    ]
    # Repeated eigenvalues (many nonzero split minors) only up to n = 3;
    # n = 4 families have one parameter and distinct diagonal entries. A
    # 4 x 4 triangular family with one double eigenvalue has 35-49 split
    # minors and takes 2-3 s, with a triple one 399 minors and 17 s: single
    # ops that long make the run's figures hinge on a few samples.
    sizes = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 1)]
    for r in range(rounds):
        for n, nparams in sizes:
            for command in ("split-set", "jst-set"):
                label = f"{command}-n{n}-p{nparams}-r{r}"
                dense = dense_family(shape, value, n, nparams, 1, 0.5)
                ops.append(Op(f"{command}-n{n}", [command, "{family}"],
                              spec_of(dense, nparams, f"dense-{label}"),
                              {"grid": dense}, r))
                tri, _ = triangular_family(shape, value, n, nparams,
                                           1 if n < 4 else n)
                ops.append(Op(f"{command}-n{n}", [command, "{family}"],
                              spec_of(tri, nparams, f"tri-{label}"),
                              {"grid": tri}, r))
    return ops


def track_ops(seed: int, rounds: int = 24) -> list:
    shape, value = random.Random("track-shape"), random.Random(f"track-{seed}")
    ops = [Op("track-builtin", ["track", "--builtin", "shear",
                                "--path", "[[1.0],[-1.0]]", "--steps", "100"])]
    # smaller matrices more often: a step costs about n^2 polynomial
    # evaluations, and the workload needs 100+ ops per run. Four of the
    # twelve are free n = 3 paths, ranks 4-7 by cost: the median latency
    # stays inside that one stratum however many crossing paths fail,
    # instead of jumping between strata of different cost.
    slots = [(2, False), (3, False), (2, True), (4, False), (2, False),
             (5, False), (3, True), (3, False), (6, False), (2, False),
             (3, False), (3, False)]
    for r in range(rounds):
        for k, (n, crossing) in enumerate(slots):
            nparams = 1 + (r + k) % 2
            if crossing:
                grid, diag = triangular_family(shape, value, n, nparams, n)
                path = crossing_path(value, diag, nparams)
            else:
                grid = dense_family(shape, value, n, nparams, 1, 0.7)
                # spread the eigenvalues apart, so that the cost of a free
                # path does not hinge on how near it passes a collision
                zero = (0,) * nparams
                for i in range(n):
                    grid[i][i] = {**grid[i][i], zero: grid[i][i].get(zero, 0) + 4 * i}
                path = [random_point(value, nparams) for _ in range(2)]
            kind = "cross" if crossing else "free"
            ops.append(Op(f"track-{kind}-n{n}",
                          ["track", "{family}", "--path", path_arg(path),
                           "--steps", "100"],
                          spec_of(grid, nparams, f"track-{kind}-n{n}-p{nparams}-r{r}"),
                          {"grid": grid, "path": path}, r))
    return ops


WORKLOADS = {"scan": scan_ops, "symbolic": symbolic_ops, "track": track_ops}
