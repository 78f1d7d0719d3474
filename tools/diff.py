"""Report bytes against a parent tree: the commands whose exit outcome or
standard output differ between another checkout and this one.

    python tools/diff.py PARENT_TREE

The commands are every op of the three benchmark workloads at seed 1
(``bench/gen.py``); ``split-set``, ``jst-set``, ``verify`` and ``census``
on each built-in family; ``split-set`` and ``jst-set`` on each
``tests/data`` file; ``verify --builtin-corpus``; and ``track --builtin
shear`` on the ``KNOWN_FAILURES`` paths, so that a change which moves
one of them from a failure to a report or an input error shows it. Each
tree runs them in its own process, on its own ``src/``, with the same
argv and input files, through this checkout's ``bench/run.py``
``write_inputs`` and ``run_op``, which it imports and does not change.

Each differing command is printed with both outcomes. Where both outputs
parse as JSON they are compared field by field: exit outcomes, keys, list
lengths, strings and integers must be equal, and floats agree within
``TOLERANCE`` * (1 + |x|), x the parent's value. A command within that
tolerance is printed with its worst float difference and its path, and
one beyond it with the first path that goes beyond it. The summary line
counts the commands that differ beyond the tolerance, and names how many
more differ within it. Exit code 0 when none differs beyond it, 1 when
some do, 2 when the comparison cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DATA = ROOT / "tests" / "data"
SEED = 1
#: relative float tolerance of the field-by-field comparison
TOLERANCE = 1e-9
#: (path, steps) of ``track --builtin shear`` inputs that failed when
#: added: two precision failures of the quadrature (exit 3), and a
#: contour beyond float64, which exited 3 and is now an input error
KNOWN_FAILURES = [("[[0],[1e154]]", "2"), ("[[1],[0]]", "10"),
                  ("[[1.2e154],[1.3e154]]", "2")]


class Fail(Exception):
    """The comparison cannot run (exit code 2)."""


class Beyond(Exception):
    """Two reports differ beyond the tolerance at the path it holds."""


def commands(workdir: Path) -> list:
    """(name, argv) of every command, with the workloads' inputs written
    under ``workdir``."""
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import run
    from jordanscope.corpus import builtin_families

    out = []
    for workload, ops_of in gen.WORKLOADS.items():
        ops = ops_of(SEED)
        argvs = run.write_inputs(ops, workdir / workload)
        out += [(f"{workload} op {k} ({op.stratum})", argv)
                for k, (op, argv) in enumerate(zip(ops, argvs))]
    for name, family in builtin_families().items():
        point = ",".join(["0.5+0.25i"] * family.nparams)
        for argv in (["split-set"], ["jst-set"], ["verify"], ["census", "--point", point]):
            out.append((f"{argv[0]} --builtin {name}", [*argv, "--builtin", name]))
    for path in sorted(DATA.glob("*.json")):
        for command in ("split-set", "jst-set"):
            out.append((f"{command} tests/data/{path.name}", [command, str(path)]))
    out.append(("verify --builtin-corpus", ["verify", "--builtin-corpus"]))
    for path, steps in KNOWN_FAILURES:
        argv = ["track", "--builtin", "shear", "--path", path, "--steps", steps]
        out.append((" ".join(argv), argv))
    return out


def worker(tree: Path) -> int:
    """Run the argvs that stdin lists on ``tree``'s program; write to
    stdout, for each, its outcome and its output."""
    sys.path.insert(0, str(BENCH))
    import run  # pins BLAS to one thread before numpy is imported

    sys.path.insert(0, str(tree / "src"))
    import jordanscope.cli

    if Path(jordanscope.cli.__file__).resolve().parent != (tree / "src" / "jordanscope").resolve():
        print(f"imported jordanscope from {jordanscope.cli.__file__}", file=sys.stderr)
        return 2
    results = []
    for argv in json.load(sys.stdin):
        outcome, _, text = run.run_op(jordanscope.cli, argv)
        results.append([outcome, text])
    json.dump(results, sys.stdout)
    return 0


def outcomes(trees, argvs) -> list:
    """Each tree's [outcome, output] list, from one worker process per
    tree, the workers running side by side."""
    procs = []
    for tree in trees:
        if not (tree / "src" / "jordanscope" / "__init__.py").is_file():
            raise Fail(f"no jordanscope sources under {tree}")
        procs.append(subprocess.Popen(
            [sys.executable, __file__, "--worker", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
    texts = [proc.communicate(json.dumps(argvs))[0] for proc in procs]
    for tree, proc in zip(trees, procs):
        if proc.returncode:
            raise Fail(f"the worker on {tree} exited {proc.returncode}")
    return [json.loads(text) for text in texts]


def worst_float(was, now, path="$"):
    """(gap, path) of the largest float difference between two parsed
    reports; Beyond at the first path where they differ otherwise, or by
    more than the tolerance."""
    if type(was) is not type(now):
        raise Beyond(path)
    if isinstance(was, dict):
        if list(was) != list(now):
            raise Beyond(path)
        pairs = [(f"{path}.{key}", was[key], now[key]) for key in was]
    elif isinstance(was, list):
        if len(was) != len(now):
            raise Beyond(path)
        pairs = [(f"{path}[{k}]", a, b) for k, (a, b) in enumerate(zip(was, now))]
    elif was == now or isinstance(was, float) and math.isnan(was) and math.isnan(now):
        return 0.0, path
    elif isinstance(was, float) and math.isfinite(was) and (
            abs(now - was) <= TOLERANCE * (1 + abs(was))):
        return abs(now - was), path
    else:
        raise Beyond(path)
    return max((worst_float(a, b, key) for key, a, b in pairs),
               key=lambda found: found[0], default=(0.0, path))


def compare(was: str, now: str):
    """How two outputs differ: None when they are the same text; else
    (beyond, note), ``beyond`` true unless both parse as JSON and agree
    within the tolerance."""
    if was == now:
        return None
    try:
        reports = json.loads(was), json.loads(now)
    except ValueError:
        return True, "stdout differs"
    try:
        gap, path = worst_float(*reports)
    except Beyond as err:
        return True, f"stdout differs at {err}"
    return False, f"within tolerance, worst float difference {gap:.3g} at {path}"


def report(parent: Path, named) -> int:
    """Print each of the (name, argv) commands whose outcome or output
    differs between ``parent`` and this checkout; the exit code."""
    try:
        before, after = outcomes([parent, ROOT], [argv for _, argv in named])
    except Fail as err:
        print(f"diff cannot run: {err}", file=sys.stderr)
        return 2
    changed = within = 0
    for (name, _), (was, text_was), (now, text_now) in zip(named, before, after):
        if was != now:
            print(f"{name}: outcome {was} -> {now}")
            changed += 1
        elif found := compare(text_was, text_now):
            beyond, note = found
            print(f"{name}: {note} ({now})")
            changed += beyond
            within += not beyond
    more = f" ({within} more within tolerance)" if within else ""
    print(f"{changed} of {len(named)} commands differ from {parent}{more}")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path, help="the parent checkout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.tree)
    with tempfile.TemporaryDirectory() as workdir:
        return report(args.tree.resolve(), commands(Path(workdir)))


if __name__ == "__main__":
    sys.exit(main())
