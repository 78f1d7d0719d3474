"""Every public function, method and property in ``src/jordanscope`` has a
reason to exist: code in ``src/`` refers to it, the benchmark pins it, or
it is on the short list below with its reason.

Tests and demos do not count: a function that only they reach is surface
to delete, and its tests move to the function that does the work. The
scan is one level deep and matches bare names. A module function counts
as referred to by a ``Name``, an ``Attribute`` or an imported name, and a
method or property by an ``Attribute``, anywhere in ``src/`` outside the
definition's own body. Docstrings and comments are not code. The
benchmark pins are the ``.calls`` names in BENCHMARK.json and the
methods in ``bench/tracing.py`` ``METHODS``, read as
``tests/test_benchmark_targets.py`` reads them. This test only reads the
files.

``python tests/test_public_surface.py`` prints the names that only a
benchmark pin keeps alive.

No module in ``src/``, ``tests/``, ``demos/`` or ``tools/`` keeps a module-level
import that it never uses, outside ``__future__`` imports, names listed
in ``__all__`` and lines marked ``# noqa``.
"""

import ast
import json
from collections import Counter

from test_benchmark_targets import ROOT, load_tracing

SRC = ROOT / "src" / "jordanscope"

#: public names that no code in src/ refers to, each kept for its reason
KEPT = {
    "jordan.local_jordan_transform":
        "criterion 9's library surface: the contract keeps it, and no command reaches it",
    "algebra.UniPoly.eval":
        "the scalar reference that tracker._horners is tested against, bit for bit",
}


def references(tree) -> Counter:
    """How often each bare name is referred to in ``tree``: ``name`` for a
    ``Name`` or an imported name, ``.name`` for an ``Attribute``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.alias):
            out[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Attribute):
            out["." + node.attr] += 1
    return out


def public_definitions(tree, prefix):
    """(name, definition, reference keys) of each public module function,
    and of each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{prefix}.{node.name}", node, (node.name, "." + node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{prefix}.{node.name}.{item.name}", item, ("." + item.name,)


def unreferenced_public_names() -> list:
    """The public names that no code in src/ refers to outside their own
    body, named as the benchmark names them: ``layer.name`` or
    ``layer.Class.name``, and a module the tracer leaves out by its own
    name."""
    layers = load_tracing().LAYERS
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        modname = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        trees[modname] = ast.parse(path.read_text(), filename=str(path))
    total = sum((references(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for modname, tree in trees.items():
        prefix = layers.get(modname, modname.rsplit(".", 1)[-1])
        for name, node, keys in public_definitions(tree, prefix):
            own = references(node)
            if all(total[key] == own[key] for key in keys):
                unreferenced.append(name)
    return unreferenced


def benchmark_pins() -> set:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = {m["name"][: -len(".calls")] for m in declared["per_layer"]
            if m["name"].endswith(".calls")}
    tracing = load_tracing()
    for modname, classes in tracing.METHODS.items():
        for cls_name, methods in classes.items():
            pins |= {f"{tracing.LAYERS[modname]}.{cls_name}.{m}" for m in methods}
    return pins


def test_every_public_name_has_a_caller_a_benchmark_pin_or_a_reason():
    unreferenced = unreferenced_public_names()
    assert sorted(set(KEPT) - set(unreferenced)) == [], "a KEPT name now has a caller"
    pins = benchmark_pins()
    only_tests = [name for name in unreferenced if name not in pins and name not in KEPT]
    assert only_tests == [], f"public names that only tests or demos reach: {only_tests}"


def unused_imports(path) -> list:
    """``file:line name`` of each module-level import in ``path`` that no
    ``Name`` or ``Attribute`` chain in the module uses."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                out.append(f"{path.relative_to(ROOT)}:{alias.lineno} {name}")
    return out


def test_no_unused_module_imports():
    paths = [path for folder in ("src", "tests", "demos", "tools")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert [item for path in paths for item in unused_imports(path)] == []


if __name__ == "__main__":
    pins = benchmark_pins()
    for name in unreferenced_public_names():
        if name in pins:
            print(name)
