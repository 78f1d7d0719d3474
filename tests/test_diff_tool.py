"""``tools/diff.py`` on a short command list: this tree against itself,
against a copy whose ``__version__`` differs (every report names it in
its manifest, and ``--version`` prints it), and against a tree with no
sources."""

import shutil
import sys

from test_benchmark_targets import ROOT

sys.path.insert(0, str(ROOT / "tools"))
import diff  # noqa: E402

COMMANDS = [
    ("version", ["--version"]),
    ("split-set shear", ["split-set", "--builtin", "shear", "--samples", "5"]),
    ("census sqrt", ["census", "--builtin", "sqrt", "--point", "0.5"]),
    ("bad input", ["track", "--builtin", "sqrt", "--path", "[[1]]"]),
]


def test_a_tree_against_itself_differs_nowhere(capsys):
    assert diff.report(ROOT, COMMANDS) == 0
    assert capsys.readouterr().out == f"0 of 4 commands differ from {ROOT}\n"


def test_a_changed_version_names_the_commands_it_changes(tmp_path, capsys):
    shutil.copytree(ROOT / "src" / "jordanscope", tmp_path / "src" / "jordanscope",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "jordanscope" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "0.0.'))
    assert diff.report(tmp_path, COMMANDS) == 1
    assert capsys.readouterr().out.splitlines() == [
        "version: stdout differs (ok)",
        "split-set shear: stdout differs (ok)",
        "census sqrt: stdout differs (ok)",
        f"3 of 4 commands differ from {tmp_path}",
    ]


def test_a_tree_without_sources_cannot_be_compared(tmp_path, capsys):
    assert diff.report(tmp_path, COMMANDS) == 2
    assert capsys.readouterr().err.startswith("diff cannot run: no jordanscope sources")
