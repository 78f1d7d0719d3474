"""``tools/diff.py`` on a short command list: this tree against itself,
against a copy whose ``__version__`` differs (every report names it in
its manifest, and ``--version`` prints it), and against a tree with no
sources; and its field-by-field comparison on reports held in memory."""

import json
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
        "split-set shear: stdout differs at $.manifest.tool_version (ok)",
        "census sqrt: stdout differs at $.manifest.tool_version (ok)",
        f"3 of 4 commands differ from {tmp_path}",
    ]


def test_a_tree_without_sources_cannot_be_compared(tmp_path, capsys):
    assert diff.report(tmp_path, COMMANDS) == 2
    assert capsys.readouterr().err.startswith("diff cannot run: no jordanscope sources")


REPORT = {"summary": {"Split": 1}, "points": [{"point": [[0.5, -0.25]], "eig": [1.2345678901]}]}


def report_text(**changes):
    doc = json.loads(json.dumps(REPORT))
    doc["points"][0].update(changes)
    return json.dumps(doc, indent=2)


def test_identical_reports_give_nothing():
    assert diff.compare(report_text(), report_text()) is None


def test_a_float_moved_in_its_tenth_digit_is_within_tolerance():
    assert diff.compare(report_text(), report_text(eig=[1.2345678902])) == (
        False, "within tolerance, worst float difference 1e-10 at $.points[0].eig[0]")
    # moved in its eighth digit, it goes beyond the tolerance
    assert diff.compare(report_text(), report_text(eig=[1.2345679901])) == (
        True, "stdout differs at $.points[0].eig[0]")


def test_a_list_of_another_length_is_reported_with_its_path():
    assert diff.compare(report_text(), report_text(point=[[0.5, -0.25], [1.0, 0.0]])) == (
        True, "stdout differs at $.points[0].point")
