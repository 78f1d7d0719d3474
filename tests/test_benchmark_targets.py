"""The benchmark's traced mode needs every function it names to exist.

``bench/run.py --trace 1`` stops when a ``<name>.calls`` metric listed in
BENCHMARK.json has no traced function behind it, so deleting or renaming
such a function breaks the benchmark. This test only reads the files.
"""

import importlib.util
import json
from pathlib import Path

import jordanscope.cli  # noqa: F401 - loads every traced module

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_call_count_has_a_traced_function():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"][: -len(".calls")] for m in declared["per_layer"]
              if m["name"].endswith(".calls")}
    targets = {name for *_, name in load_tracing().Tracer().targets()}
    assert wanted, "BENCHMARK.json lists no call counts"
    assert sorted(wanted - targets) == []
