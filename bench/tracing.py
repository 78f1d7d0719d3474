"""Per-layer tracing from outside the program.

The tracer wraps the public functions of every jordanscope module, plus a
few methods, and patches *every* binding of each one: the defining
module, each ``from .x import f`` copy in another module, and the class
attribute for methods. Call-time imports (``from .tracker import ...``
inside a function body) read the defining module, so they see the wrapper
too. ``unpatched_bindings`` proves that nothing was missed.

Each call is a span. Spans nest on a stack, carry the current op id and
their parent span, and are folded into per-function totals when they
close: calls, self time (duration minus the time of child spans) and
exceptions that escaped. Spans are not kept, so a run with millions of
polynomial evaluations stays small.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

#: module -> layer; ``corpus`` is data only and is not traced
LAYERS = {
    "jordanscope.algebra.exprparse": "algebra",
    "jordanscope.algebra.matrices": "algebra",
    "jordanscope.algebra.multipoly": "algebra",
    "jordanscope.algebra.scalars": "algebra",
    "jordanscope.algebra.unipoly": "algebra",
    "jordanscope.family": "family",
    "jordanscope.ranklab": "ranklab",
    "jordanscope.sylv": "sylv",
    "jordanscope.jordan": "jordan",
    "jordanscope.tracker": "tracker",
    "jordanscope.scanner": "scanner",
    "jordanscope.cli": "cli",
}

#: methods traced besides module functions: the per-point kernels. Other
#: methods (scalar and polynomial arithmetic) run millions of times per
#: op, and wrapping them would measure the tracer.
METHODS = {
    "jordanscope.algebra.multipoly": {"MultiPoly": ("eval_complex", "eval_exact")},
    "jordanscope.family": {
        "MatrixFamily": ("at", "at_exact", "char_poly_family", "char_poly_at",
                         "operator_norm_at"),
    },
}


class Stat:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Span:
    __slots__ = ("name", "op", "parent", "start", "child_s")

    def __init__(self, name, op, parent, start):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = start
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> Stat
        self.layer_of = {}  # name -> layer
        self.op = None  # id of the op being run
        self.top = None  # innermost open span
        self.per_op = {}  # (op, name) -> calls, for the names in ``per_op_names``
        self.per_op_names = {"scanner.classify_point", "tracker.track_path"}
        self.minors_returned = 0
        self.minors_enumerated = 0
        self.track_samples = 0
        self.char_poly_in_track = 0
        self.at_in_classify = 0
        self._patched = []  # (owner, attribute, original, wrapper)
        self.wrapped = set()  # original functions that have a wrapper

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        clock = time.perf_counter
        count_op = name in self.per_op_names
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer.op, tracer.top, clock())
            tracer.top = span
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                tracer.top = span.parent
                duration = clock() - span.start
                stat.calls += 1
                stat.self_s += duration - span.child_s
                if span.parent is not None:
                    span.parent.child_s += duration
                if count_op:
                    key = (span.op, name)
                    tracer.per_op[key] = tracer.per_op.get(key, 0) + 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def targets(self):
        """(owner, attribute, function, metric name) for every traced
        function, at its definition."""
        out = []
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == modname):
                    out.append((module, attr, fn, f"{layer}.{attr}"))
            for cls_name, methods in METHODS.get(modname, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    out.append((cls, attr, vars(cls)[attr],
                                f"{layer}.{cls_name}.{attr}"))
        names = [t[3] for t in out]
        if len(set(names)) != len(names):
            raise RuntimeError("two traced functions share a metric name")
        return out

    def patch(self):
        wrappers = {}
        for owner, attr, fn, name in self.targets():
            self.layer_of[name] = name.split(".")[0]
            wrappers[fn] = self._wrap(name, fn)
            self._set(owner, attr, fn, wrappers[fn])
        # the copies made by ``from .x import f`` in other modules
        for module in jordanscope_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, value, wrappers[value])
        self.wrapped = set(wrappers)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    def unpatch(self):
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def unpatched_bindings(self):
        """Module globals and class attributes that still hold an
        original traced function; empty when patching is complete."""
        missed = []
        for module in jordanscope_modules():
            owners = [module] + [
                v for v in vars(module).values()
                if inspect.isclass(v) and v.__module__.startswith("jordanscope")
            ]
            for owner in owners:
                for attr, value in vars(owner).items():
                    if inspect.isfunction(value) and value in self.wrapped:
                        missed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return missed

    # -- results -------------------------------------------------------------

    def inside(self, name) -> bool:
        span = self.top
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False

    def calls_in_op(self, op, name) -> int:
        return self.per_op.get((op, name), 0)

    def layer_self_s(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            layer = self.layer_of[name]
            out[layer] = out.get(layer, 0.0) + stat.self_s
        return out


def jordanscope_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "jordanscope" or name.startswith("jordanscope."))
            and m is not None]


# ---------------------------------------------------------------------------
# counters read off arguments and results, for the ratio metrics


def _observe_minors(tracer, args, result):
    m, order = args[0], args[1]
    rows, cols = len(m), len(m[0])
    tracer.minors_returned += len(result)
    tracer.minors_enumerated += math.comb(rows, order) * math.comb(cols, order)


def _observe_track(tracer, args, result):
    tracer.track_samples += len(result.samples)


def _observe_char_poly_at(tracer, args, result):
    if tracer.inside("tracker.track_path"):
        tracer.char_poly_in_track += 1


def _observe_at(tracer, args, result):
    if tracer.inside("scanner.classify_point"):
        tracer.at_in_classify += 1


OBSERVERS = {
    "ranklab.minors": _observe_minors,
    "tracker.track_path": _observe_track,
    "family.MatrixFamily.char_poly_at": _observe_char_poly_at,
    "family.MatrixFamily.at": _observe_at,
}
