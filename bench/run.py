"""The jordanscope benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workloads (``gen.py``) drive the
public CLI entry point ``jordanscope.cli.main(argv)`` in-process: a
closed loop with one client, one op at a time, ``--jobs 1``, BLAS pinned
to one thread. An op is one CLI command on one generated input. Op and
set-up times are scaled by a speed probe into reference seconds, so that
other tenants of a shared host do not move the figures (README.md).

``--trace 0`` measures the end-to-end metrics over as many rounds of the
op list as take ``--seconds`` on the machine the benchmark was defined on
(``rounds_for``). The amount of work is fixed by the workload and
``--seconds`` alone, so two runs on the same seed attempt the same ops
and fail on the same ones, however busy the host is. ``--trace 1`` runs
the rounds for half of ``--seconds`` untraced, then the same ops again
with every public jordanscope function wrapped (``tracing.py``), and
reports the per-layer metrics and the tracing overhead between the two
passes.

Outputs are checked after the timed region (``checks.py``); a failed
check makes ``correct`` false and the exit code 1. The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``, with the metrics and units named in BENCHMARK.json. The
lines before it give failures by type, latency sample counts and the
run's provenance.

``--record-digests`` runs every op of the default seed's list once and
stores the digests of their reports in ``digests.json``; do that only at
a commit whose reports are the reference.
"""

from __future__ import annotations

import os

# before numpy is imported, here or by the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

DIGEST_SEED = 1
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5
#: successful ops a timed pass needs at least, so that p90 has ten beyond it
MIN_LATENCY_SAMPLES = 110

#: untimed warm-up, part of set-up: one small op on each code path
WARMUP = {
    "scan": [["scan", "--builtin", "shear", "--box=-1:1", "--res", "5"]],
    "symbolic": [["split-set", "--builtin", "shear", "--samples", "20"],
                 ["jst-set", "--builtin", "shear", "--samples", "20"]],
    "track": [["track", "--builtin", "sqrt", "--path", "[[1.0],[2.0]]",
               "--steps", "10"]],
}


#: seconds one ``probe()`` takes on the machine the benchmark was defined
#: on (Intel Xeon, 2 vCPUs, Python 3.11.7) when it is not slowed down
PROBE_REFERENCE_S = 1.6e-3

#: how closely op times follow the probe. Scaling by the whole ratio (1)
#: over-corrects: when other tenants load the host, the probe slows more
#: than jordanscope ops do. Over four minutes of fixed scan, split-set and
#: track ops between probes on that machine, 0.6-0.8 left the least
#: variation in 16-second sums of op times (README.md).
PROBE_EXPONENT = 0.7

#: wall seconds one round of each op list takes on that machine, under
#: the load other tenants usually put on it (the built-in head of the list
#: counts as a round)
ROUND_SECONDS = {"scan": 2.7, "symbolic": 3.5, "track": 2.65}


class Fail(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


# ---------------------------------------------------------------------------
# running ops


def import_program():
    if not (SRC / "jordanscope" / "__init__.py").is_file():
        raise Fail(f"no jordanscope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jordanscope.cli

    if Path(jordanscope.cli.__file__).resolve().parent != SRC / "jordanscope":
        raise Fail(f"imported jordanscope from {jordanscope.cli.__file__}")
    return jordanscope.cli


def run_op(cli, argv):
    """(outcome, seconds, stdout) of one CLI command; outcome is "ok", "exit
    <code>" or the name of the exception that escaped ``main``."""
    # manifest() reads sys.argv, not main's argv: keep ours out of reports
    sys.argv = ["jordanscope", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a failed op is a measurement
            code = type(exc).__name__
        seconds = time.perf_counter() - start
    outcome = "ok" if code == 0 else code if isinstance(code, str) else f"exit {code}"
    return outcome, seconds, out.getvalue()


_PROBE_LIST = list(range(50000))
_PROBE_DICT = {i: i for i in _PROBE_LIST[:20000]}


def _arithmetic():
    acc = 0
    for i in range(20000):
        acc += i * i % 7


def _lookups():
    acc = 0
    for i in range(0, 200000, 37):
        acc += _PROBE_DICT.get(i * 7919 % 20000, 0) + _PROBE_LIST[i * 104729 % 50000]


def probe() -> float:
    """Seconds for a fixed piece of pure-Python work: the speed of this
    machine right now. Other tenants of a shared host slow it by up to a
    third for seconds to minutes; scaling op times by the probe keeps
    most of that out of the figures. The probe is the geometric mean of
    two loops, each timed as the mean of three runs: integer arithmetic,
    and scattered lookups in a list and a dict of a few MB, which a
    contended cache slows more than it slows arithmetic."""
    product = 1.0
    for work in (_arithmetic, _lookups):
        start = time.perf_counter()
        for _ in range(3):
            work()
        product *= (time.perf_counter() - start) / 3
    return math.sqrt(product)


def to_reference(seconds, local_probe):
    """Wall seconds, measured while ``probe()`` took ``local_probe``, in
    reference seconds."""
    return seconds * (PROBE_REFERENCE_S / local_probe) ** PROBE_EXPONENT


def measure_setup(workload):
    """Import jordanscope and run the warm-up ops: the module, and the
    time taken in wall seconds and in reference seconds."""
    before = probe()
    start = time.perf_counter()
    cli = import_program()
    for argv in WARMUP[workload]:
        outcome, _, _ = run_op(cli, argv)
        if outcome != "ok":
            raise Fail(f"warm-up {argv} failed: {outcome}")
    seconds = time.perf_counter() - start
    local = (before + probe()) / 2
    return cli, seconds, to_reference(seconds, local)


def setup_in_child(workload):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise Fail(f"set-up in a child process failed: {proc.stderr.strip()}")
    wall, scaled = proc.stdout.split()[-2:]
    return float(wall), float(scaled)


def write_inputs(ops, workdir: Path):
    """Write each generated family to its own file; return the argvs."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for k, op in enumerate(ops):
        argv = list(op.argv)
        if op.spec is not None:
            path = workdir / f"op{k:04d}.json"
            path.write_text(json.dumps(op.spec))
            argv = [str(path) if a == "{family}" else a for a in argv]
        argvs.append(argv)
    return argvs


def rounds_for(workload, seconds) -> int:
    """Rounds of the op list that take ``seconds`` on the machine the
    benchmark was defined on. A count, not a time limit: on a slower or
    busier host a run takes longer, but it still runs the same ops."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


class Pass:
    """Ops run in list order, cycling, one at a time, with a speed probe
    before each op and after the last. A pass given ``rounds`` ends where
    a round of the op list begins, once that many rounds have run and
    ``min_ok`` ops have succeeded. Whether an op succeeds depends only on
    its input, so the ops a pass runs, and its failures, depend only on
    the op list, never on the speed of the host."""

    def __init__(self):
        self.order = []  # op index of each run op
        self.outcomes = []
        self.seconds = []  # wall time of each op
        self.probes = []
        self.texts = {}  # op index -> stdout of its first run

    def run(self, cli, argvs, rounds=None, order=None, tracer=None, starts=(),
            min_ok=0):
        positions = order if order is not None else _cycle(len(argvs))
        done = -1  # the first round start opens round 0
        for k in positions:
            if k in starts:
                done += 1
                if (rounds is not None and done >= rounds
                        and self.outcomes.count("ok") >= min_ok):
                    break
            if tracer is not None:
                tracer.op = len(self.order)
            self.probes.append(probe())
            outcome, seconds, text = run_op(cli, argvs[k])
            self.order.append(k)
            self.outcomes.append(outcome)
            self.seconds.append(seconds)
            self.texts.setdefault(k, text)
        self.probes.append(probe())
        return self

    def scaled(self):
        """Op times in reference seconds: each wall time times the
        machine's speed around that op, the median of the six nearest
        probes relative to the reference probe."""
        out = []
        for i, seconds in enumerate(self.seconds):
            local = statistics.median(self.probes[max(0, i - 2): i + 4])
            out.append(to_reference(seconds, local))
        return out

    def ok(self, times):
        return [t for t, o in zip(times, self.outcomes) if o == "ok"]

    def failures(self) -> dict:
        return dict(Counter(o for o in self.outcomes if o != "ok"))


def _cycle(n):
    while True:
        yield from range(n)


# ---------------------------------------------------------------------------
# checks


def check_outputs(cli, ops, argvs, timed: Pass, workload, seed) -> list:
    problems = []
    ran_ok = [k for k in timed.texts
              if timed.outcomes[timed.order.index(k)] == "ok"]
    for k in ran_ok:
        problems += [f"op {k} ({ops[k].stratum}): {p}"
                     for p in checks.check_op(ops[k], timed.texts[k])]
    if seed == DIGEST_SEED:
        reference = json.loads(DIGESTS.read_text()).get(workload, [])
        for k in ran_ok:
            if k < len(reference) and reference[k] is not None:
                if checks.digest(timed.texts[k]) != reference[k]:
                    problems.append(f"op {k} ({ops[k].stratum}): report "
                                    "differs from the recorded digest")
    if workload == "scan":
        # first two-parameter triangular family: has Split nodes
        k = next(k for k in ran_ok if ops[k].facts.get("diag")
                 and len(ops[k].spec["params"]) == 2)
        outcome, _, text = run_op(cli, argvs[k] + ["--jobs", "2"])
        if outcome != "ok" or text != timed.texts[k]:
            problems.append(f"op {k}: scan at --jobs 2 is not byte-identical "
                            "to --jobs 1")
    return problems


def check_trace(tracer: Tracer, ops, traced: Pass) -> list:
    problems = []
    for run_id, k in enumerate(traced.order):
        command = ops[k].argv[0]
        tracks = tracer.calls_in_op(run_id, "tracker.track_path")
        if tracks != (command == "track"):
            problems.append(f"op {k}: {tracks} traced track_path calls")
        if command == "scan" and traced.outcomes[run_id] == "ok":
            nodes = len(json.loads(traced.texts[k])["points"])
            classified = tracer.calls_in_op(run_id, "scanner.classify_point")
            if classified != nodes:
                problems.append(f"op {k}: {classified} traced classify_point "
                                f"calls for {nodes} grid nodes")
    return problems


# ---------------------------------------------------------------------------
# metrics


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density over their
    ranks. Where latencies are sparse it moves less between runs than one
    order statistic or the interpolation between two."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule within each rank interval
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        ts = (i / n + (j + 0.5) * h for j in range(steps))
        weights.append(h * sum(
            math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
            for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(timed: Pass, times, setups) -> dict:
    """``times`` are the op times (wall or reference seconds) and
    ``setups`` the set-up times in the same unit. Throughput counts the
    successful ops' own time only: how long a failing op runs before it
    raises varies from input to input (on ``track``, with how far along
    the path the quadrature gives up) and is a measure of the defect, not
    of the work done. Failures count in ``success_rate``."""
    ok = timed.ok(times)
    return {
        "ops_per_s": len(ok) / sum(ok),
        "op_p50_ms": 1e3 * quantile(ok, 0.5),
        "op_p90_ms": 1e3 * quantile(ok, 0.9),
        "success_rate": len(ok) / len(timed.outcomes),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, plain: Pass, traced: Pass) -> dict:
    total = sum(traced.seconds)
    out = {}
    for name, stat in tracer.stats.items():
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.errors"] = stat.errors
        out[f"{name}.self_share"] = 100 * stat.self_s / total
    for layer, self_s in tracer.layer_self_s().items():
        out[f"{layer}.self_share"] = 100 * self_s / total
    calls = {name: stat.calls for name, stat in tracer.stats.items()}
    out["scanner.evals_per_node"] = _ratio(
        tracer.at_in_classify, calls["scanner.classify_point"])
    out["ranklab.minors_nonzero_ratio"] = _ratio(
        tracer.minors_returned, tracer.minors_enumerated)
    out["tracker.accepted_step_ratio"] = _ratio(
        tracer.track_samples, tracer.char_poly_in_track)
    out["cli.main.nonzero_exits"] = sum(
        o.startswith("exit ") for o in traced.outcomes)
    out["trace.traced_op_s"] = sum(traced.scaled())
    # both passes ran the same ops in the same order
    out["trace.overhead_pct"] = 100 * (sum(traced.scaled()) / sum(plain.scaled()) - 1)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def provenance(workload, seed, args) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((SRC / "jordanscope").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def select(metrics: dict, spec: list) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise Fail(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec}


# ---------------------------------------------------------------------------
# main


def record_digests(cli, workload, ops, argvs):
    everything = Pass().run(cli, argvs, order=range(len(argvs)))
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[workload] = [
        checks.digest(everything.texts[k]) if outcome == "ok" else None
        for k, outcome in zip(everything.order, everything.outcomes)
    ]
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(ops)} digests for {workload}, "
          f"failures {everything.failures()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _, wall, scaled = measure_setup(args.workload)
        print(wall, scaled)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = gen.WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        argvs = write_inputs(ops, workdir)
        cli, *first_setup = measure_setup(args.workload)
        if args.record_digests:
            record_digests(cli, args.workload, ops, argvs)
            return 0
        setups = [first_setup] + [setup_in_child(args.workload)
                                  for _ in range(SETUP_REPEATS - 1)]
        wall_setups, scaled_setups = zip(*setups)
        starts = {k for k, op in enumerate(ops)
                  if k == 0 or op.round != ops[k - 1].round}

        if args.trace == 0:
            timed = Pass().run(cli, argvs, starts=starts,
                               rounds=rounds_for(args.workload, args.seconds),
                               min_ok=MIN_LATENCY_SAMPLES)
            metrics = end_to_end(timed, timed.scaled(), scaled_setups)
            wall_metrics = end_to_end(timed, timed.seconds, wall_setups)
            problems = []
            listed = spec["end_to_end"]
        else:
            plain = Pass().run(cli, argvs, starts=starts,
                               rounds=rounds_for(args.workload, args.seconds / 2))
            tracer = Tracer()
            tracer.patch()
            try:
                problems = [f"trace missed {b}" for b in tracer.unpatched_bindings()]
                timed = Pass().run(cli, argvs, order=plain.order, tracer=tracer)
            finally:
                tracer.unpatch()
            problems += check_trace(tracer, ops, timed)
            metrics = per_layer(tracer, plain, timed)
            wall_metrics = {}
            listed = spec["per_layer"]
        problems += check_outputs(cli, ops, argvs, timed, args.workload, args.seed)
        result = select(metrics, listed)
        info = provenance(args.workload, args.seed, args)
    except Fail as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    ok = timed.ok(timed.seconds)
    attempted = len(timed.outcomes)
    print(f"ops: {attempted} attempted, {len(ok)} ok, error_rate "
          f"{1 - len(ok) / attempted:.4f}, failures by type {timed.failures()}, "
          f"failed ops took {sum(timed.seconds) - sum(ok):.3f} s of "
          f"{sum(timed.seconds):.3f} s")
    print(f"latency samples: {len(ok)} ({len(ok) // 10} beyond p90)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in result.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    if wall_metrics:
        print("  unscaled wall-clock figures: " + ", ".join(
            f"{k} {wall_metrics[k]:.6g}" for k in
            ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")))
    print(f"  speed probe: median {1e3 * statistics.median(timed.probes):.4g} ms, "
          f"reference {1e3 * PROBE_REFERENCE_S:.4g} ms")
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": result,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
