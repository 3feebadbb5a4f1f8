"""nomfix benchmark: one seeded workload, end-to-end or traced.

Run from the root of a source checkout (the directory holding ``src/nomfix``):

    python3 bench/run.py --workload values --seed 1 --seconds 20 --trace 0

Workloads are ``values``, ``graphs``, ``automata`` and ``cli`` (see
``workloads.py``; each states why it was chosen).  The inputs are generated
from ``--seed`` and set up several times, ``setup_s`` being the median; then
one caller runs the frozen query list in a closed loop for ``--seconds``,
timing each query and checking its answer outside the timed interval.

With ``--trace 1`` the process instead runs one set-up plus one pass of the
query list untraced, then the same again with every public callable of the
layer modules wrapped (see ``layertrace.py``), and reports per-layer counts and
times plus the tracing overhead.  End-to-end metrics only ever come from
``--trace 0`` runs, in which no wrapper is installed.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

# set up at least this many times, and until this much time has gone by
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# the reported percentiles; the tail is the highest with 10 samples beyond it
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
PROBE_REPEATS = 7

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (kind, key): "calls" and "seconds" read the wrapped
# callable named by key, "self" a module's self time.
PER_LAYER = {
    "perm.make_perm.calls": ("calls", "perm.make_perm"),
    "perm.compose.calls": ("calls", "perm.compose"),
    "perm.fresh.calls": ("calls", "perm.fresh"),
    "perm.self_s": ("self", "perm"),
    "values.act_value.calls": ("calls", "values.act_value"),
    "values.support_value.calls": ("calls", "values.support_value"),
    "values.value_eq.calls": ("calls", "values.value_eq"),
    "values.self_s": ("self", "values"),
    "fsfunc.FsFun.calls": ("calls", "fsfunc.FsFun"),
    "fsfunc.section.calls": ("calls", "fsfunc.section"),
    "fsfunc.distinct_fs_eq.calls": ("calls", "fsfunc.distinct_fs_eq"),
    "fsfunc.distinct_apply.calls": ("calls", "fsfunc.distinct_apply"),
    "fsfunc.self_s": ("self", "fsfunc"),
    "abstraction.Abstraction.calls": ("calls", "abstraction.Abstraction"),
    "abstraction.abstr_eq.calls": ("calls", "abstraction.abstr_eq"),
    "abstraction.self_s": ("self", "abstraction"),
    "nomset.Element.calls": ("calls", "nomset.Element"),
    "nomset.min_support.calls": ("calls", "nomset.min_support"),
    "nomset.self_s": ("self", "nomset"),
    "serialize.value_from_jsonable.calls": ("calls", "serialize.value_from_jsonable"),
    "serialize.self_s": ("self", "serialize"),
    "termgraph.alpha_bisim_s": ("seconds", "termgraph.alpha_bisim"),
    "termgraph.raw_bisim_s": ("seconds", "termgraph.raw_bisim"),
    "termgraph.truncation_eq_s": ("seconds", "termgraph.truncation_eq"),
    "termgraph.unfold_s": ("seconds", "termgraph.unfold"),
    "termgraph.render_tree_s": ("seconds", "termgraph.render_tree"),
    "termgraph.validate.calls": ("calls", "termgraph.validate"),
    "termgraph.validate_s": ("seconds", "termgraph.validate"),
    "termgraph.graph_from_jsonable_s": ("seconds", "termgraph.graph_from_jsonable"),
    "termgraph.self_s": ("self", "termgraph"),
    "nomauto.dfa_step.calls": ("calls", "nomauto.dfa_step"),
    "nomauto.dfa_equiv_s": ("seconds", "nomauto.dfa_equiv"),
    "nomauto.self_s": ("self", "nomauto"),
    "cli.main_s": ("seconds", "cli.main"),
}


def load_nomfix():
    """Import the layer modules afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "nomfix" or n.startswith("nomfix.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{layer: importlib.import_module(f"nomfix.{layer}")
                                    for layer in layertrace.LAYERS})


def load_helpers(root):
    """The test suite's independent oracles, bound to the current nomfix."""
    sys.modules.pop("helpers", None)
    tests = os.path.join(root, "tests")
    if tests not in sys.path:
        sys.path.insert(1, tests)
    return importlib.import_module("helpers")


def execute(query):
    """Run one query; return its latency, its output and what it raised."""
    start = time.perf_counter()
    try:
        out = query.run()
    except Exception as e:  # a raising query is a failed query, not a crash
        return time.perf_counter() - start, None, e
    return time.perf_counter() - start, out, None


def verify(query, out, error, failures):
    """Check an answer against the known one; record a failure if it differs."""
    if error is not None:
        failures.append(f"{query.kind}: {type(error).__name__}: {error}")
        return
    try:
        ok = query.check(out)
    except Exception as e:
        failures.append(f"{query.kind}: check raised {type(e).__name__}: {e}")
        return
    if not ok:
        failures.append(f"{query.kind}: wrong answer {str(out)[:200]!r}")


def tail(samples):
    """Highest ladder percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed(queries, seconds, setups, cli):
    failures = []
    latencies = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        query = queries[i % len(queries)]
        elapsed, out, error = execute(query)
        latencies.append(elapsed)
        verify(query, out, error, failures)
        i += 1
        if time.perf_counter() >= deadline:
            break
    n = len(latencies)
    p, tail_s, beyond = tail(latencies)
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_qps": n / sum(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(cli),
    }
    notes = {
        "latency_tail_ms": f"p{p:g} of {n} queries, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "largest child process" if cli else "this process",
    }
    lines = [f"{name} {value:.6g} {END_TO_END_UNITS[name]}"
             + (f"  ({notes[name]})" if name in notes else "") for name, value in metrics.items()]
    lines.append(f"error_rate {len(failures) / n:.6g}  ({len(failures)} of {n} queries failed)")
    return n, failures, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, lines


def probe_ms(argv, env):
    runs = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       check=True, timeout=60)
        runs.append((time.perf_counter() - start) * 1e3)
    return statistics.median(runs)


def traced(workload, nf, data, workdir, helpers, is_cli):
    """One untraced and one traced pass of set-up plus the query list.

    Answers are checked after each pass, so that no library call a check
    makes is counted.
    """
    failures = []

    def one_pass(tracer=None):
        """Seconds spent in set-up and in the queries."""
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            inputs = workload.setup(nf, data, workdir)
            if is_cli:
                queries = workload.in_process_queries(nf, data, inputs)
            else:
                queries = workload.queries(nf, data, inputs, helpers)
            busy = time.perf_counter() - start
            results = [(q, execute(q)) for q in queries]
        finally:
            if tracer:
                tracer.uninstall()
        for q, (elapsed, out, error) in results:
            busy += elapsed
            verify(q, out, error, failures)
        return busy, len(queries)

    gc.collect()
    untraced_s, n = one_pass()
    tracer = layertrace.Tracer()
    gc.collect()
    traced_s, _ = one_pass(tracer)
    metrics = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "calls":
            metrics[name] = (tracer.calls(key), "count")
        elif kind == "seconds":
            metrics[name] = (tracer.seconds(key), "s")
        else:
            metrics[name] = (tracer.self_s[key], "s")
    metrics["nomauto.dfa_step.calls_per_query"] = (tracer.calls("nomauto.dfa_step") / n, "count")
    # the fixed cost of one CLI process, whichever workload is traced
    env = workloads.child_env(os.getcwd())
    bare = probe_ms([sys.executable, "-c", "pass"], env)
    imported = probe_ms([sys.executable, "-c", "import nomfix.cli"], env)
    metrics["cli.interpreter_ms"] = (bare, "ms")
    metrics["cli.import_ms"] = (imported - bare, "ms")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"trace: {n} queries per pass; untraced {untraced_s:.4f} s, traced {traced_s:.4f} s")
    return 2 * n, failures, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nomfix", "__init__.py")):
        print("bench: run from the root of a nomfix checkout (no src/nomfix here)", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(root, "src"))

    workload = workloads.WORKLOADS[args.workload]
    is_cli = args.workload == "cli"
    data = workload.generate(random.Random(args.seed))
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=root)
    try:
        if args.trace:
            nf = load_nomfix()
            helpers = load_helpers(root)
            attempted, failures, metrics, lines = traced(workload, nf, data, workdir, helpers, is_cli)
        else:
            setups = []
            while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
                inputs = nf = None
                gc.collect()
                start = time.perf_counter()
                nf = load_nomfix()
                inputs = workload.setup(nf, data, workdir)
                setups.append(time.perf_counter() - start)
            helpers = load_helpers(root)
            queries = workload.queries(nf, data, inputs, helpers)
            attempted, failures, metrics, lines = timed(queries, args.seconds, setups, is_cli)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures[:10]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    print(f"# workload {args.workload} (seed {args.seed}): {workload.why}")
    for line in lines:
        print(line)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one caller",
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
    }
    print("# context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
