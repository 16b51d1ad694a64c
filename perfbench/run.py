"""Benchmark of manifold_descent: one workload per process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured with no
tracing installed.  With ``--trace 1`` it runs traced passes for half
the time, removes the tracing, checks that no wrapper is left, and runs
untraced passes for the other half (on ``corpus``, half of those at the
library's default thread count); it prints the per-layer metrics of
the traced passes and the tracing overhead.  Every output is checked in
both modes.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a readable table with
sample counts goes to stderr.  Run from the root of a checkout; the
library is imported from its ``src/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"

# Fresh interpreters timed for setup_s, in rounds of SETUP_PER_ROUND: one
# round before the timed passes, one at the end of each of SETUP_ROUNDS - 1
# equal parts of their time, and one after them, so that the reported
# median spans the whole run and not the few seconds at its ends.
SETUP_ROUNDS = 5
SETUP_PER_ROUND = 3
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import manifold_descent
manifold_descent.builtin_problems()
print(repr(time.perf_counter() - t0))
"""

# The corpus seed whose per-cell outcomes are recorded in
# corpus_reference.json; it is the CLI's default seed.
REFERENCE_SEED = 42

TERMINATIONS = ("GradientTolerance", "MaxIterations", "Diverged",
                "StoppedAtCriticalPoint", "LineSearchExhausted", "LeftDomain",
                "SingularMatrix")


def measure_setup(repeats, warm=False):
    """Seconds to import manifold_descent and build the catalog, once
    per fresh interpreter; with ``warm``, after one untimed start that
    fills caches."""
    times = []
    for i in range(repeats + warm):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(workloads.SRC)],
                             cwd=workloads.ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        if i >= warm:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def timed_passes(workload, seconds, between=None, parts=1):
    """Passes until the next one would end past ``seconds``; at least one.

    With ``between``, the time is cut into ``parts`` equal parts, and
    ``between()`` runs untimed after the pass that ends each part but
    the last.
    """
    passes, spent, part = [], 0.0, seconds / parts
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        spent += time.perf_counter() - t0
        if spent * (len(passes) + 1) / len(passes) > seconds:
            return passes
        if between is not None and spent >= part:
            between()
            part += seconds / parts


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def best_op_s(passes):
    """Each operation's fastest latency over the passes that repeated it.

    Other processes on the machine only ever slow an operation down, in
    bursts shorter than a run, so the best of a run's repeats reads the
    program and the median of them reads how busy the machine was.  The
    first, cold repeat needs no separate warm-up for the same reason.

    The corpus pass is one operation timed in parts, one per cell and
    one for the rest of ``main``; its best latency is the sum of each
    part's best.  The machine's quiet moments come and go within a
    second, so a cell of 5 to 50 ms meets one far more often than a
    whole pass of 0.8 s does: over ten busy minutes cut into 35 s
    windows, the best pass spread by 0.245 (quartile distance / median)
    and the sum of the best cells by 0.147.
    """
    if passes[0].parts is not None and len({len(p.parts) for p in passes}) == 1:
        return [sum(min(times) for times in zip(*(p.parts for p in passes)))]
    return [min(times) for times in zip(*(p.op_s for p in passes))]


def end_to_end(passes, setup_times):
    """name -> (value, unit, samples).

    ``pass_s`` is one pass with every operation at its best over the
    repeats; the percentiles are taken over the operations' best
    latencies.  ``setup_s`` is the median of fresh interpreters.
    """
    ops = best_op_s(passes)
    samples = len(passes) * len(ops)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pass_s": (sum(ops), "s", samples),
        "op_ms_p50": (1e3 * percentile(ops, 50), "ms", samples),
        "op_ms_p90": (1e3 * percentile(ops, 90), "ms", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def fail_share(passes):
    """Failed operations / attempted operations."""
    return _ratio(sum(len(p.failures) for p in passes), sum(p.attempted for p in passes))


def per_layer(totals, traced, untraced, pooled, checked, cells_changed):
    """name -> (value, unit, samples) for one traced run.

    Counts and seconds are per traced pass; seconds are self time.
    ``pooled`` holds the untraced corpus passes at the default thread
    count (empty on other workloads); ``checked`` holds every pass of
    the run whose outputs were checked.
    """
    edges, rejects, steps, terminations = totals
    names = tracer.by_name(edges)
    n = len(traced)

    def calls(name):
        return names[name][tracer.CALLS]

    def total(name):
        return names[name][tracer.TOTAL]

    def self_s(name):
        return names[name][tracer.SELF]

    def edge_calls(parent, name):
        return edges[(parent, name)][tracer.CALLS]

    m = {}
    for name in ("linalg.sym_eig", "linalg.spectral_split",
                 "manifold.contains", "manifold.radius", "manifold.retract",
                 "manifold.tangent_project",
                 "objective.value", "objective.grad", "objective.hess"):
        m[name + ".calls"] = (calls(name) / n, "count")
        m[name + ".s"] = (self_s(name) / n, "s")
    for name in ("linalg.sym_eig", "manifold.contains", "objective.grad",
                 "objective.hess"):
        m[name + ".per_step"] = (_ratio(calls(name), steps), "1/step")
    m["linalg.symmatrix.builds"] = (calls("linalg.symmatrix") / n, "count")
    m["manifold.rejects"] = (rejects / n, "count")
    m["objective.riemannian_grad.s"] = (self_s("objective.riemannian_grad") / n, "s")
    m["objective.riemannian_hess.s"] = (self_s("objective.riemannian_hess") / n, "s")

    m["optim.steps"] = (steps / n, "count")
    m["optim.run.self_s"] = (self_s("optim.run") / n, "s")
    m["optim.step_us"] = (1e6 * _ratio(total("optim.run"), steps), "us")
    for reason in TERMINATIONS:
        m["optim.terminations." + reason] = (terminations.get(reason, 0) / n, "count")
    other = sum(v for k, v in terminations.items() if k not in TERMINATIONS)
    m["optim.terminations.other"] = (other / n, "count")
    # A trial is one retraction inside the line search; a search that
    # returns (does not raise) accepted one step.
    trials = edge_calls("optim.line_search", "manifold.retract")
    accepted = calls("optim.line_search") - names["optim.line_search"][tracer.RAISED]
    m["optim.ls_trials"] = (trials / n, "count")
    m["optim.ls_accept_ratio"] = (_ratio(accepted, trials), "ratio")
    m["optim.nqn_eigh_per_step"] = (
        _ratio(edge_calls("optim.new_q_newton_step", "linalg.sym_eig"),
               calls("optim.new_q_newton_step")), "1/step")

    solves = calls("bench.smallest_eigenvalue")
    m["bench.restarts_per_solve"] = (
        _ratio(edge_calls("bench.smallest_eigenvalue", "bench.run_branch"), solves),
        "1/solve")
    overhead = total("bench.smallest_eigenvalue") - total("optim.run") if solves else 0.0
    m["bench.solve_overhead_s"] = (overhead / n, "s")
    m["bench.catalog_builds"] = (calls("objective.builtin_problems") / n, "count")
    m["bench.pool_pass_s"] = (min(p.wall_s for p in pooled) if pooled else 0.0, "s")
    emit = total("cli.main") - total("bench.corpus") if calls("cli.main") else 0.0
    m["cli.emit_s"] = (emit / n, "s")

    m["bench.cells_changed"] = (cells_changed, "count")
    m["bench.eig_err_max"] = (max(p.eig_err for p in checked), "abs")
    m["bench.eig_resid_max"] = (max(p.eig_resid for p in checked), "abs")
    m["fail_share"] = (fail_share(checked), "ratio")
    m["trace_overhead"] = (sum(best_op_s(traced)) / sum(best_op_s(untraced)), "ratio")
    return {k: (v, unit, n) for k, (v, unit) in m.items()}


def corpus_cells_changed(workload):
    """(checked pass, count) for the corpus at the reference seed: the
    count of cells whose (termination, steps, final-value bits) differ
    from corpus_reference.json, or -1 when the pass failed its checks."""
    reference = json.loads(workloads.CORPUS_REFERENCE.read_text())
    result, outcomes = workload.run_pass(seed=reference["seed"])
    if outcomes is None:
        return result, -1
    changed = workloads.cells_changed(outcomes, reference["cells"])
    if changed:
        print("cells changed against the reference: " + ", ".join(changed),
              file=sys.stderr)
    return result, len(changed)


def measure(workload, seconds, trace, setup_rounds=SETUP_ROUNDS):
    """Run one workload; returns (passes, metrics, notes)."""
    md = workload.md
    notes = []
    if not trace:
        leftover = tracer.installed_wrappers(md)
        if leftover:
            raise RuntimeError("tracing wrappers present: %s" % leftover)
        setup_times = measure_setup(SETUP_PER_ROUND, warm=True)

        def setup_round():
            setup_times.extend(measure_setup(SETUP_PER_ROUND))

        passes = timed_passes(workload, seconds, setup_round, setup_rounds - 1)
        setup_round()
        if passes[0].parts is not None and len(passes[0].parts) == 1:
            notes.append("bench.run_scenario was not called during the corpus report: "
                         "pass_s is the best whole pass, which reads higher on a busy machine")
        return passes, end_to_end(passes, setup_times), notes
    t = tracer.Tracer(md)
    t.install()
    try:
        traced = timed_passes(workload, seconds / 2.0)
    finally:
        t.uninstall()
    leftover = tracer.installed_wrappers(md)
    if leftover:
        raise RuntimeError("tracing wrappers left after uninstall: %s" % leftover)
    if t.missing:
        notes.append("hooks not found in this library: " + ", ".join(t.missing))
    untraced_s, pooled, changed = seconds / 2.0, [], 0
    if workload.name == "corpus":
        untraced_s /= 2.0
        pooled = timed_passes(workloads.Corpus(md, workload.seed, threads=None), untraced_s)
    untraced = timed_passes(workload, untraced_s)
    checked = traced + untraced + pooled
    if workload.name == "corpus":
        reference_pass, changed = corpus_cells_changed(workload)
        checked.append(reference_pass)
    metrics = per_layer(t.totals(), traced, untraced, pooled, checked, changed)
    return checked, metrics, notes


def declared_metrics(trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        md = workloads.load_library()
    except workloads.MissingSources as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](md, args.seed)
    passes, metrics, notes = measure(workload, args.seconds, bool(args.trace))

    declared = declared_metrics(bool(args.trace))
    produced = {k: unit for k, (_, unit, _) in metrics.items()}
    if produced != declared:
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(produced.items()) ^ set(declared.items())))

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for note in notes:
        print(note, file=sys.stderr)
    for reason in sorted(set(failures)):
        print("FAILED x%d: %s" % (failures.count(reason), reason), file=sys.stderr)
    print("%s seed=%d trace=%d passes=%d, wall s: %s" % (
        args.workload, args.seed, args.trace, len(passes),
        " ".join("%.3f" % p.wall_s for p in passes)), file=sys.stderr)
    for name, (value, unit, samples) in metrics.items():
        print("  %-36s %14.6g %-8s n=%d" % (name, value, unit, samples), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
