"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads

END_TO_END = ["setup_s", "pass_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"]

PER_LAYER = (
    [name + suffix
     for name in ("linalg.sym_eig", "linalg.spectral_split", "manifold.contains",
                  "manifold.radius", "manifold.retract", "manifold.tangent_project",
                  "objective.value", "objective.grad", "objective.hess")
     for suffix in (".calls", ".s")]
    + ["linalg.sym_eig.per_step", "manifold.contains.per_step",
       "objective.grad.per_step", "objective.hess.per_step",
       "linalg.symmatrix.builds", "manifold.rejects",
       "objective.riemannian_grad.s", "objective.riemannian_hess.s",
       "optim.steps", "optim.run.self_s", "optim.step_us"]
    + ["optim.terminations." + r
       for r in ("GradientTolerance", "MaxIterations", "Diverged",
                 "StoppedAtCriticalPoint", "LineSearchExhausted", "LeftDomain",
                 "SingularMatrix", "other")]
    + ["optim.ls_trials", "optim.ls_accept_ratio", "optim.nqn_eigh_per_step",
       "bench.restarts_per_solve", "bench.solve_overhead_s", "bench.catalog_builds",
       "bench.pool_pass_s", "cli.emit_s", "bench.cells_changed",
       "bench.eig_err_max", "bench.eig_resid_max", "fail_share", "trace_overhead"]
)


@pytest.fixture(scope="module")
def md():
    return workloads.load_library()


def small_eig(md, seed=0):
    return workloads.Eig(md, seed, n=5, count=4, name="eig_small")


def valid_report(md, cells):
    """A corpus report whose every cell ends on its problem's x0."""
    problems = md.builtin_problems()
    rows = [{"scenario_id": sid, "method": method,
             "final_point": [float(c) for c in problems[sid].x0],
             "final_value": 0.0, "steps": 1, "termination": "MaxIterations",
             "flags": []}
            for sid, method, _, _ in cells]
    return rows


def test_declared_metric_names():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)


def test_traced_run_reports_every_layer_metric_and_removes_wrappers(md):
    passes, metrics, notes = run.measure(small_eig(md), 0.01, trace=True)
    assert list(metrics) == PER_LAYER
    assert notes == []
    assert tracer.installed_wrappers(md) == []
    assert metrics["optim.nqn_eigh_per_step"][0] > 0
    assert metrics["fail_share"][0] == 0.0


def test_untraced_run_reports_end_to_end_metrics(md):
    passes, metrics, _ = run.measure(small_eig(md), 0.01, trace=False,
                                     setup_rounds=2)
    assert list(metrics) == END_TO_END
    assert all(v > 0 for v, _, _ in metrics.values())


def test_tracer_puts_originals_back(md):
    originals = (md.optim.sym_eig, md.linalg.sym_eig, md.bench.run_scenario,
                 md.Sphere.__dict__["retract"], md.Objective.__dict__["grad"])
    t = tracer.Tracer(md)
    t.install()
    try:
        assert md.optim.sym_eig is not originals[0]
        assert "manifold_descent.optim.sym_eig" in tracer.installed_wrappers(md)
        assert "manifold_descent.manifold.Sphere.retract" in tracer.installed_wrappers(md)
        with pytest.raises(RuntimeError):
            run.measure(small_eig(md), 0.01, trace=False, setup_rounds=2)
    finally:
        t.uninstall()
    assert tracer.installed_wrappers(md) == []
    assert (md.optim.sym_eig, md.linalg.sym_eig, md.bench.run_scenario,
            md.Sphere.__dict__["retract"], md.Objective.__dict__["grad"]) == originals


def test_self_time_excludes_nested_spans(md):
    t = tracer.Tracer(md)
    t.install()
    try:
        md.smallest_eigenvalue(np.diag([3.0, 1.0, 2.0]))
    finally:
        t.uninstall()
    edges = t.totals()[0]
    names = tracer.by_name(edges)
    calls, total, self_s, _ = names["objective.riemannian_grad"]
    inner = sum(acc[tracer.TOTAL] for (parent, _), acc in edges.items()
                if parent == "objective.riemannian_grad")
    assert ("objective.riemannian_grad", "manifold.contains") in edges
    assert self_s == pytest.approx(total - inner)


def test_valid_corpus_report_passes(md):
    cells = workloads.corpus_cells(md)
    assert len(cells) == 108
    text = json.dumps(valid_report(md, cells))
    assert workloads.corpus_failures(0, text, cells) == []


def test_off_manifold_corpus_result_raises_fail_share(md, monkeypatch):
    cells = workloads.corpus_cells(md)
    rows = valid_report(md, cells)
    sphere_cell = next(i for i, c in enumerate(cells)
                       if c[0] == "example8p" and c[1] == "r_newton")
    rows[sphere_cell]["final_point"] = [2.0, 0.0, 0.0]

    def fake_main(argv):
        print(json.dumps(rows))
        return 0

    monkeypatch.setattr(md.cli, "main", fake_main)
    result = workloads.Corpus(md, 1).run_pass()
    assert result.failures == ["example8p/r_newton ended MaxIterations off its domain"]
    assert run.fail_share([result]) == pytest.approx(1 / 108)
    # A diverged cell may end anywhere.
    rows[sphere_cell]["termination"] = "Diverged"
    assert workloads.Corpus(md, 1).run_pass().failures == []


@pytest.mark.parametrize("exit_code, text", [
    (2, "[]"),
    (0, "not json"),
    (0, "[]"),
])
def test_broken_corpus_report_fails_every_cell(md, exit_code, text):
    cells = workloads.corpus_cells(md)
    assert len(workloads.corpus_failures(exit_code, text, cells)) == len(cells)


def test_corpus_sets_thread_count_per_call(md, monkeypatch):
    seen = []

    def fake_main(argv):
        seen.append(os.environ.get("MANIFOLD_DESCENT_THREADS"))
        return 2

    monkeypatch.setattr(md.cli, "main", fake_main)
    monkeypatch.setenv("MANIFOLD_DESCENT_THREADS", "7")
    workloads.Corpus(md, 1).run_pass()
    workloads.Corpus(md, 1, threads=None).run_pass()
    assert seen == ["1", None]


def test_corpus_pass_is_timed_per_cell(md):
    run_scenario = md.bench.run_scenario
    result = workloads.Corpus(md, 1).run_pass()
    assert md.bench.run_scenario is run_scenario
    assert result.failures == []
    assert len(result.parts) == len(workloads.corpus_cells(md)) + 1
    assert sum(result.parts) == pytest.approx(result.wall_s)


def test_best_latency_of_parts_is_sum_of_best_parts():
    a = workloads.PassResult(4.5, [4.5], 1, [], parts=[1.0, 3.0, 0.5])
    b = workloads.PassResult(3.4, [3.4], 1, [], parts=[2.0, 1.0, 0.4])
    assert run.best_op_s([a, b]) == [pytest.approx(2.4)]
    # Passes that ran a different number of cells: the whole pass is timed.
    b.parts = [3.0, 0.4]
    assert run.best_op_s([a, b]) == [3.4]


def test_raising_main_fails_every_cell(md, monkeypatch):
    def broken(argv):
        raise ZeroDivisionError

    monkeypatch.setattr(md.cli, "main", broken)
    result = workloads.Corpus(md, 1).run_pass()
    assert len(result.failures) == result.attempted == 108


def test_wrong_lambda_raises_fail_share(md, monkeypatch):
    real = md.smallest_eigenvalue
    wl = small_eig(md)
    assert run.fail_share([wl.run_pass()]) == 0.0

    def shifted(A):
        lam, v = real(A)
        return lam + 1e-3, v

    monkeypatch.setattr(md, "smallest_eigenvalue", shifted)
    result = wl.run_pass()
    assert run.fail_share([result]) == 1.0
    assert all(f.startswith("lambda off by") for f in result.failures)


def test_off_sphere_vector_raises_fail_share(md, monkeypatch):
    real = md.smallest_eigenvalue
    monkeypatch.setattr(md, "smallest_eigenvalue",
                        lambda A: (lambda lam, v: (lam, 1.001 * v))(*real(A)))
    result = small_eig(md).run_pass()
    assert run.fail_share([result]) == 1.0


def test_same_seed_same_matrices_other_seed_other_matrices():
    a = workloads.random_symmetric(7, 10, 3)
    b = workloads.random_symmetric(7, 10, 3)
    c = workloads.random_symmetric(8, 10, 3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, y) for x, y in zip(a, c))
    assert all(np.array_equal(x, x.T) for x in a)


def test_cells_changed_lists_moved_cells():
    ref = [["s1", "m", "GradientTolerance", 5, "0x1.0p+0"],
           ["s2", "m", "MaxIterations", 500, None]]
    assert workloads.cells_changed(ref, ref) == []
    moved = [ref[0][:4] + ["0x1.0000000000001p+0"], ref[1]]
    assert workloads.cells_changed(moved, ref) == ["s1/m"]
    assert workloads.cells_changed(ref[:1], ref) == ["s2/m"]


def test_corpus_reference_matches_catalog(md):
    reference = json.loads(workloads.CORPUS_REFERENCE.read_text())
    assert reference["seed"] == run.REFERENCE_SEED
    assert [tuple(c[:2]) for c in reference["cells"]] == \
        [c[:2] for c in workloads.corpus_cells(md)]


def test_fails_without_sources(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eig_small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
