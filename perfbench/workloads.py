"""Benchmark workloads: inputs made from a seed, one pass over a fixed
list of operations, and the correctness check of every output.

Each workload is one process with one client in a closed loop: the next
operation starts when the previous one has returned.

- ``corpus``: ``manifold_descent.cli.main(["corpus", "--format", "json",
  "--seed", S])`` with stdout captured and ``MANIFOLD_DESCENT_THREADS=1``;
  one operation per pass.
- ``eig_large``: ``smallest_eigenvalue(A)`` on 6 seeded random symmetric
  matrices with n = 300.
- ``eig_small``: the same call on 300 seeded matrices with n = 10.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# An eigen solve is correct when |lambda - eigvalsh(A)[0]| is within
# EIG_VALUE_RTOL * max(1, ||A||_2) and the vector has unit norm to
# EIG_NORM_ATOL.
EIG_VALUE_RTOL = 1e-6
EIG_NORM_ATOL = 1e-8

CORPUS_REFERENCE = Path(__file__).resolve().parent / "corpus_reference.json"


class MissingSources(RuntimeError):
    """The checkout has no importable src/manifold_descent."""


def load_library():
    """Import manifold_descent from this checkout's src/ and nowhere else."""
    init = SRC / "manifold_descent" / "__init__.py"
    if not init.is_file():
        raise MissingSources("no %s in this checkout" % init.relative_to(ROOT))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import manifold_descent
    import manifold_descent.cli  # noqa: F401  (cli is not imported by the package)

    if Path(manifold_descent.__file__).resolve() != init.resolve():
        raise MissingSources("manifold_descent was imported from %s"
                             % manifold_descent.__file__)
    return manifold_descent


@dataclasses.dataclass
class PassResult:
    """One pass: its wall time, the latency of each operation, and what
    the checks found; eig_err and eig_resid are maxima over the solves
    that passed their check.  ``parts`` times the single operation of a
    corpus pass in parts: one per cell and one for the rest of ``main``."""

    wall_s: float
    op_s: list
    attempted: int
    failures: list  # one reason string per failed operation
    eig_err: float = 0.0
    eig_resid: float = 0.0
    parts: list = None


def random_symmetric(seed, n, count):
    """``count`` symmetric n x n matrices (B + B^T)/2 with B standard normal."""
    rng = np.random.default_rng([int(seed), n])
    B = rng.standard_normal((count, n, n))
    return [0.5 * (b + b.T) for b in B]


def _call(fn, *args):
    # A workload must keep running when one operation raises; the
    # traceback goes to stderr and the operation counts as failed.
    try:
        return fn(*args), None
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return None, "raised %s" % type(exc).__name__


# -- corpus ------------------------------------------------------------


def corpus_cells(md):
    """The (scenario, method, domain) cells a corpus report must list, in
    order.  Methods without the ``r_`` prefix run on flat ambient space,
    where the domain is None and only length and finiteness are checked."""
    problems = md.builtin_problems()
    return [
        (sid, method, problems[sid].objective.domain if method.startswith("r_") else None,
         len(problems[sid].x0))
        for sid in problems
        for method in md.METHOD_ORDER
    ]


def corpus_failures(exit_code, text, cells):
    """One reason per failed cell of a ``corpus --format json`` report.

    Every cell fails when ``main`` exited non-zero or the report does not
    parse back to exactly the expected cells.  Otherwise a cell fails
    when it did not end ``Diverged`` and its final point is off the
    domain it ran on.
    """
    if exit_code != 0:
        return ["main exited %r" % (exit_code,)] * len(cells)
    try:
        rows = json.loads(text)
        labels = [(r["scenario_id"], r["method"]) for r in rows]
    except (ValueError, TypeError, KeyError):
        return ["report is not a JSON list of cells"] * len(cells)
    if labels != [(sid, method) for sid, method, _, _ in cells]:
        return ["report lists %d cells, not the %d expected" % (len(rows), len(cells))] \
            * len(cells)
    failures = []
    for row, (sid, method, domain, dim) in zip(rows, cells):
        if row["termination"] == "Diverged":
            continue
        if not _on_domain(row["final_point"], domain, dim):
            failures.append("%s/%s ended %s off its domain"
                            % (sid, method, row["termination"]))
    return failures


def _on_domain(point, domain, dim):
    if point is None or len(point) != dim or any(c is None for c in point):
        return False
    x = np.array(point, dtype=float)
    if domain is None:
        return bool(np.all(np.isfinite(x)))
    try:
        return bool(domain.contains(x))
    except ValueError:
        return False


def corpus_outcomes(text):
    """Per cell: [scenario, method, termination, steps, final-value bits].

    The report prints every float with 17 significant digits, so
    ``float.hex`` of the parsed value is the exact bit pattern; a
    non-finite value is printed as null and kept as None.
    """
    out = []
    for r in json.loads(text):
        v = r["final_value"]
        out.append([r["scenario_id"], r["method"], r["termination"], r["steps"],
                    None if v is None else float(v).hex()])
    return out


def cells_changed(outcomes, reference):
    """Labels of cells whose outcome differs from the reference."""
    ref = {(c[0], c[1]): c for c in reference}
    now = {(c[0], c[1]): c for c in outcomes}
    return sorted("%s/%s" % key for key in ref.keys() | now.keys()
                  if ref.get(key) != now.get(key))


class Corpus:
    """The corpus report through the CLI.

    ``threads`` is the value of ``MANIFOLD_DESCENT_THREADS`` during each
    call, or None to run at the library's default thread count.  Timed
    passes run serially: on a machine of two virtual CPUs shared with
    other guests, the default pool of two threads hands the interpreter
    lock from CPU to CPU, and its pass time follows how fast the host
    wakes an idle CPU (1.05 s to 2.1 s for the same pass) more than it
    follows the program.
    """

    name = "corpus"

    def __init__(self, md, seed, threads=1):
        self.md = md
        self.seed = int(seed)
        self.argv = ["corpus", "--format", "json", "--seed", str(self.seed)]
        self.cells = corpus_cells(md)
        self.threads = threads

    def report(self, argv):
        """Run ``main(argv)`` with stdout captured; returns (exit code or
        None, text, failure reason or None, seconds, seconds of each cell).

        Cells are timed by a hook on ``bench.run_scenario`` that reads
        the clock twice per cell and is in place only during the call.
        """
        if self.threads is None:
            os.environ.pop("MANIFOLD_DESCENT_THREADS", None)
        else:
            os.environ["MANIFOLD_DESCENT_THREADS"] = str(self.threads)
        bench, cell_s, clock = self.md.bench, [], time.perf_counter
        run_scenario = bench.run_scenario

        def timed_cell(*args, **kwargs):
            t = clock()
            try:
                return run_scenario(*args, **kwargs)
            finally:
                cell_s.append(clock() - t)

        buf = io.StringIO()
        bench.run_scenario = timed_cell
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code, err = _call(self.md.cli.main, argv)
        finally:
            dt = clock() - t0
            bench.run_scenario = run_scenario
        return code, buf.getvalue(), err, dt, cell_s

    def run_pass(self, seed=None):
        """One checked pass.  With ``seed``, that corpus seed replaces the
        workload's and the per-cell outcomes are returned as well."""
        argv = self.argv if seed is None else self.argv[:-1] + [str(int(seed))]
        code, text, err, dt, cell_s = self.report(argv)
        failures = [err] * len(self.cells) if err else corpus_failures(code, text, self.cells)
        result = PassResult(dt, [dt], len(self.cells), failures,
                            parts=cell_s + [dt - sum(cell_s)])
        if seed is None:
            return result
        return result, (None if failures else corpus_outcomes(text))


# -- smallest eigenvalue -------------------------------------------------


def eig_check(A, lam_ref, scale, solution):
    """(failure reason or None, |lambda error|, residual ||Av - lambda v||)."""
    lam, v = solution
    if v is None:
        return "no vector returned", np.inf, np.inf
    v = np.asarray(v, dtype=float)
    if v.shape != (A.shape[0],) or not np.all(np.isfinite(v)) or not np.isfinite(lam):
        return "non-finite or misshapen result", np.inf, np.inf
    err = abs(float(lam) - lam_ref)
    resid = float(np.linalg.norm(A @ v - lam * v))
    if err > EIG_VALUE_RTOL * scale:
        return "lambda off by %.3g" % err, err, resid
    if abs(np.linalg.norm(v) - 1.0) > EIG_NORM_ATOL:
        return "vector norm %.17g" % np.linalg.norm(v), err, resid
    return None, err, resid


class Eig:
    """``smallest_eigenvalue`` with its defaults on a fixed list of matrices."""

    def __init__(self, md, seed, n, count, name):
        self.md = md
        self.name = name
        self.matrices = random_symmetric(seed, n, count)
        self.refs = [(float(np.linalg.eigvalsh(A)[0]), max(1.0, float(np.linalg.norm(A, 2))))
                     for A in self.matrices]

    def run_pass(self):
        solve = self.md.smallest_eigenvalue
        clock = time.perf_counter
        op_s, solutions = [], []
        t0 = clock()
        for A in self.matrices:
            t = clock()
            out = _call(solve, A)
            op_s.append(clock() - t)
            solutions.append(out)
        wall = clock() - t0
        failures, err_max, resid_max = [], 0.0, 0.0
        for A, (lam_ref, scale), (sol, raised) in zip(self.matrices, self.refs, solutions):
            if raised is not None:
                failures.append(raised)
                continue
            reason, err, resid = eig_check(A, lam_ref, scale, sol)
            if reason is not None:
                failures.append(reason)
            else:
                err_max, resid_max = max(err_max, err), max(resid_max, resid)
        return PassResult(wall, op_s, len(self.matrices), failures,
                          eig_err=err_max, eig_resid=resid_max)


WORKLOADS = {
    "corpus": lambda md, seed: Corpus(md, seed),
    "eig_large": lambda md, seed: Eig(md, seed, n=300, count=6, name="eig_large"),
    "eig_small": lambda md, seed: Eig(md, seed, n=10, count=300, name="eig_small"),
}
