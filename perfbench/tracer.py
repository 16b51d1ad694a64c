"""Per-layer tracing for the benchmark, done from outside the library.

``Tracer.install`` wraps the public functions of each manifold_descent
module.  A plain function is rebound under every name that points at it
in any manifold_descent module, so ``optim.sym_eig`` (the name optim
imported) is wrapped as well as ``linalg.sym_eig``.  A method is
replaced on its class, so every instance sees the wrapper.

Each wrapper records a span: its name, its duration and the name of the
enclosing span in the same thread.  Spans are folded into per-thread
totals as they close, keyed by (parent, name), so self time is a span's
duration minus the time of the spans it encloses; ``contains`` running
inside ``riemannian_grad`` is charged to ``manifold.contains`` and not
to ``objective.riemannian_grad``.  ``Tracer.uninstall`` puts every
original back, and ``installed_wrappers`` finds any wrapper left over.

Hooks whose target does not exist in the checked-out library are
skipped and listed in ``Tracer.missing``; their metrics read 0.
"""

import collections
import functools
import sys
import threading
import time
import types

WRAPPER_MARK = "__perfbench_original__"

# (span name, module, attribute) for plain functions: every binding of
# the function in any manifold_descent module is wrapped.
FUNCTION_HOOKS = (
    ("linalg.sym_eig", "linalg", "sym_eig"),
    ("linalg.spectral_split", "linalg", "spectral_split"),
    ("objective.riemannian_grad", "objective", "riemannian_grad"),
    ("objective.riemannian_hess", "objective", "riemannian_hess"),
    ("objective.builtin_problems", "objective", "builtin_problems"),
    ("optim.run", "optim", "run"),
    ("optim.line_search", "optim", "_line_search"),
    ("optim.new_q_newton_step", "optim", "_new_q_newton_step"),
    ("bench.corpus", "bench", "corpus"),
    ("bench.run_scenario", "bench", "run_scenario"),
    ("bench.smallest_eigenvalue", "bench", "smallest_eigenvalue"),
    ("bench.run_branch", "bench", "_run_branch"),
    ("cli.main", "cli", "main"),
)

# (span name, module, class, method) for methods patched on the class.
METHOD_HOOKS = (
    ("linalg.symmatrix", "linalg", "SymMatrix", "__init__"),
    ("objective.value", "objective", "Objective", "value"),
    ("objective.grad", "objective", "Objective", "grad"),
    ("objective.hess", "objective", "Objective", "hess"),
)

# Methods wrapped on every backend class defined in manifold.py.
MANIFOLD_METHODS = ("contains", "radius", "retract", "tangent_project")

# Exceptions a manifold backend raises to refuse a point or a step.
REJECT_NAMES = ("NotOnManifold", "StepTooLarge", "NotTangent")

# Fields of a span total: [calls, total s, self s, calls that raised].
CALLS, TOTAL, SELF, RAISED = range(4)


def _zero():
    return [0, 0.0, 0.0, 0]


def library_modules(md):
    """The imported modules of the package ``md``, itself included."""
    prefix = md.__name__
    return [m for key, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (key == prefix or key.startswith(prefix + "."))]


class _ThreadLog:
    """Open spans and closed-span totals of one thread."""

    def __init__(self):
        self.stack = []
        # (parent name, name) -> span total, fields as CALLS ... RAISED
        self.edges = collections.defaultdict(_zero)
        self.rejects = 0
        self.steps = 0
        self.terminations = {}


class Tracer:
    def __init__(self, md):
        self.md = md
        self.missing = []
        self._patches = []  # (owner, attribute, original value)
        self._logs = []
        self._logs_lock = threading.Lock()
        self._local = threading.local()
        self._reject_types = ()

    # -- recording ---------------------------------------------------

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _wrap(self, name, fn, on_result=None, count_rejects=False):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                raised = 1
                if count_rejects and isinstance(exc, tracer._reject_types):
                    # Count each refusal once, where it was raised, not
                    # again in every wrapped caller it passes through.
                    if not getattr(exc, "_perfbench_counted", False):
                        exc._perfbench_counted = True
                        log.rejects += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                acc = log.edges[(parent, name)]
                acc[CALLS] += 1
                acc[TOTAL] += dur
                acc[SELF] += dur - frame[1]
                acc[RAISED] += raised
            if on_result is not None:
                on_result(log, out)
            return out

        setattr(wrapper, WRAPPER_MARK, fn)
        return wrapper

    @staticmethod
    def _record_run(log, trace):
        log.steps += int(trace.steps)
        reason = trace.termination.value
        log.terminations[reason] = log.terminations.get(reason, 0) + 1

    # -- installing --------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        md = self.md
        modules = library_modules(md)
        self._reject_types = tuple(
            getattr(md.manifold, n) for n in REJECT_NAMES if hasattr(md.manifold, n)
        )
        for name, mod, attr in FUNCTION_HOOKS:
            original = getattr(getattr(md, mod), attr, None)
            if not callable(original):
                self.missing.append("%s.%s" % (mod, attr))
                continue
            on_result = self._record_run if name == "optim.run" else None
            wrapper = self._wrap(name, original, on_result=on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, mod, cls_name, attr in METHOD_HOOKS:
            cls = getattr(getattr(md, mod), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append("%s.%s.%s" % (mod, cls_name, attr))
                continue
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
        for cls in vars(md.manifold).values():
            if not (isinstance(cls, type) and cls.__module__ == md.manifold.__name__):
                continue
            for attr in MANIFOLD_METHODS:
                if attr in vars(cls):
                    wrapper = self._wrap("manifold." + attr, vars(cls)[attr],
                                         count_rejects=True)
                    self._patch(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -----------------------------------------------------

    def totals(self):
        """Merged per-thread totals.

        Returns ``(edges, rejects, steps, terminations)`` where edges
        maps (parent, name) to a span total, zero for pairs never seen.
        """
        edges, rejects, steps, terminations = collections.defaultdict(_zero), 0, 0, {}
        with self._logs_lock:
            logs = list(self._logs)
        for log in logs:
            for key, acc in log.edges.items():
                into = edges[key]
                for i, v in enumerate(acc):
                    into[i] += v
            rejects += log.rejects
            steps += log.steps
            for reason, n in log.terminations.items():
                terminations[reason] = terminations.get(reason, 0) + n
        return edges, rejects, steps, terminations


def installed_wrappers(md):
    """Names of library attributes that are still tracing wrappers."""
    found = []
    for module in library_modules(md):
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPER_MARK):
                found.append("%s.%s" % (module.__name__, attr))
            elif isinstance(value, type):
                for mattr, mvalue in vars(value).items():
                    if hasattr(mvalue, WRAPPER_MARK):
                        found.append("%s.%s.%s" % (module.__name__, attr, mattr))
    return found


def by_name(edges):
    """Fold (parent, name) totals into name -> total, zero for names never seen."""
    out = collections.defaultdict(_zero)
    for (_, name), acc in edges.items():
        into = out[name]
        for i, v in enumerate(acc):
            into[i] += v
    return out
