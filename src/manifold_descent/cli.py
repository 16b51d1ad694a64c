"""Command-line front end.

Three subcommands: ``run`` executes one scenario (or a smallest
eigenvalue computation for a matrix file), ``corpus`` runs the full
scenario-by-method comparison, and ``trace`` emits one run's iterates
as CSV for external plotting.  A report prints one ``bench._row`` per cell.

Exit codes: 0 for a completed run (divergence is a valid outcome), 2
for configuration errors, 3 for internal numerical failures.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bench import (
    UnknownMethod,
    UnknownScenario,
    _parse_method,
    _row,
    corpus,
    run_scenario,
    smallest_eigenvalue,
)
from .linalg import NonFinite, SymMatrix
from .manifold import Sphere
from .optim import _PARAMS

TABLE_DIGITS = "%.8g"
EXACT_DIGITS = "%.17g"


def _json_float(value):
    # The report schema renders non-finite values as null.
    if not np.isfinite(value):
        return "null"
    return EXACT_DIGITS % value


def _row_json(d):
    point = ", ".join(_json_float(c) for c in d["final_point"])
    flags = ", ".join(json.dumps(f) for f in d["flags"])
    return (
        "{"
        '"scenario_id": %s, ' % json.dumps(d["scenario_id"])
        + '"method": %s, ' % json.dumps(d["method"])
        + '"final_point": [%s], ' % point
        + '"final_value": %s, ' % _json_float(d["final_value"])
        + '"steps": %d, ' % d["steps"]
        + '"termination": %s, ' % json.dumps(d["termination"])
        + '"flags": [%s]' % flags
        + "}"
    )


def _report_json(rows):
    return "[\n" + ",\n".join("  " + _row_json(d) for d in rows) + "\n]"


def _report_csv(rows):
    lines = ["scenario_id,method,steps,termination,flags,final_value,final_point"]
    for d in rows:
        point = " ".join(EXACT_DIGITS % c for c in d["final_point"])
        lines.append(
            "%s,%s,%d,%s,%s,%s,%s"
            % (
                d["scenario_id"],
                d["method"],
                d["steps"],
                d["termination"],
                "|".join(d["flags"]),
                EXACT_DIGITS % d["final_value"],
                point,
            )
        )
    return "\n".join(lines)


def _report_table(rows):
    header = ("scenario", "method", "steps", "final_value", "termination",
              "flags", "final_point")
    cells = [header]
    for d in rows:
        point = "(" + ", ".join(TABLE_DIGITS % c for c in d["final_point"]) + ")"
        cells.append(
            (
                d["scenario_id"],
                d["method"],
                str(d["steps"]),
                TABLE_DIGITS % d["final_value"],
                d["termination"],
                "|".join(d["flags"]) or "-",
                point,
            )
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _emit_report(rows, fmt):
    if fmt == "json":
        print(_report_json(rows))
    elif fmt == "csv":
        print(_report_csv(rows))
    else:
        print(_report_table(rows))


def _load_matrix(path):
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "dim" not in payload or "rows" not in payload:
        raise ValueError('matrix file must be {"dim": m, "rows": [[...], ...]}')
    dim = payload["dim"]
    # A bool is an int to Python, and true would pass for 1.
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError("dim must be an integer, got %s" % json.dumps(dim))
    rows = np.asarray(payload["rows"], dtype=float)
    if rows.shape != (dim, dim):
        raise ValueError("rows shape %s does not match dim %d" % (rows.shape, dim))
    return SymMatrix(rows)


def _add_overrides(p):
    p.add_argument("--retraction", choices=Sphere.MODES, default="projective")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--delta0", type=float, default=None)
    p.add_argument("--exponent-a", type=float, default=None)
    p.add_argument("--deltas", type=str, default=None,
                   help="comma-separated regularizer coefficients, e.g. 0,1")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--grad-tol", type=float, default=None)
    p.add_argument("--random-deltas", action="store_true", default=None)


# Stepper overrides, by argparse dest.  A flag left out is None, so only
# the given ones are forwarded and the library keeps its own defaults.
_STEPPER_FLAGS = ("alpha", "beta", "delta0", "exponent_a", "deltas", "lr",
                  "grad_tol", "random_deltas")


def _given(args):
    return {k: getattr(args, k) for k in _STEPPER_FLAGS
            if getattr(args, k) is not None}


def _flags(dests):
    return ", ".join("--" + k.replace("_", "-") for k in dests)


def _run_kwargs(args):
    """run_scenario keywords for the stepper flags given on the command
    line: ``grad_tol``, and the other flags as the fields of the params
    class the tag's stepper reads.  A flag that class has no field for is
    refused by name, as typed."""
    fields = _given(args)
    kw = {"grad_tol": fields.pop("grad_tol")} if "grad_tol" in fields else {}
    cls = _PARAMS.get(_parse_method(args.method)[0])
    names = {f.name for f in dataclasses.fields(cls)} if cls else ()
    unread = [k for k in fields if k not in names]
    if unread:
        raise ValueError("method %s does not read %s" % (args.method, _flags(unread)))
    if "deltas" in fields:
        fields["deltas"] = tuple(float(tok) for tok in fields["deltas"].split(","))
    if fields:
        kw["params"] = cls(**fields)
    return kw


def _parser():
    parser = argparse.ArgumentParser(
        prog="manifold-descent",
        description="Descent methods under locally defined retractions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario or matrix problem")
    target = p_run.add_mutually_exclusive_group(required=True)
    target.add_argument("--scenario", type=str)
    target.add_argument("--matrix", type=str, help="path to a matrix JSON file")
    p_run.add_argument("--method", type=str, default=None)
    p_run.add_argument("--iters", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--format", choices=("table", "json", "csv"), default="table")
    _add_overrides(p_run)

    p_corpus = sub.add_parser("corpus", help="run every scenario-method cell")
    p_corpus.add_argument("--seed", type=int, default=42)
    p_corpus.add_argument("--format", choices=("table", "json", "csv"),
                          default="table")
    p_corpus.add_argument("--retraction", choices=Sphere.MODES, default="projective")

    p_trace = sub.add_parser("trace", help="emit per-iteration CSV for one run")
    p_trace.add_argument("--scenario", type=str, required=True)
    p_trace.add_argument("--method", type=str, required=True)
    p_trace.add_argument("--iters", type=int, default=None)
    p_trace.add_argument("--seed", type=int, default=0)
    _add_overrides(p_trace)

    return parser


def _cmd_run(args):
    if args.matrix is not None:
        given = _given(args)
        if given:
            print("run: --matrix does not accept %s" % _flags(given),
                  file=sys.stderr)
            return 2
        A = _load_matrix(args.matrix)
        # --method and --iters go on only when given, so the library keeps
        # its own defaults, as the stepper flags do.
        kw = {k: getattr(args, k) for k in ("method", "iters")
              if getattr(args, k) is not None}
        lam, vec = smallest_eigenvalue(A, seed=args.seed,
                                       retraction=args.retraction, **kw)
        if args.format == "json":
            coords = ", ".join(_json_float(c) for c in vec)
            print('{"lambda1": %s, "vector": [%s]}' % (_json_float(lam), coords))
        elif args.format == "csv":
            print("lambda1," + ",".join("x%d" % i for i in range(len(vec))))
            print(",".join(EXACT_DIGITS % c for c in (lam, *vec)))
        else:
            print("lambda1 = " + TABLE_DIGITS % lam)
            print("vector  = (%s)" % ", ".join(TABLE_DIGITS % c for c in vec))
        return 0
    if args.method is None:
        print("run: --method is required with --scenario", file=sys.stderr)
        return 2
    trace = run_scenario(
        args.scenario,
        args.method,
        iters=args.iters,
        seed=args.seed,
        retraction=args.retraction,
        **_run_kwargs(args),
    )
    _emit_report([_row(args.scenario, args.method, trace)], args.format)
    return 0


def _cmd_corpus(args):
    _emit_report(corpus(seed=args.seed, retraction=args.retraction), args.format)
    return 0


def _cmd_trace(args):
    trace = run_scenario(
        args.scenario,
        args.method,
        iters=args.iters,
        seed=args.seed,
        retraction=args.retraction,
        **_run_kwargs(args),
    )
    m = len(trace.records[0].point)
    print("iter,f,grad_norm,step_size," + ",".join("x%d" % i for i in range(m)))
    for rec in trace.records:
        cols = [str(rec.iter), EXACT_DIGITS % rec.f_value,
                EXACT_DIGITS % rec.rgrad_norm,
                EXACT_DIGITS % rec.step_size]
        cols.extend(EXACT_DIGITS % c for c in rec.point)
        print(",".join(cols))
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        return _cmd_trace(args)
    except NonFinite as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (UnknownScenario, UnknownMethod) as exc:
        print("unknown scenario or method: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
