"""Records the benchmark's reference data and checks its run-to-run spread.

    python3 perfbench/record.py reference
        Write corpus_reference.json: each corpus cell's termination,
        steps and final-value bits at the reference seed.
    python3 perfbench/record.py spread --workload eig_large --seeds 1 2 3 --out r.json
        Run the benchmark once per seed and print, for each metric, the
        median and the quartile spread (q3 - q1) / median.
    python3 perfbench/record.py baseline r1.json r2.json ...
        Write baseline.json from saved spread results, with the machine
        they ran on and one traced run per workload.

Run from the root of a checkout.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BASELINE = HERE / "baseline.json"


def write_reference():
    md = workloads.load_library()
    result, outcomes = workloads.Corpus(md, run.REFERENCE_SEED).run_pass(
        seed=run.REFERENCE_SEED)
    if outcomes is None:
        raise SystemExit("corpus failed its checks: %s" % result.failures[:3])
    # One cell per line, so a diff of the file lists the moved cells.
    workloads.CORPUS_REFERENCE.write_text(
        "{\"seed\": %d, \"cells\": [\n%s\n]}\n" % (
            run.REFERENCE_SEED, ",\n".join(json.dumps(c) for c in outcomes)))
    print("wrote %d cells to %s" % (len(outcomes), workloads.CORPUS_REFERENCE))


def bench_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results):
    """metric -> {median, q1, q3, spread, values} over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return out


def spread(args):
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in args.seeds:
        r = bench_once(args.workload, seed, seconds, 0)
        results.append(r)
        print("seed %s: correct=%s failed=%d/%d %s" % (
            seed, r["correct"], r["failed"], r["attempted"],
            " ".join("%s=%.5g" % (k, v["value"]) for k, v in r["metrics"].items())),
            flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print("%-12s median %-12.6g spread %.4f  bound %.2f" % (
            name, s["median"], s["spread"], bounds[name]))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "seeds": args.seeds,
            "runs": results, "summary": summary}, indent=1))


def blas_threads():
    # numpy wheels bundle OpenBLAS; ask it for its thread count.
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
    }


def baseline(args):
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    out = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for path in args.inputs:
        saved = json.loads(Path(path).read_text())
        name = saved["workload"]
        traced = bench_once(name, saved["seeds"][0], saved["seconds"], 1)
        out["workloads"][name] = {
            "seeds": saved["seeds"],
            "end_to_end": {k: {f: s[f] for f in ("median", "q1", "q3", "spread")}
                           for k, s in saved["summary"].items()},
            "per_layer_seed": saved["seeds"][0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote %s" % BASELINE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("reference")
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--out", default=None)
    p = sub.add_parser("baseline")
    p.add_argument("inputs", nargs="+")
    args = parser.parse_args()
    if args.cmd == "reference":
        write_reference()
    elif args.cmd == "spread":
        spread(args)
    else:
        baseline(args)


if __name__ == "__main__":
    main()
