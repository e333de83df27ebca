"""One benchmark process: set-up, then optionally passes of a workload.

    python3 tgbench/child.py --workload W --seed S --mode setup|pass|passes
                             --trace 0|1 --out DIR --result FILE
                             [--seconds T --min-passes N --budget B]

Set-up is what a fresh process pays before its first useful call: importing
torusgibbs, the first LAPACK call, the `model.soliton()` shooting oracle and
one smooth cutoff table.  A pass runs the workload once, timed with nothing
else in the interval, then checks its outputs and, when traced, folds the
spans into per-layer metrics.  Mode ``pass`` runs one pass in this process.
Mode ``passes`` (untraced only) runs each pass in a forked copy of this
process, so every pass starts from the same state just after set-up without
paying the set-up again; passes go on until their summed wall time reaches
T with at least N of them, unless the next would end this process later
than B seconds after it started.  The result goes to FILE as JSON.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def run_record() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(workload: str, seed: int, out_dir: str, tracer) -> dict:
    """One timed pass of the workload, its output checks and, when traced,
    its per-layer metrics."""
    import checks
    import workloads

    result = {}
    t1 = time.perf_counter()
    try:
        out = workloads.run(workload, seed, out_dir)
    except Exception:  # a raised exception is a failed pass, reported not hidden
        out = None
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - t1
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if out is not None:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)[workload]
        result["checks"] = checks.CHECKS[workload](out, ref)
        result["csv_sha256"] = out.get("csv_sha256", {})
        result["outputs"] = out
    if tracer is not None:
        import spans

        metrics = tracer.layer_metrics()
        result["layers"] = metrics
        result.setdefault("checks", []).extend(spans.self_check(workload, metrics))
    return result


def forked_passes(args) -> list:
    """Untraced passes, each in a forked copy of this set-up process."""
    passes, longest = [], 0.0
    while True:
        n = len(passes)
        out_dir = os.path.join(args.out, f"pass{n}")
        os.makedirs(out_dir)
        path = os.path.join(args.out, f"pass{n}.json")
        sys.stdout.flush()
        began = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                result = run_pass(args.workload, args.seed, out_dir, None)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(result, fh)
                code = 0
            finally:
                sys.stdout.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"pass {n} exited with status {status}")
        longest = max(longest, time.perf_counter() - began)
        with open(path, encoding="utf-8") as fh:
            passes.append(json.load(fh))
        measured = sum(p["wall_s"] for p in passes)
        if measured >= args.seconds and len(passes) >= args.min_passes:
            return passes
        if time.perf_counter() - T0 + longest > args.budget:
            return passes


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "passes"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.mode == "passes" and args.trace:
        parser.error("--mode passes runs untraced passes only")

    import numpy as np
    import torusgibbs
    from torusgibbs import model

    np.linalg.eigh(np.diag(np.arange(8.0)) + 1.0)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    model.soliton()
    model.CutoffProfile.smooth(0.6, 0.1)
    setup_s = time.perf_counter() - T0

    result = {"setup_s": setup_s, "package": torusgibbs.__file__}
    if args.mode == "pass":
        result.update(run_pass(args.workload, args.seed, args.out, tracer))
    elif args.mode == "passes":
        result["passes"] = forked_passes(args)
    result["record"] = run_record()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
