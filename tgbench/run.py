"""Benchmark of torusgibbs: three seeded workloads, end-to-end and per-layer
metrics, every output checked.

    python3 tgbench/run.py --workload quantum-sweep --seed 1 --seconds 30 --trace 0
    python3 tgbench/run.py --workload all        (the three workloads in turn)

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  Children
(`child.py`) run one at a time with BLAS pinned to one thread, and every
pass starts from the same state just after set-up, so passes do the same
work.

--trace 0: `SETUP_SAMPLES` - 1 fresh set-up-only processes, then one
  process that sets up (the last set-up sample) and runs each pass in a
  forked copy of itself.  Passes run until their summed wall time reaches
  --seconds, and at least `MIN_PASSES` of them, unless the next one would
  end the run past `cap_s(seconds)`.  Metrics:
  wall_s        wall time of one pass, after set-up: summed pass wall time
                / number of passes                         [s]
  setup_s       import, first LAPACK call, soliton oracle, cutoff table;
                median of the set-up samples               [s]
  peak_rss_mib  ru_maxrss of a pass process, median        [MiB]
  wall_s is a mean, not a median, because the host noise on a shared 2-vCPU
  machine switches between a fast and a slow state for tens of seconds at a
  time: a median of three passes jumps between the two states, while the
  mean of all measured time moves with the share of time spent in each.
--trace 1: untraced and traced passes, each in a fresh process (so the
  tracer also sees set-up), alternate until --seconds is reached;
  the metrics are the per-layer metrics of `spans.METRICS` from the traced
  passes, and trace.overhead_s = traced wall_s - untraced wall_s.

`attempted` and `failed` count output checks (see `checks.py`), tracer
self-checks and the determinism check: every CSV a pass writes must have
the same sha256 in every pass of one source tree and seed, in this run and
in earlier runs recorded under ``.bench_out/``.  fail_frac = failed /
attempted is printed with the other metrics.  The last line of stdout is the
JSON result; each workload's run record is printed before it.  With
``--workload all`` the metric names carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("quantum-sweep", "lower-symbol", "classical-mc")
MIN_PASSES = 3  # a single pass moves with host noise (10-40% a pass on 2 vCPUs)
SETUP_SAMPLES = 3
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def cap_s(seconds: float) -> float:
    """No child starts that would end the run later than this.  It bounds
    the whole benchmark's time, and keeps a run well inside 180 s."""
    return min(1.5 * seconds, 150.0)


class BenchError(Exception):
    """The benchmark could not run: no source tree, or a child process died."""


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


class Runner:
    """Starts the child processes of one run, one at a time, inside a time budget."""

    def __init__(self, workload: str, seed: int, work_dir: str, cap: float = 150.0):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cap = cap
        self.start = time.monotonic()
        self.longest = {"setup": 0.0, "pass": 0.0, "passes": 0.0}
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": SRC}
        self.n = 0

    def fits(self, mode: str) -> bool:
        return time.monotonic() - self.start + self.longest[mode] <= self.cap

    def child(self, mode: str, trace: int = 0, extra: tuple = ()) -> dict:
        self.n += 1
        out_dir = os.path.join(self.work_dir, f"out{self.n}")
        os.makedirs(out_dir)
        result_path = os.path.join(self.work_dir, f"result{self.n}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(trace),
               "--out", out_dir, "--result", result_path, *extra]
        began = time.monotonic()
        # the child's stdout joins our stderr: our stdout carries only the result.
        # Its own process group holds it and every pass it forks.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, 170.0 - (began - self.start)))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process timed out") from exc
        finally:
            stop_group(proc)
        if code != 0:
            raise BenchError(f"{mode} process exited with code {code}")
        self.longest[mode] = max(self.longest[mode], time.monotonic() - began)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        package = os.path.realpath(result["package"])
        if not package.startswith(os.path.realpath(SRC) + os.sep):
            raise BenchError(f"torusgibbs was imported from {package}, not from {SRC}")
        return result


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:  # a forked pass is reaped by init, not by us
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def pass_checks(result: dict) -> list:
    if "error" in result:
        print(result["error"], file=sys.stderr)
        return [("workload raised", False)] + result.get("checks", [])
    return result["checks"]


def determinism_check(workload: str, seed: int, digests: list) -> list:
    """Every pass, and every earlier run of the same source tree and seed,
    wrote byte-identical CSVs."""
    if not any(digests):
        return []
    key = f"{source_digest()}:{workload}:{seed}"
    path = os.path.join(OUT, "csv_sha256.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    ok = all(d == digests[0] for d in digests) and seen.get(key, digests[0]) == digests[0]
    seen.setdefault(key, digests[0])
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return [("determinism:csv_sha256", ok)]


def measure(runner: Runner, seconds: float, trace: int):
    """Run the passes; returns (metrics, checks, summary)."""
    if trace:
        return measure_traced(runner, seconds)
    setups = []
    while len(setups) < SETUP_SAMPLES - 1 and runner.fits("setup"):
        setups.append(runner.child("setup")["setup_s"])
    budget = runner.cap - (time.monotonic() - runner.start)
    pool = runner.child("passes", extra=("--seconds", repr(seconds),
                                         "--min-passes", str(MIN_PASSES),
                                         "--budget", repr(budget)))
    setups.append(pool["setup_s"])
    plain = pool["passes"]
    checks = [c for r in plain for c in pass_checks(r)]
    checks += determinism_check(runner.workload, runner.seed,
                                [r.get("csv_sha256") for r in plain])
    walls = [r["wall_s"] for r in plain]
    summary = {"passes": len(plain), "wall_s": walls, "setup_s": setups,
               "csv_sha256": plain[0].get("csv_sha256"), "record": pool["record"]}
    values = {"wall_s": statistics.fmean(walls),
              "setup_s": statistics.median(setups),
              "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain)}
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return metrics, checks, summary


def measure_traced(runner: Runner, seconds: float):
    """Untraced and traced passes, each in a fresh process, alternate until
    --seconds is measured; returns (metrics, checks, summary)."""
    import spans

    plain, traced = [], []
    while True:
        want_traced = len(traced) < len(plain)
        (traced if want_traced else plain).append(runner.child("pass", int(want_traced)))
        measured = sum(r["wall_s"] for r in plain + traced)
        if (measured >= seconds and traced) or not runner.fits("pass"):
            break
    if not traced:
        raise BenchError("no time left for a traced pass")
    passes = plain + traced
    checks = [c for r in passes for c in pass_checks(r)]
    checks += determinism_check(runner.workload, runner.seed,
                                [r.get("csv_sha256") for r in passes])
    walls = [r["wall_s"] for r in plain]
    layers = [r["layers"] for r in traced]
    metrics = {spec["name"]: {"value": statistics.median(l.get(spec["name"], 0.0)
                                                         for l in layers),
                              "unit": spec["unit"]}
               for spec in spans.METRICS}
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(walls)
    metrics["trace.overhead_s"]["value"] = overhead
    summary = {"passes": len(plain), "wall_s": walls,
               "traced_wall_s": [r["wall_s"] for r in traced],
               "csv_sha256": passes[0].get("csv_sha256"), "record": passes[0]["record"]}
    return metrics, checks, summary


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Measure one workload and print its metric lines and run record;
    returns (metrics, checks)."""
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        runner = Runner(workload, seed, work_dir, cap_s(seconds))
        metrics, checks, summary = measure(runner, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"FAILED check: {name}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} fail_frac = {len(failed) / len(checks):.6g} 1 "
          f"({len(failed)}/{len(checks)} checks)")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "git_sha": git_sha(), "src_sha256": source_digest(), **summary}
    print("record: " + json.dumps(record, sort_keys=True))
    return metrics, checks


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "torusgibbs", "__init__.py")):
        print(f"error: no torusgibbs source tree under {SRC}", file=sys.stderr)
        return 2
    # exit through SystemExit on SIGTERM, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    every = args.workload == "all"
    metrics, checks = {}, []
    try:
        for workload in WORKLOADS if every else (args.workload,):
            found, workload_checks = run_workload(workload, args.seed, args.seconds, args.trace)
            metrics.update({f"{workload}.{k}" if every else k: v for k, v in found.items()})
            checks += workload_checks
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(not ok for _, ok in checks)
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
