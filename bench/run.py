"""driftbench benchmark: seeded workloads through ``driftbench.cli.main``, one fresh process per run.

Run from the root of a source checkout::

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --seconds 35          # every workload, one table

Each repetition spawns ``bench/child.py`` with BLAS/OpenMP pinned to one
thread and ``PYTHONPATH`` set to the checkout's ``src``.  With ``--trace 0``
it reports the end-to-end metrics (medians over repetitions); with
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus ``trace.overhead_frac``.  Every
repetition's outputs are checked with the package's own parsers; the last
line of standard output is the JSON result.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPS = 3
SETUP_PROBES = 10
# Whole-run budget; every child is killed at this point after the run starts.
DEADLINE_S = 160.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), ("_us", "us"), ("us_per_step", "us"), ("_ms", "ms"),
                         ("mib_per_s", "MiB/s"), ("_mib", "MiB"), ("_frac", "ratio"), (".s", "s"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


class Bench:
    """One benchmark invocation: a work directory inside the checkout and the children it runs."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.name = workload
        self.seed = seed
        self.started = time.monotonic()
        (root / ".bench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / ".bench_work"))
        try:
            (self.work / "inputs").mkdir()
            self.workload = workloads.WORKLOADS[workload](seed, self.work / "inputs")
        except BaseException:
            self.close()
            raise
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") and k != "DRIFTBENCH_SEED"}
        self.env.update({var: THREADS for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self.reps = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / ".bench_work").rmdir()
        except OSError:
            pass

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, commands: list[list[str]], trace: bool, cwd: Path) -> dict | None:
        """Run one child process; returns its result with ``setup_s``/``run_s``, or None if it crashed."""
        cwd.mkdir()
        job = cwd / "job.json"
        result = cwd / "result.json"
        job.write_text(json.dumps({
            "configs": self.workload.configs, "specs": self.workload.specs, "commands": commands,
            "trace": trace, "result": str(result), "spans": str(cwd / "spans.json"),
        }))
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(job)], cwd=cwd,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.problems.append("child timed out")
            return None
        if proc.returncode != 0 or not result.exists():
            self.problems.append(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        out = json.loads(result.read_text())
        out["stderr"] = proc.stderr
        out["setup_s"] = out["ready"] - spawned
        out["run_s"] = out["done"] - out["ready"]
        return out

    def setup_probe(self) -> float | None:
        """Set-up time of a child that validates the inputs and runs no command."""
        probe = self.child([], False, self.work / f"probe{self.reps}")
        self.reps += 1
        return None if probe is None else probe["setup_s"]

    def repetition(self, trace: bool) -> dict | None:
        """One full run of the workload, checked; returns the child result or None."""
        rep = self.work / f"rep{self.reps}"
        self.reps += 1
        self.attempted += self.workload.operations
        out = self.child([c.argv() for c in self.workload.commands], trace, rep)
        if out is None:
            self.failed += self.workload.operations
            return None
        failed, problems = workloads.check(rep, self.workload, out["codes"])
        if problems and out["stderr"]:
            problems.append(f"driftbench stderr: {out['stderr'][-2000:]}")
        self.digests.add(workloads.digest(rep))
        if trace:
            out["layers"] = spans.layer_metrics(spans.load(rep / "spans.json"))
            out["layers"]["runner.artifact_mib"] = workloads.artifact_bytes(rep, self.workload) / 2**20
        self.failed += failed
        self.problems.extend(problems)
        shutil.rmtree(rep, ignore_errors=True)
        return out

    def check_digests(self) -> None:
        """Reruns must agree byte for byte, and the default seed must match the recorded digest."""
        if len(self.digests) > 1:
            self.problems.append(f"outputs differ between repetitions: {sorted(self.digests)}")
        if self.seed == DEFAULT_SEED and self.digests:
            recorded = json.loads((BENCH_DIR / "digests.json").read_text())[self.name]
            if self.digests != {recorded}:
                self.problems.append(f"default-seed digest {sorted(self.digests)} != recorded {recorded}")

    def fits(self, estimate: float, seconds: float) -> bool:
        return self.elapsed() + estimate <= seconds


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics with tracing off: medians over set-up probes and repetitions."""
    setups = [s for s in (bench.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
    loop_start = bench.elapsed()
    runs, rss = [], []
    while len(runs) < MIN_REPS or bench.fits((bench.elapsed() - loop_start) / len(runs), seconds):
        out = bench.repetition(trace=False)
        if out is None:
            break
        setups.append(out["setup_s"])
        runs.append(out["run_s"])
        rss.append(out["peak_rss_mib"])
    print(f"{bench.name}: {len(setups)} set-ups, {len(runs)} runs", file=sys.stderr)
    if not runs:
        return {}
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "peak_rss_mib": statistics.median(rss),
    }


def measure_traced(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics: untraced and traced repetitions alternate; medians of each metric."""
    plain, traced = [], []
    loop_start = bench.elapsed()
    while not traced or bench.fits((bench.elapsed() - loop_start) / len(traced), seconds):
        a, b = bench.repetition(trace=False), bench.repetition(trace=True)
        if a is None or b is None:
            break
        plain.append(a["run_s"])
        traced.append(b)
    if not traced:
        return {}
    print(f"{bench.name}: {len(traced)} traced and {len(plain)} untraced runs", file=sys.stderr)
    names = traced[0]["layers"]
    metrics = {name: statistics.median(t["layers"][name] for t in traced) for name in names}
    metrics["trace.run_s"] = statistics.median(t["run_s"] for t in traced)
    metrics["trace.overhead_frac"] = metrics["trace.run_s"] / statistics.median(plain) - 1.0
    return metrics


def environment(root: Path) -> dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: THREADS for var in THREAD_VARS},
        "commit": commit,
        "src_sha256": workloads.source_digest(root / "src" / "driftbench"),
    }


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    try:
        # An untimed import first, so bytecode compilation is not charged to set-up.
        bench.setup_probe()
        bench.started = time.monotonic()
        metrics = measure_traced(bench, seconds) if trace else measure(bench, seconds)
        bench.check_digests()
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    units = per_layer_unit if trace else END_TO_END_UNITS.__getitem__
    return {
        "correct": not bench.problems and bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
        "digests": sorted(bench.digests),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all, printed as one table)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, whose output digest is recorded)")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    args = parser.parse_args(argv)
    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "driftbench" / "__init__.py").is_file():
        print("bench: run from the root of a driftbench checkout (src/driftbench is missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    print("env " + json.dumps(environment(root), sort_keys=True))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {name: run_one(root, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, result in results.items():
        failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
        print(f"{name}: correct={result['correct']} failed_frac={failed_frac} ratio "
              f"({result['failed']}/{result['attempted']} operations) digest={','.join(result.pop('digests'))}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:<40} {value['value']:.6g} {value['unit']}")
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
