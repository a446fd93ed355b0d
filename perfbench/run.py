"""Benchmark of the condmetrics command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (the directory holding ``src/``).
One run generates the workload's inputs from the seed, then starts the CLI
as users do, one fresh process per invocation with CFM1 files in and a
report file out, until ``--seconds`` have passed.  Every report is checked
against the independent oracle in ``oracle.py`` and against the first
report's bytes.  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics: medians over the invocations,
  except ``peak_rss_mb``, their maximum.  ``setup_s`` is the median time
  for a fresh interpreter to import ``condmetrics.cli``, over several
  imports after one warm-up.
* ``--trace 1``: the per-layer metrics of ``tracer.py``, from traced
  invocations alternated with untraced ones; ``trace.overhead_s`` is the
  traced minus the untraced median wall time.

``--smoke`` uses tiny shapes so the benchmark's own tests finish in seconds.
Input generation and the oracle are the benchmark's set-up and are timed
into no metric.  Everything written goes to ``.bench_work/`` in the checkout
and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 165.0      # a run must end within 180 s, generation included
SETUP_SAMPLES = 3
# Every child runs single-threaded: CONDMETRICS_THREADS=1 is the CLI's
# default, and with two BLAS threads on a 2-core box the discovery_sweep
# invocations varied by +-12% against +-1% with one.
THREADS = "1"


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    sys_s: float
    peak_rss_mb: float
    returncode: int
    timed_out: bool
    report: bytes


def pinned_env(src: Path) -> dict:
    """Environment of every child: the checkout's sources, fixed thread counts."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(src), PYTHONHASHSEED="0", CONDMETRICS_THREADS=THREADS,
        OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)
    return env


def environment(env: dict) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    mem_total_mb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_total_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "mem_total_mb": mem_total_mb,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "condmetrics_threads": int(env["CONDMETRICS_THREADS"]),
    }


def invoke(argv: list[str], env: dict, out_dir: Path, report_name: str | None,
           timeout: float) -> Invocation:
    """Run one child process to completion and read its resource usage."""
    out_dir.mkdir(parents=True)
    killed = threading.Event()
    with open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = b""
    if report_name is not None and (out_dir / report_name).is_file():
        report = (out_dir / report_name).read_bytes()
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      proc.returncode, killed.is_set(), report)


class Runner:
    """Invocations of one benchmark run, sharing a deadline and a work dir."""

    def __init__(self, case: workloads.Case, env: dict, work: Path, started: float):
        self.case = case
        self.env = env
        self.work = work
        self.deadline = started + DEADLINE_S
        self.count = 0
        self.failures: list[str] = []
        self.digest: str | None = None

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def _out_dir(self) -> Path:
        self.count += 1
        return self.work / f"run-{self.count:03d}"

    def setup_times(self) -> list[float]:
        """Wall time of fresh interpreters importing the CLI; the first,
        which also writes the bytecode cache, is discarded."""
        argv = [sys.executable, "-c", "import condmetrics.cli"]
        times = []
        for i in range(SETUP_SAMPLES + 1):
            inv = invoke(argv, self.env, self._out_dir(), None, self.remaining())
            if inv.returncode != 0:
                raise RuntimeError("importing condmetrics.cli failed; see "
                                   f"{self.work}/run-{self.count:03d}/stderr.txt")
            if i:
                times.append(inv.wall_s)
        return times

    def check(self, label: str, inv: Invocation) -> bool:
        """Record why an invocation failed; True when its report is correct."""
        problems = []
        if inv.timed_out:
            problems.append("timed out")
        elif inv.returncode != 0:
            problems.append(f"exit code {inv.returncode}")
        else:
            problems = oracle.check_report(self.case, inv.report.decode(errors="replace"))
            digest = hashlib.sha256(inv.report).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("report bytes differ from the first invocation's")
        self.failures.extend(f"{label}: {p}" for p in problems)
        return not problems

    def cli(self) -> tuple[Invocation, bool]:
        out = self._out_dir()
        argv = [sys.executable, "-m", "condmetrics", *self.case.argv_tail,
                "--out", str(out / self.case.out_name)]
        inv = invoke(argv, self.env, out, self.case.out_name, self.remaining())
        return inv, self.check(f"invocation {self.count}", inv)

    def traced(self) -> tuple[Invocation, dict | None, bool]:
        out = self._out_dir()
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(out / "trace.json"), "--",
                *self.case.argv_tail, "--out", str(out / self.case.out_name)]
        inv = invoke(argv, self.env, out, self.case.out_name, self.remaining())
        ok = self.check(f"traced invocation {self.count}", inv)
        result = None
        if ok:
            result = json.loads((out / "trace.json").read_text())
        return inv, result, ok

    def may_start(self, longest: float) -> bool:
        return self.remaining() > 1.5 * longest + 5.0


def plain_run(runner: Runner, seconds: float) -> tuple[dict, int, int, list]:
    setup = runner.setup_times()
    invs, failed = [], 0
    start = time.perf_counter()
    while not invs or (time.perf_counter() - start < seconds
                       and runner.may_start(max(i.wall_s for i in invs))):
        inv, ok = runner.cli()
        invs.append(inv)
        failed += not ok
    metrics = {
        "wall_s": (statistics.median(i.wall_s for i in invs), "s"),
        "cpu_s": (statistics.median(i.cpu_s for i in invs), "s"),
        "peak_rss_mb": (max(i.peak_rss_mb for i in invs), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = [f"{len(invs)} invocations, {len(setup)} setup imports",
             "wall_s samples: " + " ".join(f"{i.wall_s:.3f}" for i in invs),
             "system CPU s: " + " ".join(f"{i.sys_s:.3f}" for i in invs),
             f"failed_frac {failed / len(invs):g} ratio ({failed}/{len(invs)})"]
    return metrics, len(invs), failed, notes


def trace_run(runner: Runner, seconds: float) -> tuple[dict, int, int, list]:
    plain, traced, results, failed = [], [], [], 0
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds
                         and runner.may_start(max(i.wall_s for i in plain + traced))):
        inv, ok = runner.cli()
        plain.append(inv)
        failed += not ok
        inv, result, ok = runner.traced()
        traced.append(inv)
        if ok and results and _counts(result) != _counts(results[0]):
            runner.failures.append(f"traced invocation {runner.count}: counts differ")
            ok = False
        failed += not ok
        if ok:
            results.append(result)
    metrics = {}
    if results:
        for name in results[0]["metrics"]:
            unit = tracer.unit(name)
            values = [r["metrics"][name] for r in results]
            metrics[name] = (values[0] if unit in ("count", "bytes") else
                             statistics.median(values), unit)
    overhead = (statistics.median(i.wall_s for i in traced)
                - statistics.median(i.wall_s for i in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    missing = results[0]["missing"] if results else []
    notes = [f"{len(plain)} untraced and {len(traced)} traced invocations",
             f"missing bindings: {missing}"]
    return metrics, len(plain) + len(traced), failed, notes


def _counts(result: dict) -> dict:
    return {k: v for k, v in result["metrics"].items()
            if tracer.unit(k) in ("count", "bytes")}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "condmetrics" / "cli.py").is_file():
        print(f"error: no condmetrics sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = pinned_env(src)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t = time.perf_counter()
        case = workloads.generate(args.workload, args.seed, work / "inputs", args.smoke)
        gen_s = time.perf_counter() - t
        runner = Runner(case, env, work, started)
        measure = trace_run if args.trace else plain_run
        metrics, attempted, failed, notes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"condmetrics benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("environment: " + json.dumps(environment(env), sort_keys=True))
    print(f"inputs: {json.dumps(case.shape, sort_keys=True)}, {case.bytes_in} bytes, "
          f"generated with oracle in {gen_s:.2f} s (not timed)")
    for note in notes:
        print(note)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>18} {unit}" if isinstance(value, int) else
              f"{name:28s} {value:>18.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
