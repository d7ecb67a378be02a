"""Benchmark of the privdeg CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the script times ``python -m privdeg.cli`` as a user
runs it, in a child process importing ``src/``: after a checked warm-up
invocation on the default seed's inputs, it repeats the seeded invocation
while the next one fits in ``--seconds``, checks every output, and reports the
median wall time, the median peak RSS of the largest process in the
CLI's process tree, and the set-up time of a fresh interpreter importing
``privdeg.cli`` (median of several). With ``--trace 1`` it runs the same
command in-process through ``privdeg.cli.main`` at one worker, untraced
and traced in turn, checks that both write the same bytes, and reports
the per-layer metrics of ``tracing.PER_LAYER``; the spans are written
to ``.perfbench/`` under the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Thread-count
environment variables are recorded, never set: pinning BLAS threads
would hide the oversubscription of the ``--workers 2`` pool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, WORKLOADS, CheckError, Invocation

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 3
MIN_SAMPLES = 3
POOL_SAMPLES = 2  # fewer than MIN_SAMPLES: a 2-worker run is the slowest here
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


@dataclass(frozen=True)
class Sample:
    wall_s: float
    rss_mb: float  # largest single process among the child and its reaped children
    code: int


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_python(args: list[str], deadline: float) -> Sample:
    """Time one child interpreter with ``src/`` on its path.

    ``os.wait4`` returns the child's peak RSS, which Linux folds together
    with that of every descendant the child waited for (pool workers).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode)


class Tally:
    """Operations attempted and failed; a failure is a nonzero exit, a
    failed output check, or output bytes that differ between repeats."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._bytes: dict[Path, str] = {}

    def record(self, inv: Invocation, code: int) -> None:
        self.attempted += 1
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            text = inv.out.read_text()
            if self._bytes.setdefault(inv.out, text) != text:
                raise CheckError("output differs from the first run of the same input")
            inv.check(text)
        except (CheckError, OSError, ValueError) as exc:
            self.failed += 1
            print(f"check failed: {' '.join(inv.argv)}: {exc}", file=sys.stderr)


def timed_run(workload, seed: int, seconds: float, deadline: float) -> tuple[Tally, dict]:
    setup = [run_python(["-c", "import privdeg.cli"], deadline)
             for _ in range(SETUP_SAMPLES)]
    tally = Tally()
    check = workload.prepare(DEFAULT_SEED, WORK / workload.name / "default")
    tally.record(check, run_python(["-m", "privdeg.cli", *check.argv], deadline).code)
    inv = workload.prepare(seed, WORK / workload.name / f"seed{seed}")
    samples: list[Sample] = []
    start = time.monotonic()
    while (len(samples) < MIN_SAMPLES
           or time.monotonic() - start + samples[-1].wall_s <= seconds):
        s = run_python(["-m", "privdeg.cli", *inv.argv], deadline)
        tally.record(inv, s.code)
        samples.append(s)
    walls = [s.wall_s for s in samples]
    print(f"wall_s: median {statistics.median(walls):.4f} s over {len(walls)} "
          f"invocations (min {min(walls):.4f}, max {max(walls):.4f})")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s.wall_s for s in setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    tally.attempted += len(setup)
    tally.failed += sum(s.code != 0 for s in setup)
    return tally, {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END}


def traced_run(workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    sys.path.insert(0, str(SRC))
    import tracing
    from privdeg import cli

    inv = workload.prepare(seed, WORK / workload.name / f"seed{seed}-trace")
    tally = Tally()
    tally.record(inv, cli.main(list(inv.argv)))  # warm-up: lazy imports, page faults
    passes: list[dict[str, float]] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start + 2 * passes[-1]["cli.main_s"] <= seconds:
        t0 = time.perf_counter()
        tally.record(inv, cli.main(list(inv.argv)))
        untraced = time.perf_counter() - t0
        code, tracer = tracing.traced_main(list(inv.argv))
        tally.record(inv, code)
        m = tracing.summarize(tracer)
        m["trace.overhead_frac"] = (m["cli.main_s"] - untraced) / untraced
        passes.append(m)
    metrics = tracing.median_metrics(passes)
    metrics["simulate.parallel_efficiency"] = 0.0
    if workload.pool:
        pool_walls: list[float] = []
        start = time.monotonic()
        while (len(pool_walls) < POOL_SAMPLES
               or time.monotonic() - start + pool_walls[-1] <= seconds):
            code, pool = tracing.traced_main(list(inv.with_workers(2).argv))
            tally.record(inv, code)  # same bytes as at one worker
            pool_walls.append(tracing.summarize(pool)["simulate.run_scenario_s"])
        print("run_scenario_s at 2 workers: "
              + ", ".join(f"{w:.4f}" for w in pool_walls))
        metrics["simulate.parallel_efficiency"] = (
            metrics["simulate.run_scenario_s"] / (2.0 * statistics.median(pool_walls)))
    spans = WORK / workload.name / f"spans-seed{seed}.json"
    spans.write_text(json.dumps([[s.name, s.start, s.end, s.parent]
                                 for s in tracer.spans]))
    width = max(len(name) for name, _, _ in tracing.PER_LAYER)
    for name, unit, base in tracing.PER_LAYER:
        print(f"{name:<{width}}  {metrics[name]:>14.6g} {unit:<5}  [{base}]")
    return tally, {name: {"value": metrics[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "privdeg" / "cli.py").is_file():
        print(f"error: no privdeg source under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    print("host: " + json.dumps(host_info()))
    if args.trace:
        tally, metrics = traced_run(workload, args.seed, args.seconds)
    else:
        tally, metrics = timed_run(workload, args.seed, args.seconds, deadline)
    print(f"failed_frac: {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
