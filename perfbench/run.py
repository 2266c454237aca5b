"""Benchmark of the eomae training program: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pretrain_desk --seed 1 --seconds 25 --trace 0

The run makes the workload's inputs from ``--seed`` (set-up), then starts
one process that repeats whole rounds of the workload's operations until
``--seconds`` have passed, checks the program's outputs and ends. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the program's modules in spans and reports the
per-layer metrics instead, and writes every span to
``perfbench/runs/traces/``. The exit code is 0 when every check passed.

The program is taken from ``src/`` of the checkout; the BLAS thread count is
fixed at ``BLAS_THREADS`` before numpy loads.
"""

from __future__ import annotations

import os
import time


def _process_age_s() -> float:
    """Seconds since this process started, from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


# Set-up is timed from the start of the process: interpreter start-up up to
# here, then the clock.
_STARTUP_S = _process_age_s()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
BLAS_THREADS = 1
# Longest the measuring process may run past ``--seconds``: one round of the
# slowest workload plus its checks.
MEASURE_GRACE_S = 120
# Longest an untimed set-up of a fresh checkout may take.
PRIME_TIMEOUT_S = 120


def main(argv: list[str] | None = None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eomae" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/eomae", file=sys.stderr)
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    sys.path[:0] = [str(SRC)]

    # One work directory per workload, kept between runs: each run writes the
    # same file names over the last run's, since deleting thousands of small
    # files makes file creation in the next run's set-up slow by a varying
    # amount. Runs in one checkout therefore go one at a time. In a fresh
    # checkout an untimed set-up in a child process creates the files first,
    # so that every timed set-up writes over existing ones.
    work = RUNS / args.workload
    primed_s = 0.0
    if not work.is_dir():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), args.workload,
                               str(args.seed), str(work)], cwd=ROOT, timeout=PRIME_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            print(f"error: untimed set-up exited {proc.returncode}", file=sys.stderr)
            return 1
        primed_s = time.perf_counter() - t0

    rec = None
    if args.trace:
        import spans
        from eomae import autodiff

        rec = spans.Recorder(autodiff.macs)
        spans.instrument(rec)
    plan = workloads.setup(args.workload, args.seed, work)
    setup_s = _STARTUP_S + time.perf_counter() - _T0 - primed_s

    job = work / "job.json"
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    job.write_text(json.dumps({"plan": plan, "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace}), encoding="utf-8")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "measure.py"), str(job), str(result_path)],
                          cwd=ROOT, timeout=args.seconds + MEASURE_GRACE_S, check=False)
    child_s = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: measuring process exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text(encoding="utf-8"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    e2e = {
        "setup_s": setup_s,
        "train_tiles_per_s": res["train_tiles_per_s"],
        "eval_tiles_per_s": res["eval_tiles_per_s"],
        "wall_s": res["wall_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"workload": args.workload, "seed": args.seed, "blas_threads": BLAS_THREADS,
            "rounds": res["rounds"], "measuring_process_s": child_s,
            "operation_s": res["durations"], "end_to_end": e2e}
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        layers = dict(res["per_layer"])
        generate = rec.span_total("synthetic.generate", 2)
        layers["synthetic.generate_ms"] = 1e3 * generate / rec.count_total("synthetic.tiles")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        traces = RUNS / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace = {**info, "per_layer": layers, "setup": rec.to_dict(), "measure": res["trace"]}
        (traces / f"{args.workload}-s{args.seed}.json").write_text(
            json.dumps(trace, indent=1, sort_keys=True), encoding="utf-8")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = not res["errors"]
    for m in metrics.values():
        if not math.isfinite(m["value"]):   # the run has failed a check; keep the JSON valid
            m["value"] = None
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
