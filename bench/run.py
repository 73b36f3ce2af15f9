"""dgac benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload ladder-1d --seed 1 --seconds 42 --trace 0

Run from the root of a checkout.  The load generator is a single-threaded
closed loop: it starts one fresh interpreter (``child.py``) per repetition,
waits for it, and starts the next while another one still fits in
``--seconds`` (at least ``MIN_REPS`` repetitions after one untimed warm-up).
Every child gets pinned BLAS/OpenMP threads and inputs made from ``--seed``.

``--trace 0`` gives repetition i the input (seed, variant i) and reports
each end-to-end metric from the run's worst repetition: the slowest time,
the lowest rate, the largest memory.  Both choices steady the runs:

- The linear solver's rescue path is chaotic in its input: a change of
  1e-6 in epsilon moves the ladder's GMRES work by up to 10%.  A fresh
  variant per repetition spreads a run over inputs, so that it does not
  hang on one seed's luck.
- A shared host switches between a fast and a contended speed about 1.45x
  apart, for minutes at a time.  How much of a run is fast varies, so
  medians jump between runs, while nearly every run has a repetition at
  the contended speed.

``--trace 1`` gives every child variant 0, alternates untraced and traced
children and reports the per-layer metrics (medians of the traced
children; counts must repeat exactly) plus the tracing overhead.  The last
stdout line is the result JSON; the line before it records the environment
and every repetition.  See README.md for the metrics and why each workload
is here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("ladder-1d", "sweep-1d", "certify-2d")
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = {  # name -> (unit, how the worst repetition is picked)
    "wall_s": ("s", max), "setup_s": ("s", max), "solve_s": ("s", max),
    "check_s": ("s", max), "slabs_per_s": ("1/s", min), "peak_rss_mb": ("MB", max),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, variant: int, traced: bool,
              timeout: float) -> dict:
    """One repetition in a fresh interpreter and an empty working directory."""
    cwd = os.path.join(WORKDIR, f"{os.getpid()}-{workload}")
    shutil.rmtree(cwd, ignore_errors=True)
    os.makedirs(cwd)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--variant", str(variant), "--trace", str(int(traced))]
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ops": [{"op": "child", "ok": False, "detail": f"timeout {timeout:.0f}s"}]}
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        detail = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return {"ops": [{"op": "child", "ok": False, "detail": detail}]}
    return json.loads(lines[-1])


def end_to_end(rep: dict) -> dict:
    wall, setup, solve = rep["wall_s"], rep["setup_s"], rep["solve_s"]
    return {
        "wall_s": wall, "setup_s": setup, "solve_s": solve,
        "check_s": wall - setup - solve,
        "slabs_per_s": rep["slabs"] / solve if solve > 0 else 0.0,
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dgac", "__init__.py")):
        print(f"no dgac sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    # One untimed repetition first: it compiles the bytecode and fills the
    # file cache, which only the first repetition in a checkout would pay.
    warmup = run_child(args.workload, args.seed, 0, False, RUN_LIMIT_S)
    durations = [time.perf_counter() - start]
    reps: list[tuple[bool, dict]] = []
    while "wall_s" in warmup:
        elapsed = time.perf_counter() - start
        n_plain = sum(1 for traced, _ in reps if not traced)
        n_traced = len(reps) - n_plain
        enough = n_plain >= MIN_REPS and (not args.trace or n_traced >= MIN_REPS)
        # stop when the next repetition would end past --seconds by more
        # than half of it, so that every run measures about --seconds
        next_ends = elapsed + 0.5 * (statistics.median(durations) if durations else 0.0)
        if (enough and next_ends >= args.seconds) or elapsed >= RUN_LIMIT_S - 10:
            break
        traced = bool(args.trace) and n_traced < n_plain
        variant = 0 if args.trace else len(reps) + 1
        t0 = time.perf_counter()
        rep = run_child(args.workload, args.seed, variant, traced, RUN_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - t0)
        reps.append((traced, rep))
        if not all(op["ok"] for op in rep["ops"]) and "wall_s" not in rep:
            break  # the child itself failed; repeating it proves nothing
    try:
        os.rmdir(WORKDIR)
    except OSError:
        pass  # absent, or left to another run

    every = [warmup] + [rep for _, rep in reps]
    attempted = sum(len(rep["ops"]) for rep in every)
    failed = sum(not op["ok"] for rep in every for op in rep["ops"])
    plain = [end_to_end(rep) for traced, rep in reps if not traced and "wall_s" in rep]
    traced = [rep for flag, rep in reps if flag and "layers" in rep]
    failures = [op for rep in every for op in rep["ops"] if not op["ok"]]

    if args.trace:
        metrics = {}
        for name, unit in tracing.UNITS.items():
            vals = [rep["layers"].get(name, 0.0) for rep in traced]
            if unit in ("count", "bytes") and len(set(vals)) > 1:
                attempted += 1
                failed += 1
                failures.append({"op": "repeatable count", "ok": False,
                                 "detail": f"{name} varies: {vals}"})
            metrics[name] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
        # untraced and traced children alternate; pairing neighbours keeps
        # the host's slow swings in speed out of the difference
        overhead = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)) if traced and plain else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {name: {"value": worst(p[name] for p in plain) if plain else 0.0,
                          "unit": unit} for name, (unit, worst) in END_TO_END.items()}

    versions = next((rep.get("versions") for rep in every if "versions" in rep), None)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "threads": {var: THREADS for var in THREAD_VARS},
        "versions": versions, "repetitions": len(reps),
        "absent_spans": traced[0]["absent"] if traced else [],
        "per_repetition": plain, "failures": failures[:20],
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and bool(plain), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
