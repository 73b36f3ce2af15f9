"""One repetition of one workload in a fresh interpreter.

    python3 child.py --workload NAME --seed N --variant I --trace 0|1

Run by ``run.py`` with the working directory set to an empty scratch
directory and ``PYTHONPATH`` pointing at the checkout's ``src``.  Prints one
JSON line: the ops and their outcome, the end-to-end timings of this
process and, with ``--trace 1``, the per-layer metrics.
"""

import time

T_START = time.perf_counter()  # before numpy, scipy and dgac are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class SolveClock:
    """Times every solve_forward call, wherever it is called from."""

    def __init__(self):
        self.first_entry = None
        self.seconds = 0.0
        self.slabs = 0

    def install(self) -> None:
        import dgac.forward

        orig = getattr(dgac.forward, "solve_forward", None)
        if orig is None:
            return  # solve_s and slabs_per_s then read 0

        def solve_forward(*args, **kwargs):
            t0 = time.perf_counter()
            if self.first_entry is None:
                self.first_entry = t0
            try:
                sol = orig(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
            self.slabs += len(getattr(sol, "slabs", ()))
            return sol

        tracing.rebind(orig, solve_forward, tracing.dgac_modules())


def _bytes_under(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    clock = SolveClock()
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    clock.install()  # outermost, so solve_s includes any tracing under it

    ops = workloads.Ops()
    values = None
    try:
        values = workloads.WORKLOADS[args.workload](ops, args.seed, args.variant)
    except workloads.Abort:
        pass
    if values is not None and workloads.is_recorded(args.seed, args.variant):
        workloads.compare_golden(ops, args.workload, values)
    t_end = time.perf_counter()

    setup = (clock.first_entry if clock.first_entry is not None else t_end) - T_START
    doc = {
        "ops": ops.items,
        "values": values,
        "wall_s": t_end - T_START,
        "setup_s": setup,
        "solve_s": clock.seconds,
        "slabs": clock.slabs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans)
        layers["io.bytes_written"] = _bytes_under("out")
        doc["layers"] = layers
        doc["absent"] = tracer.absent
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
