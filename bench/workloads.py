"""The benchmark workloads: inputs from a seed, one run, output checks.

Every workload drives dgac through its public API or its CLI entry point
and checks what it produced.  Each op (a CLI command, a pipeline call or an
output check) is recorded pass/fail in an ``Ops`` list; a pipeline call that
raises ends the run, so later ops are not attempted.

An input is named by a seed and a variant (the repetition's index within
a run).  Variant 0 of the default seed runs the recorded configuration and
compares the outputs with ``golden.json`` (values recorded at the seed
commit, rel 1e-9).  Every other input jitters epsilon and T by at most
``JITTER`` relative, keeping the work comparable, and the checks fall back
to identity thresholds and observed-order windows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

import numpy as np

DEFAULT_SEED = 0
JITTER = 0.01
GOLDEN_REL = 1e-9
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


class Abort(Exception):
    """A pipeline call failed; the rest of the run is skipped."""


class Ops:
    """Pass/fail record of every op of one run."""

    def __init__(self):
        self.items: list[dict] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        self.items.append({"op": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def call(self, name: str, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program is a failed op
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            raise Abort(name) from exc
        self.check(name, True)
        return out


def is_recorded(seed: int, variant: int) -> bool:
    """Whether this input is the configuration recorded in golden.json."""
    return seed == DEFAULT_SEED and variant == 0


def jitter(seed: int, variant: int, name: str) -> tuple[float, float]:
    """(epsilon factor, T factor) for an input; exactly 1 on the recorded one."""
    if is_recorded(seed, variant):
        return 1.0, 1.0
    rng = random.Random(f"{name}:{seed}:{variant}")
    return 1.0 + rng.uniform(-JITTER, JITTER), 1.0 + rng.uniform(-JITTER, JITTER)


def _close(a, b, rel=GOLDEN_REL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(abs(a), abs(b))


def compare_golden(ops: Ops, name: str, values: dict) -> None:
    try:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)[name]
    except (OSError, KeyError, ValueError) as exc:
        ops.check("golden", False, f"no recorded values: {exc!r}")
        return
    for key, ref in golden.items():
        got = values.get(key)
        if got is None or len(got) != len(ref):
            ops.check("golden", False, f"{key}: {got!r} vs {ref!r}")
            return
        for i, (a, b) in enumerate(zip(got, ref)):
            if not _close(a, b):
                ops.check("golden", False, f"{key}[{i}]: {a!r} vs {b!r}")
                return
    ops.check("golden", True)


def _num(text: str):
    return float(text) if text else None


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cli(ops: Ops, argv: list[str]) -> None:
    from dgac.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ops.call("cli " + argv[0], main, argv)
    if not ops.check("cli exit code", code == 0, f"exit {code}: {buf.getvalue()[-300:]}"):
        raise Abort("cli")


def _write_config(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# ladder-1d: k=1 time-refinement ladder, dominated by the linear solves


def ladder_config(seed: int, variant: int) -> dict:
    f_eps, f_T = jitter(seed, variant, "ladder-1d")
    return {"dimension": 1, "mesh": {"n": 64},
            "time": {"T": 1.0 * f_T, "N_slabs": 2, "k": 1},
            "space": {"degree_l": 1}, "epsilon": 0.5 * f_eps,
            "problem": {"manufactured": "expsine"},
            "output": {"directory": "out", "run_id": "ladder"}}


LADDER_COLUMNS = ("L2L2", "LinfL2", "L2H1", "L4L4",
                  "order_L2L2", "order_LinfL2", "order_L2H1", "order_L4L4")
# dG(1) is second order in time; at these coarse steps the observed L2L2
# and LinfL2 orders are still pre-asymptotic (about 1.8 and 1.65), while
# L2H1 is already limited by the spatial P1 error and is not checked.
LADDER_ORDER_WINDOWS = {"order_L2L2": (1.6, 2.2), "order_LinfL2": (1.4, 2.2)}


def run_ladder(ops: Ops, seed: int, variant: int) -> dict:
    _write_config(ladder_config(seed, variant), "ladder.json")
    _cli(ops, ["convergence", "--config", "ladder.json", "--levels", "3",
               "--refine", "time"])
    rows = _read_csv(os.path.join("out", "ladder_convergence.csv"))
    ops.check("three levels", len(rows) == 3, f"{len(rows)} rows")
    values = {c: [_num(r[c]) for r in rows] for c in LADDER_COLUMNS}
    for col, (lo, hi) in LADDER_ORDER_WINDOWS.items():
        got = [v for v in values[col] if v is not None]
        ops.check(f"window {col}", got and all(lo <= v <= hi for v in got),
                  f"{got} not in [{lo}, {hi}]")
    return values


# ---------------------------------------------------------------------------
# sweep-1d: many small slabs, dominated by building the slab operator


SWEEP_EPSILONS = (0.4, 0.2, 0.1, 0.05)


def sweep_config(seed: int, variant: int) -> tuple[dict, list[float]]:
    f_eps, f_T = jitter(seed, variant, "sweep-1d")
    doc = {"dimension": 1, "mesh": {"n": 32},
           "time": {"T": 0.0125 * f_T, "N_slabs": 64, "k": 1},
           "space": {"degree_l": 2}, "epsilon": SWEEP_EPSILONS[0] * f_eps,
           "problem": {"initial_profile": "interface"},
           "output": {"directory": "out", "run_id": "sweep"}}
    return doc, [e * f_eps for e in SWEEP_EPSILONS]


SWEEP_COLUMNS = ("L2L2", "LinfL2", "L2H1", "L4L4", "jump_sum",
                 "scaled_linf_h1", "scaled_l4")


def run_sweep(ops: Ops, seed: int, variant: int) -> dict:
    doc, epsilons = sweep_config(seed, variant)
    _write_config(doc, "sweep.json")
    _cli(ops, ["stability-sweep", "--config", "sweep.json", "--epsilons",
               *[repr(e) for e in epsilons]])
    rows = _read_csv(os.path.join("out", "sweep_sweep.csv"))
    statuses = [r["status"] for r in rows]
    ops.check("every point ok", statuses == ["ok"] * len(epsilons), f"{statuses}")
    values = {c: [_num(r[c]) for r in rows] for c in SWEEP_COLUMNS}
    # the interface norms stay within a factor 4 across the sweep
    for col in ("L2L2", "scaled_linf_h1"):
        got = values[col]
        ok = all(v is not None and v > 0 for v in got) and max(got) / min(got) <= 4.0
        ops.check(f"bounded {col}", ok, f"{got}")
    return values


# ---------------------------------------------------------------------------
# certify-2d: forward solve plus every companion and diagnostic check


CERTIFY_SPECTRUM_SAMPLES = 5
BEST_APPROX_WINDOW = (0.5, 4.0)


def certify_config(seed: int, variant: int) -> dict:
    f_eps, f_T = jitter(seed, variant, "certify-2d")
    return {"dimension": 2, "mesh": {"n_per_side": 16},
            "time": {"T": 1.0 * f_T, "N_slabs": 8, "k": 1},
            "space": {"degree_l": 2}, "epsilon": 0.5 * f_eps,
            "problem": {"manufactured": "expsine2d"},
            "output": {"directory": "out", "run_id": "certify"}}


def run_certify(ops: Ops, seed: int, variant: int) -> dict:
    from dgac.companions import (dual_stability_report, duality_identity_report,
                                 local_projection, psi_chain_report,
                                 solve_backward_dual, solve_backward_psi,
                                 solve_parabolic_projection)
    from dgac.config import instantiate, parse_config
    from dgac.diagnostics import (best_approximation_ratio, spectrum_along_solution,
                                  stability_identity_report)
    from dgac.forward import load_checkpoint, save_checkpoint, solve_forward

    doc = certify_config(seed, variant)
    disc = ops.call("instantiate", instantiate, parse_config(doc))
    problem, exact, lin = disc.problem, disc.problem.exact, disc.linear
    sol = ops.call("solve_forward", solve_forward, problem, disc.ops, disc.partition,
                   disc.basis, newton_cfg=disc.newton, lin_cfg=lin)

    os.makedirs("out", exist_ok=True)
    ckpt = os.path.join("out", "certify_checkpoint.json")
    ops.call("save_checkpoint", save_checkpoint, sol, ckpt, problem)
    back, _ = ops.call("load_checkpoint", load_checkpoint, ckpt)
    ops.check("checkpoint round trip",
              len(back.slabs) == len(sol.slabs)
              and np.array_equal(back.initial, sol.initial)
              and all(np.array_equal(a.coeffs, b.coeffs)
                      for a, b in zip(back.slabs, sol.slabs)))

    phi = ops.call("solve_backward_dual", solve_backward_dual, sol, problem,
                   ops=disc.ops, lin_cfg=lin)
    dual = ops.call("duality_identity_report", duality_identity_report, sol, phi,
                    problem, disc.ops)
    ops.check("duality <= 1e-8", dual.residual <= 1e-8, f"{dual.residual:.3e}")
    dstab = ops.call("dual_stability_report", dual_stability_report, sol, phi,
                     problem, disc.ops)
    ops.check("dual stability balance <= 1e-9", dstab.residual <= 1e-9,
              f"{dstab.residual:.3e}")
    ops.check("dual stability Young bound", dstab.details["young_slack"] >= -1e-12,
              f"{dstab.details['young_slack']:.3e}")

    psi = ops.call("solve_backward_psi", solve_backward_psi, sol, sol, problem,
                   ops=disc.ops, lin_cfg=lin)
    chain = ops.call("psi_chain_report", psi_chain_report, psi, sol, sol, problem,
                     disc.ops)
    ops.check("psi chain balance <= 1e-9", chain.residual <= 1e-9,
              f"{chain.residual:.3e}")
    stab = ops.call("stability_identity_report", stability_identity_report, sol,
                    problem, disc.ops)
    ops.check("slab stability balance <= 1e-9", stab.residual <= 1e-9,
              f"{stab.residual:.3e}")

    proj = ops.call("solve_parabolic_projection", solve_parabolic_projection, exact,
                    disc.ops, disc.partition, disc.basis, lin)
    local = ops.call("local_projection", local_projection, exact.value,
                     disc.partition, disc.ops, disc.basis, lin)
    # endpoint condition of the local projection: M C(t_N) = (w(t_N), phi)
    w_end = disc.ops.load(lambda x: exact.value(disc.partition.T, x))
    end_res = float(np.linalg.norm(disc.ops.mass() @ local.right_trace(
        disc.partition.n_slabs) - w_end)) / (float(np.linalg.norm(w_end)) + 1.0)
    ops.check("local projection endpoint <= 1e-12", end_res <= 1e-12, f"{end_res:.3e}")

    ratio = ops.call("best_approximation_ratio", best_approximation_ratio, sol, proj,
                     exact)
    lo, hi = BEST_APPROX_WINDOW
    ops.check("best approximation window", lo <= ratio.ratio <= hi, f"{ratio.ratio}")

    times = np.linspace(0.0, disc.partition.T, CERTIFY_SPECTRUM_SAMPLES)
    spec = ops.call("spectrum_along_solution", spectrum_along_solution, sol,
                    disc.space, times, problem.epsilon, ops=disc.ops)
    floor = -1.0 / problem.epsilon**2  # the quotient is >= (1/eps^2) min(3u^2 - 1)
    ops.check("spectrum certified and above floor",
              not any(spec.used_dense) and min(spec.values) >= floor
              and all(math.isfinite(v) for v in spec.values),
              f"{spec.values} dense {spec.used_dense}")

    return {"duality": [dual.lhs, dual.rhs],
            "best_approximation": [ratio.numerator, ratio.denominator, ratio.ratio],
            "spectrum": spec.values}


WORKLOADS = {
    "ladder-1d": run_ladder,
    "sweep-1d": run_sweep,
    "certify-2d": run_certify,
}
