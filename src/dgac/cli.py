"""Command line runner for solves, convergence ladders, epsilon sweeps,
identity verification, and spectrum traces.

Every table row carries the 12-digit hash of the fully explicit
configuration that produced it, so CSV files are self-describing.  Data
files never contain wall-clock information; the run manifest does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import time

import numpy as np

from .assembly import SpaceOperators
from .characteristic import discrete_characteristic
from .companions import (duality_identity_report, local_projection,
                         solve_backward_dual)
from .config import (ConfigError, MeshConfig, QuadratureConfig, RunConfig,
                     config_hash, config_to_dict, instantiate, load_config)
from .diagnostics import compute_norms, energy_trace, spectrum_along_solution
from .forward import NewtonError, save_checkpoint, solve_forward
from .linalg import LinearSolveError
from .problems import MANUFACTURED, ProblemSpec
from .timebase import make_time_basis, radau_right_nodes

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_IDENTITY = 3
EXIT_CONFIG = 4

NORM_HEADER = ("run_id", "k", "l", "N", "n_cells", "epsilon", "L2L2",
               "LinfL2", "L2H1", "L4L4", "jump_sum", "config_hash")

SOLVER_ERRORS = (NewtonError, LinearSolveError)


def _fmt(x: float) -> str:
    # repr of a python float is the shortest round-tripping decimal, which
    # keeps tables byte-identical across runs and platforms.
    return repr(float(x))


def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _norm_row(run_id: str, cfg: RunConfig, n_cells: int, report) -> list[str]:
    return [run_id, str(cfg.time.k), str(cfg.space.degree_l), str(cfg.time.N_slabs),
            str(n_cells), _fmt(cfg.epsilon), _fmt(report.L2L2), _fmt(report.LinfL2),
            _fmt(report.L2H1), _fmt(report.L4L4), _fmt(report.jump_sum),
            config_hash(cfg)]


def _error_json(kind: str, message: str, **extra) -> str:
    doc = {"error": kind, "message": message}
    doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def _evidence(exc: Exception) -> dict:
    """A NewtonError's residual history, or the relative residual a
    LinearSolveError reached (null if none was computed)."""
    if isinstance(exc, NewtonError):
        return {"history": list(exc.history)}
    if isinstance(exc, LinearSolveError):
        return {"achieved_residual": exc.achieved_residual}
    return {}


def _solver_error_json(exc: Exception, message: str | None = None, **extra) -> str:
    """Solver error line carrying the evidence of the failure."""
    extra.update(_evidence(exc))
    return _error_json("solver", str(exc) if message is None else message, **extra)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(outdir: str, run_id: str, cfg: RunConfig, command: str,
                    outputs: list[str], extra: dict | None = None) -> str:
    doc = {
        "command": command,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
        "outputs": outputs,
        "written_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        doc.update(extra)
    path = os.path.join(outdir, f"{run_id}_manifest.json")
    _write_json(path, doc)
    return path


def _print_guidance(cfg: RunConfig) -> None:
    h = 1.0 / cfg.mesh.n if cfg.dimension == 1 else np.sqrt(2.0) / cfg.mesh.n_per_side
    tau = cfg.time.T / cfg.time.N_slabs
    print(f"resolution guidance (reported, not enforced): tau + h = {tau + h:.3e} "
          f"against the eps^4 scale {cfg.epsilon**4:.3e}; the proportionality "
          "constants are not computable, so small ratios are informative only.")


def _solve(disc, problem: ProblemSpec | None = None):
    """Forward solve of an instantiated config, optionally with another problem."""
    return solve_forward(problem or disc.problem, disc.ops, disc.partition, disc.basis,
                         newton_cfg=disc.newton, lin_cfg=disc.linear)


def _resolve_outdir(cfg: RunConfig, out_flag: str | None) -> str:
    outdir = out_flag if out_flag is not None else cfg.output.directory
    os.makedirs(outdir, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# solve


def cmd_solve(cfg: RunConfig, outdir: str) -> int:
    disc = instantiate(cfg)
    run_id = cfg.output.run_id
    _print_guidance(cfg)
    sol = _solve(disc)
    n_cells = disc.space.mesh.n_elements
    outputs = []

    ckpt = os.path.join(outdir, f"{run_id}_checkpoint.json")
    save_checkpoint(sol, ckpt, disc.problem)
    outputs.append(ckpt)

    norms = compute_norms(sol, ops=disc.ops)
    norms_csv = os.path.join(outdir, f"{run_id}_norms.csv")
    _write_csv(norms_csv, NORM_HEADER, [_norm_row(run_id, cfg, n_cells, norms)])
    outputs.append(norms_csv)
    print(f"norms: L2L2={_fmt(norms.L2L2)} LinfL2={_fmt(norms.LinfL2)} "
          f"L2H1={_fmt(norms.L2H1)} L4L4={_fmt(norms.L4L4)} jump_sum={_fmt(norms.jump_sum)}")

    if disc.problem.exact is not None:
        errs = compute_norms(sol, reference=disc.problem.exact)
        err_csv = os.path.join(outdir, f"{run_id}_errors.csv")
        _write_csv(err_csv, NORM_HEADER, [_norm_row(run_id, cfg, n_cells, errs)])
        outputs.append(err_csv)
        print(f"errors vs exact: L2L2={_fmt(errs.L2L2)} LinfL2={_fmt(errs.LinfL2)} "
              f"L2H1={_fmt(errs.L2H1)}")

    _write_manifest(outdir, run_id, cfg, "solve", outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# convergence


def _refined(cfg: RunConfig, level: int, refine: str) -> RunConfig:
    factor = 2**level
    time_cfg = cfg.time
    mesh_cfg = cfg.mesh
    if refine in ("time", "both"):
        time_cfg = dataclasses.replace(time_cfg, N_slabs=cfg.time.N_slabs * factor)
    if refine in ("space", "both"):
        if cfg.dimension == 1:
            mesh_cfg = MeshConfig(n=cfg.mesh.n * factor)
        else:
            mesh_cfg = MeshConfig(n_per_side=cfg.mesh.n_per_side * factor)
    return dataclasses.replace(cfg, time=time_cfg, mesh=mesh_cfg)


CONV_HEADER = ("run_id", "level", "k", "l", "N", "n_cells", "epsilon", "h", "tau",
               "L2L2", "LinfL2", "L2H1", "L4L4",
               "order_L2L2", "order_LinfL2", "order_L2H1", "order_L4L4",
               "config_hash")


def cmd_convergence(cfg: RunConfig, outdir: str, levels: int, refine: str) -> int:
    run_id = cfg.output.run_id
    _print_guidance(cfg)
    csv_path = os.path.join(outdir, f"{run_id}_convergence.csv")
    rows: list[list[str]] = []
    errors = []
    failed = None
    for level in range(levels):
        cfg_l = _refined(cfg, level, refine)
        disc = instantiate(cfg_l)
        try:
            sol = _solve(disc)
        except SOLVER_ERRORS as exc:
            failed = (level, exc, config_hash(cfg_l))
            break
        err = compute_norms(sol, reference=disc.problem.exact)
        errors.append(err)
        h = disc.space.mesh.mesh_size
        tau = cfg_l.time.T / cfg_l.time.N_slabs
        orders = ["", "", "", ""]
        if level > 0:
            prev = errors[level - 1]
            pairs = [(prev.L2L2, err.L2L2), (prev.LinfL2, err.LinfL2),
                     (prev.L2H1, err.L2H1), (prev.L4L4, err.L4L4)]
            orders = [_fmt(np.log2(c / f)) if f > 0 and c > 0 else ""
                      for c, f in pairs]
        rows.append([run_id, str(level), str(cfg_l.time.k), str(cfg_l.space.degree_l),
                     str(cfg_l.time.N_slabs), str(disc.space.mesh.n_elements),
                     _fmt(cfg_l.epsilon), _fmt(h), _fmt(tau),
                     _fmt(err.L2L2), _fmt(err.LinfL2), _fmt(err.L2H1), _fmt(err.L4L4),
                     *orders, config_hash(cfg_l)])
        print(f"level {level}: h={h:.4e} tau={tau:.4e} L2L2={err.L2L2:.4e} "
              f"LinfL2={err.LinfL2:.4e} L2H1={err.L2H1:.4e}")
    _write_csv(csv_path, CONV_HEADER, rows)
    extra = {"refine": refine, "levels": levels}
    if failed is not None:
        extra["failed_level"] = failed[0]
        _write_manifest(outdir, run_id, cfg, "convergence", [csv_path], extra)
        level, exc, level_hash = failed
        print(_solver_error_json(exc, f"level {level} failed: {exc}",
                                 partial_table=csv_path, config_hash=level_hash))
        return EXIT_SOLVER
    _write_manifest(outdir, run_id, cfg, "convergence", [csv_path], extra)
    print(f"convergence table written to {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability sweep


SWEEP_HEADER = NORM_HEADER[:-1] + ("scaled_linf_h1", "scaled_l4", "status", "config_hash")


def cmd_stability_sweep(cfg: RunConfig, outdir: str, epsilons: list[float]) -> int:
    run_id = cfg.output.run_id
    rows = []
    failures = []
    for eps in epsilons:
        cfg_e = dataclasses.replace(cfg, epsilon=float(eps))
        disc = instantiate(cfg_e)
        try:
            sol = _solve(disc)
        except SOLVER_ERRORS as exc:
            failures.append((exc, {"epsilon": float(eps), "config_hash": config_hash(cfg_e),
                                   "message": str(exc), **_evidence(exc)}))
            rows.append([run_id, str(cfg_e.time.k), str(cfg_e.space.degree_l),
                         str(cfg_e.time.N_slabs), str(disc.space.mesh.n_elements),
                         _fmt(eps), "", "", "", "", "", "", "", "failed",
                         config_hash(cfg_e)])
            print(f"eps={eps}: solver failed ({exc})")
            continue
        norms = compute_norms(sol, ops=disc.ops)
        scaled1 = eps * (norms.LinfL2 + norms.L2H1)
        scaled2 = eps * norms.L4L4**2
        rows.append(_norm_row(run_id, cfg_e, disc.space.mesh.n_elements, norms)[:-1]
                    + [_fmt(scaled1), _fmt(scaled2), "ok", config_hash(cfg_e)])
        print(f"eps={eps}: L2L2={norms.L2L2:.4e} "
              f"eps*(LinfL2+L2H1)={scaled1:.4e} eps*L4L4^2={scaled2:.4e}")
    csv_path = os.path.join(outdir, f"{run_id}_sweep.csv")
    _write_csv(csv_path, SWEEP_HEADER, rows)
    _write_manifest(outdir, run_id, cfg, "stability-sweep", [csv_path],
                    {"epsilons": [float(e) for e in epsilons]})
    if failures:
        print(_solver_error_json(failures[0][0], "one or more sweep points failed; "
                                 "partial results written", table=csv_path,
                                 failed_points=[point for _, point in failures]))
        return EXIT_SOLVER
    print(f"sweep table written to {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _identity_entry(identity: str, lhs, rhs, residual, threshold: float, chash: str) -> dict:
    """One verify record: both sides, the residual and its pass/fail status."""
    return {"identity": identity, "lhs": lhs, "rhs": rhs, "residual": float(residual),
            "threshold": threshold, "status": "pass" if residual <= threshold else "fail",
            "config_hash": chash}


def _energy_entry(cfg: RunConfig, disc, sol, chash: str) -> dict:
    if cfg.time.k == 0:
        return {"identity": "energy_balance", "status": "skipped (k=0)",
                "config_hash": chash}
    problem = disc.problem
    if problem.exact is not None:
        # The balance is derived for the gradient flow; rerun the same
        # discretization with forcing removed and the same initial data.
        problem = dataclasses.replace(problem, exact=None, name=problem.name + "+f0")
        sol = _solve(disc, problem)
    report = energy_trace(sol, problem, disc.ops)
    return _identity_entry(report.name, report.lhs, report.rhs, report.residual, 1e-10, chash)


def _projection_moment_entry(cfg: RunConfig, disc, chash: str) -> dict:
    # The projector check always uses exact rules; the under-integration
    # control is aimed at the solve/duality pair.
    exact = MANUFACTURED["expsine" if cfg.dimension == 1 else "expsine2d"]
    basis = make_time_basis(cfg.time.k)
    ops = SpaceOperators(disc.space)
    proj = local_projection(exact.value, disc.partition, ops, basis)
    M = ops.mass()
    pts = disc.partition.points
    moments = basis.quad_weights * basis.quad_points ** np.arange(cfg.time.k)[:, None]
    lhs, rhs = [], []
    for n in range(1, disc.partition.n_slabs + 1):
        t0, tau = pts[n - 1], pts[n] - pts[n - 1]
        C = proj.coeffs(n)
        loads = ops.load(ops.time_fields(
            exact.value, np.append(t0 + tau * basis.quad_points, t0 + tau)))
        # endpoint condition against the weak form of w(t_n), then the moment
        # conditions m = 0 .. k-1 against quadrature of w itself
        lhs += [M @ C[-1], *(moments @ (M @ (basis.values @ C).T).T)]
        rhs += [loads[-1], *(moments @ loads[:-1])]
    residuals = [float(np.linalg.norm(a - b)) / (np.linalg.norm(b) + 1.0) for a, b in zip(lhs, rhs)]
    # lhs/rhs of a fixed row, the last slab's endpoint condition: the worst
    # row is round-off and moves with the summation order
    end = len(lhs) - (cfg.time.k + 1)
    return _identity_entry("projection_moments", float(np.linalg.norm(lhs[end])),
                           float(np.linalg.norm(rhs[end])), max(residuals), 1e-12, chash)


def _characteristic_entry(cfg: RunConfig, chash: str) -> dict:
    k = cfg.time.k
    cuts = sorted(set(float(t) for t in radau_right_nodes(k)) | {0.5})
    worst, at = 0.0, (1.0, 1.0)
    for t_hat in cuts:
        poly = discrete_characteristic(k, t_hat)
        checks = [(float(poly(0.0)), 1.0)]
        checks += [(poly.moment(m - 1), t_hat**m / m) for m in range(1, k + 1)]
        for lhs, rhs in checks:
            if abs(lhs - rhs) > worst:
                worst, at = abs(lhs - rhs), (lhs, rhs)
    return _identity_entry("characteristic_moments", *at, worst, 1e-12, chash)


def cmd_verify(cfg: RunConfig, outdir: str, under_integrate: bool) -> int:
    """Identity checks of cfg; main has already degraded it under --under-integrate."""
    chash = config_hash(cfg)
    run_id = cfg.output.run_id
    disc = instantiate(cfg)
    sol = _solve(disc)
    phi = solve_backward_dual(sol, disc.problem, ops=disc.ops, lin_cfg=disc.linear)
    dual = duality_identity_report(sol, phi, disc.problem)
    reports = [_identity_entry(dual.name, dual.lhs, dual.rhs, dual.residual, 1e-8, chash),
               _energy_entry(cfg, disc, sol, chash),
               _projection_moment_entry(cfg, disc, chash),
               _characteristic_entry(cfg, chash)]
    path = os.path.join(outdir, f"{run_id}_identities.json")
    _write_json(path, reports)
    _write_manifest(outdir, run_id, cfg, "verify", [path],
                    {"under_integrate": under_integrate})
    failures = []
    for rep in reports:
        if "residual" in rep:
            print(f"{rep['identity']}: residual {rep['residual']:.3e} "
                  f"(threshold {rep['threshold']:.0e}) {rep['status']}")
        else:
            print(f"{rep['identity']}: {rep['status']}")
        if rep["status"] == "fail":
            failures.append(rep["identity"])
    if failures:
        print(_error_json("identity", "failed: " + ", ".join(failures),
                          identities=failures, config_hash=chash))
        return EXIT_IDENTITY
    print("all identity checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: RunConfig, outdir: str, samples: int) -> int:
    disc = instantiate(cfg)
    run_id = cfg.output.run_id
    sol = _solve(disc)
    times = np.linspace(0.0, cfg.time.T, samples)
    trace = spectrum_along_solution(sol, disc.space, times, cfg.epsilon, ops=disc.ops)
    doc = trace.to_dict()
    doc["config_hash"] = config_hash(cfg)
    doc["note"] = ("Rayleigh quotient over the Dirichlet-constrained discrete "
                   "space; statements without boundary conditions can only "
                   "give smaller minima.")
    path = os.path.join(outdir, f"{run_id}_spectrum.json")
    _write_json(path, doc)
    _write_manifest(outdir, run_id, cfg, "spectrum", [path], {"samples": samples})
    print(f"lambda_min in [{min(trace.values):.4f}, {max(trace.values):.4f}], "
          f"implied constant {trace.implied_constant:.4f}")
    print(f"spectrum trace written to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgac",
        description="Space-time finite element runner for the Allen-Cahn equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: output.directory from the config)")

    p_solve = sub.add_parser("solve", help="forward solve, checkpoint, norms")
    add_common(p_solve)

    p_conv = sub.add_parser("convergence", help="refinement ladder with observed orders")
    add_common(p_conv)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--refine", choices=("time", "space", "both"), default="both")

    p_sweep = sub.add_parser("stability-sweep", help="norm scalings across epsilons")
    add_common(p_sweep)
    p_sweep.add_argument("--epsilons", type=float, nargs="+", required=True)

    p_verify = sub.add_parser("verify", help="discrete identity checks")
    add_common(p_verify)
    p_verify.add_argument("--under-integrate", action="store_true",
                          help="negative control: degrade the time quadrature")

    p_spec = sub.add_parser("spectrum", help="linearized principal eigenvalue trace")
    add_common(p_spec)
    p_spec.add_argument("--samples", type=int, default=9)

    return parser


def _check_arguments(cfg: RunConfig, args) -> None:
    """Reject bad subcommand flags, and a convergence ladder without exact
    data, before the output directory is created."""
    if args.command == "convergence":
        if args.levels < 3:
            raise ConfigError("convergence needs --levels >= 3")
        if cfg.problem.manufactured is None:
            raise ConfigError("convergence needs a manufactured solution "
                              "(error norms require exact data)")
    elif args.command == "stability-sweep":
        epsilons = args.epsilons
        if not all(math.isfinite(e) and e > 0 for e in epsilons):
            raise ConfigError("--epsilons must be finite and positive")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise ConfigError("--epsilons must be strictly descending")
    elif args.command == "spectrum" and args.samples < 1:
        raise ConfigError("--samples must be >= 1")


def main(argv=None) -> int:
    """Dispatch a subcommand.  Config errors exit 4; a solver error escaping
    solve, verify or spectrum prints its evidence with the hash of the
    config that was solved and exits 2 (convergence and stability-sweep
    report their own, after writing their partial tables)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _check_arguments(cfg, args)
        if args.command == "verify" and args.under_integrate:
            # negative control: the time quadrature cut to max(1, k) points
            cfg = dataclasses.replace(cfg, quadrature=QuadratureConfig(
                time_points=max(1, cfg.time.k), space_order=cfg.quadrature.space_order,
                allow_inexact=True))
        outdir = _resolve_outdir(cfg, args.out)
        if args.command == "solve":
            return cmd_solve(cfg, outdir)
        if args.command == "convergence":
            return cmd_convergence(cfg, outdir, args.levels, args.refine)
        if args.command == "stability-sweep":
            return cmd_stability_sweep(cfg, outdir, args.epsilons)
        if args.command == "verify":
            return cmd_verify(cfg, outdir, args.under_integrate)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, outdir, args.samples)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(_error_json("config", str(exc)))
        return EXIT_CONFIG
    except SOLVER_ERRORS as exc:
        print(_solver_error_json(exc, config_hash=config_hash(cfg)))
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
