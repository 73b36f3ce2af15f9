"""Acceptance gate: every shipped guarantee, one PASS/FAIL line per check.

Each test exercises one guarantee end to end at the tolerance we promise,
prints a single PASS/FAIL line straight to the terminal (past the capture),
and asserts the same condition.  Running this module alone gives a
human-readable checklist of the package's contract:

    pytest tests/test_acceptance.py -q

Tolerances here are the published guarantees, not the observed slack, and
the wall-clock guards are the budgets the checks must fit on a desktop.
"""
import csv
import json
import time

import numpy as np
import scipy.linalg as sla

from dgac.characteristic import discrete_characteristic, sup_norm_scan
from dgac.companions import (
    duality_identity_report,
    local_projection,
    solve_backward_dual,
    solve_parabolic_projection,
)
from dgac.diagnostics import (
    best_approximation_ratio,
    compute_norms,
    energy_trace,
    spectrum_along_solution,
)
from dgac.forward import NewtonConfig, load_checkpoint, solve_forward
from dgac.linalg import LinearSolveConfig, smallest_generalized_eigenvalue
from dgac.problems import make_problem

from _helpers import (
    dense_spacetime_oracle,
    implicit_euler_oracle,
    make_run,
    moment_route,
    monomial_eval,
    run_cli,
)

LIN = LinearSolveConfig()
TIGHT = NewtonConfig(abs_tol=1e-13, rel_tol=1e-13)


def _gate(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"{label}: {detail}"


def _solve(run, **kw):
    return solve_forward(run.problem, run.ops, run.partition, run.basis, **kw)


def _orders(errors):
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


# ---------------------------------------------------------------------------
# exactness checks


def test_duality_identity_and_newton_sensitivity(capsys):
    t0 = time.monotonic()
    run = make_run(n=32, N=8, T=1.0, k=1, l=1, manufactured="expsine")

    def residual(newton_cfg=None, quad_points=None):
        r = run
        if quad_points is not None:
            r = make_run(n=32, N=8, T=1.0, k=1, l=1, manufactured="expsine",
                         quad_points=quad_points, allow_inexact=True)
        sol = solve_forward(r.problem, r.ops, r.partition, r.basis, newton_cfg=newton_cfg)
        phi = solve_backward_dual(sol, r.problem, r.ops)
        return duality_identity_report(sol, phi, r.problem, r.ops).residual

    res_default = residual()
    res_loose = residual(NewtonConfig(abs_tol=1e-8, rel_tol=1e-8))
    res_tight = residual(NewtonConfig(abs_tol=1e-12, rel_tol=1e-12))
    res_under = residual(quad_points=1)
    elapsed = time.monotonic() - t0
    ok = (res_default <= 1e-8 and res_tight < res_loose and res_under > 1e-8
          and elapsed < 10.0)
    _gate(capsys, "duality identity on the default setup, tracking Newton accuracy",
          ok, f"default {res_default:.2e}, newton 1e-8 {res_loose:.2e} -> 1e-12 "
              f"{res_tight:.2e}, under-integrated {res_under:.2e}, {elapsed:.1f}s")


def test_energy_identity_per_slab(capsys):
    t0 = time.monotonic()
    worst = {}
    for k in (1, 2):
        run = make_run(n=32, N=8, T=0.5, k=k, l=1, epsilon=0.5,
                       initial_profile="interface")
        trace = energy_trace(_solve(run), run.problem, run.ops)
        worst[k] = max(trace.details["residuals"])
    elapsed = time.monotonic() - t0
    ok = all(w <= 1e-10 for w in worst.values()) and elapsed < 10.0
    _gate(capsys, "slab energy identity for k=1,2 with f=0", ok,
          f"worst residuals k=1 {worst[1]:.2e}, k=2 {worst[2]:.2e}, {elapsed:.1f}s")


def test_slab_march_matches_monolithic_solves(capsys):
    t0 = time.monotonic()
    n, N = 13, 3
    worst = 0.0
    samples = np.array([0.17, 0.5, 0.83, 1.0])
    for k in (1, 2):
        run = make_run(n=n, N=N, T=0.6, k=k, manufactured="expsine")
        sol = _solve(run, newton_cfg=TIGHT, lin_cfg=LIN)
        u0, W = dense_spacetime_oracle(run.problem, n, N, k)
        worst = max(worst, float(np.max(np.abs(sol.initial - u0))))
        for m in range(N):
            diff = sol.eval_slab(m + 1, samples) - monomial_eval(W[m], samples)
            worst = max(worst, float(np.max(np.abs(diff))))

    problem = make_problem(1, 0.5, 0.3, initial_profile="interface")
    run = make_run(n=n, N=N, T=0.3, k=0, initial_profile="interface")
    sol = solve_forward(problem, run.ops, run.partition, run.basis,
                        newton_cfg=TIGHT, lin_cfg=LIN)
    steps = implicit_euler_oracle(problem, n, N)
    worst_euler = float(np.max(np.abs(sol.initial - steps[0])))
    for m in range(1, N + 1):
        worst_euler = max(worst_euler,
                          float(np.max(np.abs(sol.coeffs(m)[0] - steps[m]))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and worst_euler <= 1e-10
    _gate(capsys, "slab marching agrees with monolithic and backward-Euler solves",
          ok, f"coupled k=1,2 {worst:.2e}, k=0 euler {worst_euler:.2e}, {elapsed:.1f}s")


def test_characteristic_polynomial_constructions(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    cuts = rng.uniform(0.01, 1.0, 100)
    grid = np.linspace(0.0, 1.0, 257)
    worst_defect = worst_route = 0.0
    for k in range(5):
        for t_hat in cuts:
            rho = discrete_characteristic(k, t_hat)
            worst_defect = max(worst_defect, abs(rho(0.0) - 1.0))
            for m in range(1, k + 1):
                worst_defect = max(worst_defect,
                                   abs(rho.moment(m - 1) - t_hat**m / m))
            other = np.polynomial.polynomial.polyval(grid, moment_route(k, t_hat))
            worst_route = max(worst_route, float(np.max(np.abs(rho(grid) - other))))
    c0 = sup_norm_scan(0)["constant"]
    c1 = sup_norm_scan(1)["constant"]
    elapsed = time.monotonic() - t0
    ok = (worst_defect <= 1e-12 and worst_route <= 1e-10
          and abs(c0 - 1.0) <= 1e-12 and abs(c1 - 1.0) <= 1e-12)
    _gate(capsys, "cut polynomials: moment defects, route agreement, scanned constants",
          ok, f"defect {worst_defect:.2e}, routes {worst_route:.2e}, "
              f"C0 {c0:.12f}, C1 {c1:.12f}, {elapsed:.1f}s")


def test_eigenvalue_solver_against_dense_and_analytic(capsys):
    t0 = time.monotonic()
    eps = 0.1
    run = make_run(n=512, l=1, epsilon=eps, initial_profile="interface")
    field = run.ops.evaluate_function(run.problem.u0)
    weight = (3.0 * field**2 - 1.0) / eps**2
    At = run.ops.stiffness() + run.ops.weighted_mass(weight)
    M = run.ops.mass()
    res = smallest_generalized_eigenvalue(At, M, shift=float(weight.min()) - 1.0)
    lam_dense = sla.eigh(At.toarray(), M.toarray(), eigvals_only=True,
                         subset_by_index=[0, 0])[0]
    rel = abs(res.value - lam_dense) / abs(lam_dense)

    rels = {}
    for state, target in ((0.0, np.pi**2 - 1.0 / 0.09), (1.0, np.pi**2 + 2.0 / 0.09)):
        trace = spectrum_along_solution(
            lambda t, x, s=state: np.full(x.shape[:-1], s), run.space, [0.0], 0.3)
        rels[state] = abs(trace.values[0] - target) / abs(target)
    elapsed = time.monotonic() - t0
    ok = (rel <= 1e-6 and not res.used_dense_fallback
          and rels[0.0] <= 1e-2 and rels[1.0] <= 1e-2)
    _gate(capsys, "smallest eigenvalue matches a dense solve and analytic shifts",
          ok, f"vs dense {rel:.2e} at n=512, u=0 rel {rels[0.0]:.2e}, "
              f"u=1 rel {rels[1.0]:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# convergence rates (manufactured solution, eps = 0.5)


def test_joint_refinement_is_first_order_for_lowest_order(capsys):
    t0 = time.monotonic()
    errs = []
    for n in (8, 16, 32, 64):
        run = make_run(n=n, N=n, T=1.0, k=0, l=1, manufactured="expsine")
        rep = compute_norms(_solve(run), reference=run.problem.exact)
        errs.append(rep.LinfL2 + rep.L2H1)
    order = _orders(errs)[-1]
    elapsed = time.monotonic() - t0
    ok = abs(order - 1.0) <= 0.15 and elapsed < 60.0
    _gate(capsys, "joint refinement order for k=0, l=1 in LinfL2 + L2H1", ok,
          f"errors {'/'.join('%.3e' % e for e in errs)}, order {order:.3f}, "
          f"{elapsed:.1f}s")


def test_time_refinement_is_second_order_for_k1(capsys):
    t0 = time.monotonic()
    errs = []
    for N in (4, 8, 16, 32):
        run = make_run(n=256, N=N, T=1.0, k=1, l=1, manufactured="expsine")
        errs.append(compute_norms(_solve(run), reference=run.problem.exact).L2L2)
    order = _orders(errs)[-1]
    elapsed = time.monotonic() - t0
    ok = abs(order - 2.0) <= 0.2 and elapsed < 120.0
    _gate(capsys, "time refinement order for k=1 at fixed fine mesh in L2L2", ok,
          f"errors {'/'.join('%.3e' % e for e in errs)}, order {order:.3f}, "
          f"{elapsed:.1f}s")


def test_space_refinement_is_second_order_for_quadratics(capsys):
    t0 = time.monotonic()
    errs = []
    for n in (4, 8, 16, 32):
        run = make_run(n=n, N=512, T=0.05, k=0, l=2, manufactured="expsine")
        errs.append(compute_norms(_solve(run), reference=run.problem.exact).L2H1)
    order = _orders(errs)[-1]
    elapsed = time.monotonic() - t0
    ok = abs(order - 2.0) <= 0.2 and elapsed < 120.0
    _gate(capsys, "space refinement order for k=0, l=2 at fixed fine steps in L2H1",
          ok, f"errors {'/'.join('%.3e' % e for e in errs)}, order {order:.3f}, "
              f"{elapsed:.1f}s")


def test_projection_convergence_orders(capsys):
    t0 = time.monotonic()
    details = []
    ok = True
    for name in ("parabolic", "local"):
        el2, eh1 = [], []
        for n in (8, 16, 32, 64):
            run = make_run(n=n, N=n, T=1.0, k=1, l=1, manufactured="expsine")
            exact = run.problem.exact
            if name == "parabolic":
                proj = solve_parabolic_projection(exact, run.ops, run.partition,
                                                  run.basis)
            else:
                proj = local_projection(exact.value, run.partition, run.ops,
                                        run.basis)
            rep = compute_norms(proj, reference=exact)
            el2.append(rep.L2L2)
            eh1.append(rep.L2H1)
        o2, oh = _orders(el2)[-1], _orders(eh1)[-1]
        ok = ok and abs(o2 - 2.0) <= 0.2 and abs(oh - 1.0) <= 0.2
        details.append(f"{name} L2L2 {o2:.3f} L2H1 {oh:.3f}")
    elapsed = time.monotonic() - t0
    _gate(capsys, "projections converge at the trial-space orders", ok,
          f"{'; '.join(details)}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# interface scaling


def test_epsilon_sweep_keeps_scaled_norms_bounded(capsys, tmp_path):
    t0 = time.monotonic()
    doc = {"mesh": {"n": 256},
           "time": {"T": 0.025, "N_slabs": 128, "k": 1},
           "epsilon": 0.4,
           "problem": {"initial_profile": "interface"},
           "output": {"directory": str(tmp_path), "run_id": "sweep"}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    code, _ = run_cli(["stability-sweep", "--config", str(cfg),
                       "--epsilons", "0.4", "0.2", "0.1", "0.05"])
    with open(tmp_path / "sweep_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    statuses = [r["status"] for r in rows]
    l2l2 = [float(r["L2L2"]) for r in rows]
    scaled = [float(r["scaled_linf_h1"]) for r in rows]
    ratio_l2 = max(l2l2) / min(l2l2)
    ratio_scaled = max(scaled) / min(scaled)
    elapsed = time.monotonic() - t0
    ok = (code == 0 and statuses == ["ok"] * 4 and ratio_l2 <= 4.0
          and ratio_scaled <= 4.0 and elapsed < 300.0)
    _gate(capsys, "interface norms stay within a factor 4 across the eps sweep",
          ok, f"L2L2 ratio {ratio_l2:.2f}, eps*(LinfL2+L2H1) ratio "
              f"{ratio_scaled:.2f}, {elapsed:.1f}s")


def test_interface_spectrum_is_not_stiff(capsys):
    t0 = time.monotonic()
    values = {}
    for eps in (0.1, 0.05):
        problem = make_problem(1, eps, 1.0, initial_profile="interface")
        run = make_run(n=512, l=1, epsilon=eps, initial_profile="interface")
        trace = spectrum_along_solution(lambda t, x: problem.u0(x),
                                        run.space, [0.0], eps)
        values[eps] = trace.values[0]
    elapsed = time.monotonic() - t0
    ok = (all(v >= -10.0 for v in values.values())
          and all(abs(v) * eps**2 <= 0.5 for eps, v in values.items())
          and elapsed < 60.0)
    _gate(capsys, "interface spectral floor is order one, not order 1/eps^2", ok,
          f"lambda_min {values[0.1]:.4f} at eps 0.1, {values[0.05]:.4f} at "
          f"eps 0.05, {elapsed:.1f}s")


def test_best_approximation_ratio_is_bounded(capsys):
    t0 = time.monotonic()
    ratios = []
    for n in (8, 16, 32, 64):
        run = make_run(n=n, N=n, T=1.0, k=1, l=1, manufactured="expsine")
        proj = solve_parabolic_projection(run.problem.exact, run.ops,
                                          run.partition, run.basis)
        ratios.append(best_approximation_ratio(_solve(run), proj,
                                               run.problem.exact).ratio)
    spread = max(ratios[-3:]) / min(ratios[-3:])
    elapsed = time.monotonic() - t0
    ok = spread <= 2.0
    _gate(capsys, "error over projection error stays bounded under refinement",
          ok, f"ratios {'/'.join('%.3f' % r for r in ratios)}, last-three "
              f"spread {spread:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# robustness


def test_zero_data_and_invalid_config_handling(capsys, tmp_path):
    doc = {"mesh": {"n": 16},
           "time": {"T": 0.5, "N_slabs": 4, "k": 1},
           "problem": {"initial_profile": "zero"},
           "output": {"directory": str(tmp_path), "run_id": "z"}}
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(doc))
    code, _ = run_cli(["solve", "--config", str(cfg)])
    sol, _ = load_checkpoint(str(tmp_path / "z_checkpoint.json"))
    coeffs_zero = (np.all(sol.initial == 0.0)
                   and all(np.all(s.coeffs == 0.0) for s in sol.slabs))
    with open(tmp_path / "z_norms.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    norms_zero = all(row[c] == "0.0" for c in
                     ("L2L2", "LinfL2", "L2H1", "L4L4", "jump_sum"))

    bad = dict(doc, mesh={"n": 16, "n_cellz": 3})
    cfg_bad = tmp_path / "bad.json"
    cfg_bad.write_text(json.dumps(bad))
    code_bad, out = run_cli(["solve", "--config", str(cfg_bad)])
    payload = json.loads(next(ln for ln in out.splitlines() if ln.startswith("{")))
    structured = payload.get("error") == "config" and "n_cellz" in payload.get("message", "")
    ok = code == 0 and coeffs_zero and norms_zero and code_bad == 4 and structured
    _gate(capsys, "zero data stays exactly zero; invalid configs fail structurally",
          ok, f"solve exit {code}, zero coeffs {coeffs_zero}, zero norms "
              f"{norms_zero}, bad-config exit {code_bad}")
