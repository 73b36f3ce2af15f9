"""Norm reports, energy balances, spectral traces, best-approximation ratios."""

import math

import numpy as np
import pytest

from dgac import (
    LinearSolveConfig,
    ManufacturedSolution,
    ProblemSpec,
    SpaceOperators,
    TimePartition,
    UnsupportedConfigurationError,
    best_approximation_ratio,
    build_interval_mesh,
    build_space,
    compute_norms,
    energy_trace,
    local_projection,
    make_time_basis,
    solve_forward,
    solve_parabolic_projection,
    spectrum_along_solution,
    stability_identity_report,
)
from dgac.forward import DgSolution, SlabSolution

from _helpers import Run, gauss01, make_run, p1_error_norms_1d, random_dg_solution

LIN = LinearSolveConfig()


def _small_run(k, n=16, N=8, T=1.0):
    """Unforced low-amplitude problem, the setting where energy decays."""
    problem = ProblemSpec(dimension=1, epsilon=0.5, T=T,
                          u0=lambda x: 0.1 * np.sin(np.pi * x[..., 0]),
                          exact=None, name="smallsine")
    mesh = build_interval_mesh(n)
    space = build_space(mesh, 1)
    return Run(problem, mesh, space, SpaceOperators(space),
               TimePartition.uniform(T, N), make_time_basis(k))


def _constant_in_time(run, v_free):
    sol = DgSolution(partition=run.partition, basis=run.basis, space=run.space,
                     initial=v_free.copy())
    for _ in range(run.partition.n_slabs):
        sol.slabs.append(SlabSolution(np.tile(v_free, (run.basis.k + 1, 1))))
    return sol


# ---------------------------------------------------------------------------
# norms


def test_norms_of_zero_solution():
    run = make_run(n=8, N=3, T=0.6, k=1, initial_profile="zero")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    rep = compute_norms(sol, ops=run.ops)
    assert rep.L2L2 == 0.0 and rep.LinfL2 == 0.0
    assert rep.L2H1 == 0.0 and rep.L4L4 == 0.0 and rep.jump_sum == 0.0


def test_norms_of_time_constant_field():
    run = make_run(n=64, N=4, T=1.0, k=1, initial_profile="zero")
    v = run.space.interpolate(lambda x: np.sin(np.pi * x[..., 0]))
    sol = _constant_in_time(run, v)
    rep = compute_norms(sol, ops=run.ops)
    M = run.ops.mass()
    discrete = float(np.sqrt(v @ (M @ v)))
    assert rep.L2L2 == pytest.approx(discrete, rel=1e-13)
    assert rep.LinfL2 == pytest.approx(rep.L2L2, rel=1e-13)
    assert rep.jump_sum <= 1e-28
    # interpolant of sin(pi x) on 64 cells: norms close to the smooth values
    assert rep.L2L2 == pytest.approx(np.sqrt(0.5), rel=1e-2)
    assert rep.L2H1 == pytest.approx(np.sqrt(0.5 + np.pi**2 / 2.0), rel=1e-2)
    assert rep.L4L4 == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-2)


def test_error_norms_match_independent_quadrature(solved_default):
    run, sol = solved_default
    rep = compute_norms(sol, reference=run.problem.exact, ops=run.ops)
    n_mesh = run.mesh.n_vertices - 1
    sq, sw = gauss01(20)
    pts = run.partition.points
    l2 = h1 = l4 = 0.0
    linf = 0.0
    samples = np.linspace(0.0, 1.0, 41)
    for n in range(1, run.partition.n_slabs + 1):
        t0 = pts[n - 1]
        tau = pts[n] - pts[n - 1]
        rows = sol.eval_slab(n, sq)
        for q, w in enumerate(sw):
            t = t0 + tau * sq[q]
            e2, eh1, e4 = p1_error_norms_1d(
                rows[q], n_mesh,
                lambda xs: np.exp(-t) * np.sin(np.pi * xs),
                lambda xs: np.exp(-t) * np.pi * np.cos(np.pi * xs))
            l2 += tau * w * e2
            h1 += tau * w * eh1
            l4 += tau * w * e4
        for s, row in zip(samples, sol.eval_slab(n, samples)):
            t = t0 + tau * s
            e2 = p1_error_norms_1d(
                row, n_mesh,
                lambda xs: np.exp(-t) * np.sin(np.pi * xs),
                lambda xs: np.exp(-t) * np.pi * np.cos(np.pi * xs))[0]
            linf = max(linf, e2)
    assert rep.L2L2 == pytest.approx(np.sqrt(l2), rel=1e-6)
    assert rep.L2H1 == pytest.approx(np.sqrt(h1), rel=1e-6)
    assert rep.L4L4 == pytest.approx(l4**0.25, rel=1e-6)
    assert rep.LinfL2 == pytest.approx(np.sqrt(linf), rel=2e-2)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sup_norm_dominates_mean_square(k):
    T = 1.3
    run = make_run(n=8, N=5, T=T, k=k, initial_profile="zero")
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        sol = random_dg_solution(run, rng)
        rep = compute_norms(sol, ops=run.ops)
        assert rep.LinfL2 >= rep.L2L2 / np.sqrt(T) * 0.95


def test_jump_sum_matches_trace_differences():
    run = make_run(n=8, N=5, T=1.0, k=1, initial_profile="zero")
    sol = random_dg_solution(run, np.random.default_rng(5))
    rep = compute_norms(sol, ops=run.ops)
    M = run.ops.mass()
    manual = sum(float(sol.jump(i) @ (M @ sol.jump(i)))
                 for i in range(run.partition.n_slabs))
    assert rep.jump_sum == pytest.approx(manual, rel=1e-12)


def test_norm_report_is_pure(solved_default):
    run, sol = solved_default
    r1 = compute_norms(sol, reference=run.problem.exact, ops=run.ops)
    r2 = compute_norms(sol, reference=run.problem.exact, ops=run.ops)
    for key in ("L2L2", "LinfL2", "L2H1", "L4L4", "jump_sum"):
        assert getattr(r1, key) == getattr(r2, key)


# ---------------------------------------------------------------------------
# energy balance


@pytest.mark.parametrize("k", [1, 2])
def test_energy_trace_balance_and_decay(k):
    run = _small_run(k)
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    trace = energy_trace(sol, run.problem, run.ops).details
    N = run.partition.n_slabs
    assert len(trace["right_energy"]) == N
    assert max(trace["residuals"]) <= 1e-10
    assert all(e > 0.0 for e in trace["right_energy"])
    assert all(e > 0.0 for e in trace["integrated_energy"])
    assert all(d >= 0.0 for d in trace["weighted_dissipation"])
    diffs = np.diff(trace["right_energy"])
    assert np.all(diffs <= 1e-12)


def test_energy_balance_rejects_k0():
    run = _small_run(0, n=8, N=2)
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    with pytest.raises(UnsupportedConfigurationError, match="k >= 1"):
        energy_trace(sol, run.problem, run.ops)


def test_energy_balance_rejects_forced_problems(solved_default):
    run, sol = solved_default
    with pytest.raises(UnsupportedConfigurationError, match="f = 0"):
        energy_trace(sol, run.problem, run.ops)


def test_stability_identity(solved_default):
    run, sol = solved_default
    rep = stability_identity_report(sol, run.problem, run.ops)
    assert rep.name == "slab_stability_balance"
    assert rep.residual <= 1e-9
    per = rep.details["per_slab_residuals"]
    assert len(per) == run.partition.n_slabs
    assert max(per) == rep.residual


def test_stability_identity_rejects_a_backward_solution(solved_default):
    # the forward balance needs u^0; a solution with initial None (the
    # backward problems) must not be read as a backward balance
    run, sol = solved_default
    backward = DgSolution(partition=sol.partition, basis=sol.basis, space=sol.space,
                          initial=None, slabs=sol.slabs)
    with pytest.raises(ValueError, match="backward solution"):
        stability_identity_report(backward, run.problem, run.ops)


def test_stability_identity_zero_solution():
    run = make_run(n=8, N=3, T=0.6, k=1, initial_profile="zero")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    rep = stability_identity_report(sol, run.problem, run.ops)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0


# ---------------------------------------------------------------------------
# spectrum along a trajectory


def test_spectrum_zero_state_reference_value():
    eps = 0.3
    mesh = build_interval_mesh(64)
    space = build_space(mesh, 1)
    trace = spectrum_along_solution(lambda t, x: np.zeros(x.shape[:-1]),
                                    space, [0.0, 0.7], eps)
    target = np.pi**2 - 1.0 / eps**2
    assert trace.values[0] == pytest.approx(target, rel=1e-2)
    assert trace.values[0] == trace.values[1]
    assert all(r <= 1e-6 for r in trace.residuals)
    assert trace.implied_constant == pytest.approx(-min(trace.values), rel=1e-12)


def test_spectrum_uniform_state_reference_value():
    eps = 0.3
    mesh = build_interval_mesh(64)
    space = build_space(mesh, 1)
    trace = spectrum_along_solution(lambda t, x: np.ones(x.shape[:-1]),
                                    space, [0.0], eps)
    target = np.pi**2 + 2.0 / eps**2
    assert trace.values[0] == pytest.approx(target, rel=1e-2)
    assert trace.implied_constant == 0.0


def test_spectrum_along_slab_solution(interface_solved):
    run, sol = interface_solved
    eps = run.problem.epsilon
    times = [0.0, 0.05, 0.1]
    trace = spectrum_along_solution(sol, run.space, times, eps, run.ops)
    assert trace.times == times
    assert len(trace.values) == 3
    # pointwise bound 3u^2 - 1 >= -1 makes pi^2 - 1/eps^2 a certified floor
    floor = np.pi**2 - 1.0 / eps**2
    assert min(trace.values) >= floor - 1e-6
    again = spectrum_along_solution(sol, run.space, times, eps, run.ops)
    assert trace.values == again.values


# ---------------------------------------------------------------------------
# best-approximation comparison


def test_best_approximation_ratio_near_one(solved_default):
    run, sol = solved_default
    u_p = solve_parabolic_projection(run.problem.exact, run.ops,
                                     run.partition, run.basis)
    rep = best_approximation_ratio(sol, u_p, run.problem.exact)
    assert not rep.exact_case
    assert 0.5 < rep.ratio < 2.0
    assert rep.ratio == pytest.approx(rep.numerator / rep.denominator, rel=1e-13)


def test_best_approximation_exact_case():
    run = make_run(n=8, N=2, T=1.0, k=1, initial_profile="zero")
    n = run.space.mesh.n_vertices - 1
    xs = np.linspace(0.0, 1.0, n + 1)
    free = run.space.interpolate(lambda x: x[..., 0] * (1.0 - x[..., 0]))
    full = run.space.scatter(free)
    slopes = np.diff(full) * n

    def s(x):
        return np.interp(x[..., 0], xs, full)

    def grad_s(x):
        idx = np.clip((x[..., 0] * n).astype(int), 0, n - 1)
        return slopes[idx][..., None]

    # (1 + t/2) times the P1 interpolant: the reference lies in the discrete space
    ref = ManufacturedSolution("interpolant", 1, a=lambda t: 1.0 + 0.5 * t,
                               da=lambda t: np.full(np.shape(t), 0.5), s=s,
                               grad_s=grad_s, lap_s=lambda x: np.zeros(x.shape[:-1]))
    u_p = local_projection(ref.value, run.partition, run.ops, run.basis,
                           lin_cfg=LIN)
    rep = best_approximation_ratio(u_p, u_p, ref)
    assert rep.exact_case
    assert math.isnan(rep.ratio)
    assert rep.numerator <= 1e-9 and rep.denominator <= 1e-9
