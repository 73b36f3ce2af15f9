"""Backward companion solves, their identities, and space-time projections."""

import dataclasses

import numpy as np
import pytest

from dgac import (
    LinearSolveConfig,
    ManufacturedSolution,
    NewtonConfig,
    SpaceOperators,
    TimePartition,
    compute_norms,
    dual_stability_report,
    duality_identity_report,
    energy_trace,
    factorize,
    local_projection,
    make_time_basis,
    psi_chain_report,
    smallest_generalized_eigenvalue,
    solve_backward_dual,
    solve_backward_psi,
    solve_forward,
    solve_parabolic_projection,
    stability_identity_report,
)
from dgac import companions
from dgac.forward import DgSolution, SlabSolution, l2_project

from _helpers import (
    lagrange_time_matrices,
    make_run,
    tridiag_mass,
    tridiag_stiffness,
    weighted_hat_mass_1d,
)

LIN = LinearSolveConfig()
TIGHT = NewtonConfig(abs_tol=1e-13, rel_tol=1e-13)


def _ones_ref(t, x):
    """Reference state u = 1: the linearized reaction is exactly 2/eps^2."""
    return np.ones(x.shape[:-1])


def _poly_rhs(run, seed, scale=1.0):
    """DgSolution holding fixed random slab polynomials, used as data g."""
    rng = np.random.default_rng(seed)
    sol = DgSolution(partition=run.partition, basis=run.basis, space=run.space,
                     initial=np.zeros(run.space.n_free))
    for _ in range(run.partition.n_slabs):
        coeffs = scale * rng.standard_normal((run.basis.k + 1, run.space.n_free))
        sol.slabs.append(SlabSolution(coeffs))
    return sol


# ---------------------------------------------------------------------------
# backward dual solve


def test_dual_of_zero_solution_is_zero():
    run = make_run(n=8, N=3, T=0.6, k=1, initial_profile="zero")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    phi = solve_backward_dual(sol, run.problem, run.ops)
    for n in range(1, 4):
        assert np.all(phi.coeffs(n) == 0.0)
    rep = duality_identity_report(sol, phi, run.problem, run.ops)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.residual == 0.0


def test_dual_single_slab_matches_dense_oracle():
    # k = 0, one slab: the transposed system collapses to
    # (M + tau A + tau W) phi = tau M u with W the (u^2+1)/eps^2 weighted mass.
    n, T = 4, 0.5
    run = make_run(n=n, N=1, T=T, k=0, epsilon=0.5, manufactured="expsine")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis,
                        newton_cfg=TIGHT, lin_cfg=LIN)
    u = sol.coeffs(1)[0]
    M = tridiag_mass(n)
    A = tridiag_stiffness(n)
    W = weighted_hat_mass_1d(u, n, lambda uv: (uv**2 + 1.0) / 0.5**2)
    phi_oracle = np.linalg.solve(M + T * (A + W), T * (M @ u))
    phi = solve_backward_dual(sol, run.problem, run.ops, lin_cfg=LIN)
    assert np.max(np.abs(phi.coeffs(1)[0] - phi_oracle)) <= 1e-12


def test_duality_identity_golden(solved_default):
    run, sol = solved_default
    phi = solve_backward_dual(sol, run.problem, run.ops)
    rep = duality_identity_report(sol, phi, run.problem, run.ops)
    assert rep.name == "duality"
    assert rep.residual <= 1e-8
    assert rep.lhs == pytest.approx(0.21498855473562914, abs=1e-9)
    assert rep.details["initial_pairing"] == pytest.approx(0.0284124849712866, abs=1e-9)
    assert rep.details["cross_term"] == pytest.approx(0.10231953628648056, abs=1e-9)
    assert rep.details["forcing_term"] == pytest.approx(0.0842565334778263, abs=1e-9)
    total = (rep.details["initial_pairing"] + rep.details["cross_term"]
             + rep.details["forcing_term"])
    assert rep.rhs == pytest.approx(total, abs=1e-12)


def test_duality_identity_piecewise_constant():
    run = make_run(n=8, N=4, T=0.5, k=0, manufactured="expsine")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis,
                        newton_cfg=TIGHT)
    phi = solve_backward_dual(sol, run.problem, run.ops)
    assert duality_identity_report(sol, phi, run.problem, run.ops).residual <= 1e-8


def test_duality_residual_tracks_newton_tolerance():
    run = make_run(n=16, N=8, T=1.0, k=1, manufactured="expsine")
    residuals = {}
    for tol in (1e-4, 1e-12):
        cfg = NewtonConfig(abs_tol=tol, rel_tol=tol)
        sol = solve_forward(run.problem, run.ops, run.partition, run.basis,
                            newton_cfg=cfg)
        phi = solve_backward_dual(sol, run.problem, run.ops)
        residuals[tol] = duality_identity_report(sol, phi, run.problem, run.ops).residual
    assert residuals[1e-12] <= 1e-8
    assert residuals[1e-4] > 1e-8
    assert residuals[1e-12] < 1e-2 * residuals[1e-4]


def test_duality_detects_under_integration():
    # One Gauss point cannot integrate the cubic pairing; the identity is
    # evaluated with an independent exact rule, so the defect must show up.
    run = make_run(n=16, N=8, T=1.0, k=1, manufactured="expsine",
                   quad_points=1, allow_inexact=True)
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    phi = solve_backward_dual(sol, run.problem, run.ops)
    res = duality_identity_report(sol, phi, run.problem, run.ops).residual
    assert res > 1e-6


def test_dual_stability_balance(solved_default):
    run, sol = solved_default
    phi = solve_backward_dual(sol, run.problem, run.ops)
    rep = dual_stability_report(sol, phi, run.problem, run.ops)
    assert rep.name == "backward_dual_stability"
    assert rep.residual <= 1e-9
    assert max(rep.details["per_slab_residuals"]) == rep.residual
    assert rep.details["young_lhs"] > 0.0
    assert rep.details["young_slack"] >= -1e-12
    assert rep.details["young_rhs"] >= rep.details["young_lhs"] - 1e-12


def test_backward_solution_traces(solved_default):
    # a backward solution ends in the terminal zero and has no datum before t_0
    run, sol = solved_default
    phi = solve_backward_dual(sol, run.problem, run.ops)
    N = run.partition.n_slabs
    assert phi.initial is None
    assert np.array_equal(phi.left_plus(N + 1), np.zeros(run.space.n_free))
    assert np.array_equal(phi.eval_time(run.partition.T), phi.right_trace(N))
    for probe in (lambda: phi.eval_time(0.0), lambda: phi.jump(0)):
        with pytest.raises(ValueError, match="no trace at t_0"):
            probe()


# ---------------------------------------------------------------------------
# one factorization carried through each backward march


def _count_factorizations(monkeypatch) -> list:
    """Record the size of every system a backward march factors."""
    sizes = []

    def counted(A, config=None):
        sizes.append(A.shape[0])
        return factorize(A, config)

    monkeypatch.setattr(companions, "factorize", counted)
    return sizes


def _factor_every_slab(monkeypatch) -> None:
    """Report every carried factorization stale, so that each slab factors
    its own operator: the march without the carried LU."""

    def per_slab(A, config=None):
        solve = factorize(A, config)
        return lambda b, K=None: None if K is not None else solve(b)

    monkeypatch.setattr(companions, "factorize", per_slab)


def _backward_pair(run, sol):
    return (solve_backward_dual(sol, run.problem, run.ops, LIN),
            solve_backward_psi(sol, sol, run.problem, ops=run.ops, lin_cfg=LIN))


def _stacked(sol):
    return np.stack([sol.coeffs(n) for n in range(1, sol.partition.n_slabs + 1)])


@pytest.fixture(scope="module")
def certify_solved():
    """The certify configuration: 2d P2 16^2, k=1, N=8, eps 0.5, T=1."""
    run = make_run(dimension=2, epsilon=0.5, T=1.0, n=16, N=8, k=1, l=2)
    return run, solve_forward(run.problem, run.ops, run.partition, run.basis)


@pytest.mark.parametrize("case", ["1d", "certify-2d"])
def test_backward_marches_carry_one_factorization(case, solved_default, certify_solved,
                                                  monkeypatch):
    run, sol = solved_default if case == "1d" else certify_solved
    sizes = _count_factorizations(monkeypatch)
    phi, psi = _backward_pair(run, sol)
    n_dual = len(sizes)
    assert n_dual <= 2 and len(sizes) - n_dual <= 2, sizes
    _factor_every_slab(monkeypatch)
    for got, want in zip((phi, psi), _backward_pair(run, sol)):
        got, want = _stacked(got), _stacked(want)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_backward_march_refactors_where_the_reaction_jumps(monkeypatch):
    # the frozen coefficient jumps from 0 to 3 at t = 0.5, so the reaction
    # tau (3 u^2 - 1)/eps^2 jumps from -1 to 26: the LU of the last slab
    # serves slab 3, is stale on slab 2 and is factored again there
    run = make_run(n=16, N=4, T=1.0, k=1, epsilon=0.5, initial_profile="zero")
    g = _poly_rhs(run, seed=5)

    def jump(t, x):
        return np.full(x.shape[:-1], 3.0 if t > 0.5 else 0.0)

    sizes = _count_factorizations(monkeypatch)
    psi = solve_backward_psi(g, jump, run.problem, ops=run.ops, lin_cfg=LIN)
    assert len(sizes) == 2
    _factor_every_slab(monkeypatch)
    want = _stacked(solve_backward_psi(g, jump, run.problem, ops=run.ops, lin_cfg=LIN))
    assert np.linalg.norm(_stacked(psi) - want) <= 1e-13 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# every slab balance on a non-uniform partition


NON_UNIFORM = np.array([0.0, 0.04, 0.15, 0.2, 0.37, 0.5])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("dimension", [1, 2])
def test_identities_hold_on_a_non_uniform_partition(dimension, k):
    run = make_run(dimension=dimension, T=0.5, n=8 if dimension == 1 else 3, k=k, l=2)
    run = dataclasses.replace(run, partition=TimePartition(NON_UNIFORM))
    problem, ops = run.problem, run.ops
    sol = solve_forward(problem, ops, run.partition, run.basis, TIGHT, LIN)

    phi = solve_backward_dual(sol, problem, ops, LIN)
    assert duality_identity_report(sol, phi, problem, ops).residual <= 1e-8
    dual = dual_stability_report(sol, phi, problem, ops)
    assert dual.residual <= 1e-9
    assert dual.details["young_slack"] >= 0.0
    psi = solve_backward_psi(sol, sol, problem, ops=ops, lin_cfg=LIN)
    assert psi_chain_report(psi, sol, sol, problem, ops).residual <= 1e-9
    assert stability_identity_report(sol, problem, ops).residual <= 1e-9

    if k >= 1:  # the energy balance is derived for f = 0 and k >= 1
        unforced = dataclasses.replace(problem, exact=None)
        free = solve_forward(unforced, ops, run.partition, run.basis, TIGHT, LIN)
        assert max(energy_trace(free, unforced, ops).details["residuals"]) <= 1e-10


# ---------------------------------------------------------------------------
# linearized backward solve


def test_psi_zero_rhs_is_zero(solved_default):
    run, sol = solved_default
    psi = solve_backward_psi(lambda t, x: np.zeros(x.shape[:-1]), sol,
                             run.problem, ops=run.ops)
    for slab in psi.slabs:
        assert np.all(slab.coeffs == 0.0)


def test_psi_requires_a_discretization():
    run = make_run(n=4, N=1, T=0.5, k=1, initial_profile="zero")
    with pytest.raises(ValueError, match="slab-polynomial"):
        solve_backward_psi(lambda t, x: np.zeros(x.shape[:-1]), _ones_ref,
                           run.problem, ops=run.ops)


def test_psi_matches_dense_oracle():
    # Reference state u = 1 freezes the reaction at the constant 2/eps^2,
    # so each slab is exactly kron(G^T, M) + tau kron(Theta, A + 2/eps^2 M).
    n, N, T, eps = 4, 2, 0.5, 0.5
    run = make_run(n=n, N=N, T=T, k=1, epsilon=eps, initial_profile="zero")
    g = _poly_rhs(run, seed=3)
    psi = solve_backward_psi(g, _ones_ref, run.problem, ops=run.ops,
                             lin_cfg=LIN)

    _, G, Theta, left, right = lagrange_time_matrices(1)
    M = tridiag_mass(n)
    A = tridiag_stiffness(n)
    tau = T / N
    K = np.kron(G.T, M) + tau * np.kron(Theta, A + (2.0 / eps**2) * M)
    incoming = np.zeros(n - 1)
    oracle = {}
    for m in range(N, 0, -1):
        data = tau * (Theta @ (M @ g.coeffs(m).T).T)
        rhs = (np.outer(right, M @ incoming) + data).ravel()
        W = np.linalg.solve(K, rhs).reshape(2, n - 1)
        oracle[m] = W
        incoming = left @ W

    for m in range(1, N + 1):
        assert np.max(np.abs(psi.coeffs(m) - oracle[m])) <= 1e-12


def test_psi_chain_balance_and_spectral_floor():
    run = make_run(n=8, N=4, T=0.5, k=1, epsilon=0.5, initial_profile="zero")
    g = _poly_rhs(run, seed=11, scale=0.5)
    psi = solve_backward_psi(g, _ones_ref, run.problem, ops=run.ops,
                             lin_cfg=LIN)
    A = run.ops.stiffness()
    M = run.ops.mass()
    lam = smallest_generalized_eigenvalue(A + (2.0 / 0.5**2) * M, M, shift=7.0).value
    rep = psi_chain_report(psi, _ones_ref, g, run.problem, run.ops,
                           spectral_floor=lambda t: lam)
    assert rep.name == "linearized_backward_stability"
    assert rep.residual <= 1e-9
    assert max(rep.details["per_slab_residuals"]) == rep.residual
    slacks = rep.details["spectral_slack_per_slab"]
    assert len(slacks) == 4
    assert min(slacks) >= -1e-9


@pytest.mark.parametrize("eps", [0.5, 0.3])
def test_psi_epsilon_scaling_bound(eps):
    # Testing the linearized system with its own solution and absorbing the
    # data by Young's inequality with weight eps^2/2 leaves, for u = 1,
    #   1/2 ||psi(0+)||^2 + 1/2 sum ||[psi]||^2 + int ||grad psi||^2
    #     + (1/eps^2) int ||psi||^2  <=  (eps^2/4) int ||g||^2.
    run = make_run(n=8, N=4, T=0.5, k=1, epsilon=eps, initial_profile="zero")
    g = _poly_rhs(run, seed=7)
    psi = solve_backward_psi(g, _ones_ref, run.problem, ops=run.ops,
                             lin_cfg=LIN)
    M = run.ops.mass()
    A = run.ops.stiffness()
    basis = run.basis
    pts = run.partition.points
    start = psi.left_plus(1)
    lhs = 0.5 * float(start @ (M @ start))
    g_sq = 0.0
    for n in range(1, run.partition.n_slabs + 1):
        tau = pts[n] - pts[n - 1]
        jump = psi.right_trace(n) - psi.left_plus(n + 1)
        lhs += 0.5 * float(jump @ (M @ jump))
        pq = psi.eval_slab(n, basis.quad_points)
        gq = g.eval_slab(n, basis.quad_points)
        for q, w in enumerate(basis.quad_weights):
            row = pq[q]
            lhs += tau * w * (float(row @ (A @ row))
                              + float(row @ (M @ row)) / eps**2)
            g_sq += tau * w * float(gq[q] @ (M @ gq[q]))
    bound = 0.25 * eps**2 * g_sq
    assert lhs <= bound * (1.0 + 1e-9) + 1e-12


# ---------------------------------------------------------------------------
# parabolic projection


def _p1_field(run, profile):
    """Nodal interpolant of profile as (free values, callables value/grad)."""
    n = run.space.mesh.n_vertices - 1
    xs = np.linspace(0.0, 1.0, n + 1)
    free = run.space.interpolate(profile)
    full = run.space.scatter(free)
    slopes = np.diff(full) * n

    def value(x):
        return np.interp(x[..., 0], xs, full)

    def grad(x):
        idx = np.clip((x[..., 0] * n).astype(int), 0, n - 1)
        return slopes[idx][..., None]

    return free, value, grad


def test_parabolic_projection_reproduces_trial_space():
    run = make_run(n=8, N=4, T=1.0, k=1, initial_profile="zero")
    v_free, v_val, v_grad = _p1_field(run, lambda x: np.sin(np.pi * x[..., 0]))

    def g(t):
        return 2.0 - 1.5 * t

    exact = ManufacturedSolution("p1_product", 1, a=g, da=lambda t: np.full(np.shape(t), -1.5),
                                 s=v_val, grad_s=v_grad, lap_s=lambda x: np.zeros(x.shape[:-1]))
    u_p = solve_parabolic_projection(exact, run.ops, run.partition, run.basis,
                                     lin_cfg=LIN)
    assert np.max(np.abs(u_p.initial - 2.0 * v_free)) <= 1e-12
    pts = run.partition.points
    for n in range(1, 5):
        tau = pts[n] - pts[n - 1]
        times = pts[n - 1] + tau * run.basis.nodes
        expected = np.outer(g(times), v_free)
        assert np.max(np.abs(u_p.coeffs(n) - expected)) <= 1e-10
    for i in range(4):
        assert np.max(np.abs(u_p.jump(i))) <= 1e-12


def test_parabolic_projection_galerkin_orthogonality():
    # Rebuild each slab residual with an elevated, independently constructed
    # quadrature; the projection must satisfy the equations against it.
    run = make_run(n=16, N=4, T=1.0, k=1, manufactured="expsine")
    exact = run.problem.exact
    u_p = solve_parabolic_projection(exact, run.ops, run.partition, run.basis,
                                     lin_cfg=LIN)
    elev = make_time_basis(1, quad_points=10)
    M = run.ops.mass()
    A = run.ops.stiffness()
    pts = run.partition.points
    prev = u_p.initial
    for n in range(1, 5):
        t0 = pts[n - 1]
        tau = pts[n] - pts[n - 1]
        U = u_p.coeffs(n)
        loads = np.stack([
            run.ops.load(lambda x, tq=t0 + tau * q: exact.dt(tq, x))
            + run.ops.gradient_load(lambda x, tq=t0 + tau * q: exact.grad(tq, x))
            for q in elev.quad_points
        ])
        R = elev.G @ (M @ U.T).T + tau * (elev.Theta @ (A @ U.T).T)
        R -= np.outer(elev.left_values, M @ prev)
        R -= tau * np.einsum("q,qi,qa->ia", elev.quad_weights, elev.values, loads)
        assert np.max(np.abs(R)) <= 1e-8
        prev = u_p.right_trace(n)


def test_parabolic_projection_convergence():
    errs = []
    for nn in (8, 16, 32):
        run = make_run(n=nn, N=nn, T=1.0, k=1, l=1, manufactured="expsine")
        u_p = solve_parabolic_projection(run.problem.exact, run.ops,
                                         run.partition, run.basis)
        errs.append(compute_norms(u_p, reference=run.problem.exact, ops=run.ops))
    l2_order = np.log2(errs[1].L2L2 / errs[2].L2L2)
    linf_order = np.log2(errs[1].LinfL2 / errs[2].LinfL2)
    h1_order = np.log2(errs[1].L2H1 / errs[2].L2H1)
    assert abs(l2_order - 2.0) <= 0.2
    assert abs(linf_order - 2.0) <= 0.2
    assert abs(h1_order - 1.0) <= 0.2


# ---------------------------------------------------------------------------
# slab-local projection


def test_local_projection_reproduces_trial_space():
    run = make_run(n=8, N=4, T=1.0, k=1, initial_profile="zero")
    v_free, v_val, _ = _p1_field(run, lambda x: x[..., 0] * (1.0 - x[..., 0]))

    def g(t):
        return 1.0 + 0.5 * t

    w = lambda t, x: g(t) * v_val(x)
    sol = local_projection(w, run.partition, run.ops, run.basis, lin_cfg=LIN)
    assert np.max(np.abs(sol.initial - v_free)) <= 1e-12
    pts = run.partition.points
    for n in range(1, 5):
        tau = pts[n] - pts[n - 1]
        times = pts[n - 1] + tau * run.basis.nodes
        expected = np.outer(g(times), v_free)
        assert np.max(np.abs(sol.coeffs(n) - expected)) <= 1e-12


def test_local_projection_k0_matches_endpoint():
    run = make_run(n=8, N=2, T=1.0, k=0, initial_profile="zero")
    v_free, v_val, _ = _p1_field(run, lambda x: np.sin(np.pi * x[..., 0]))
    w = lambda t, x: (1.0 + t) * v_val(x)
    coeffs = local_projection(w, run.partition, run.ops, run.basis,
                              lin_cfg=LIN).coeffs(1)
    assert coeffs.shape == (1, run.space.n_free)
    # endpoint value, not the slab average 1.25
    assert np.max(np.abs(coeffs[0] - 1.5 * v_free)) <= 1e-12
    assert np.max(np.abs(coeffs[0] - 1.25 * v_free)) > 1e-3


def test_local_projection_defining_equations():
    run = make_run(n=12, N=1, T=1.0, k=2, manufactured="expsine")
    w = run.problem.exact.value
    t0, t1 = 0.2, 0.45
    tau = t1 - t0
    basis = run.basis
    coeffs = local_projection(w, TimePartition(np.array([t0, t1])), run.ops, basis,
                              lin_cfg=LIN).coeffs(1)
    M = run.ops.mass()
    end = l2_project(lambda x: w(t1, x), run.ops, LIN)
    assert np.max(np.abs(basis.right_values @ coeffs - end)) <= 1e-10
    # moment equations against a denser independent rule
    sq, sw = np.polynomial.legendre.leggauss(12)
    sq = 0.5 * (sq + 1.0)
    sw = 0.5 * sw
    for m in range(2):
        lhs = np.einsum("q,q,qj->j", sw, sq**m, basis.eval(sq)) @ coeffs
        rhs = np.zeros(run.space.n_free)
        for q, wq in zip(sq, sw):
            proj = l2_project(lambda x: w(t0 + tau * q, x), run.ops, LIN)
            rhs += wq * q**m * proj
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_local_projection_convergence():
    errs = []
    for nn in (8, 16, 32):
        run = make_run(n=nn, N=nn, T=1.0, k=1, l=1, manufactured="expsine")
        sol = local_projection(run.problem.exact.value, run.partition,
                               run.ops, run.basis)
        errs.append(compute_norms(sol, reference=run.problem.exact, ops=run.ops))
    l2_order = np.log2(errs[1].L2L2 / errs[2].L2L2)
    h1_order = np.log2(errs[1].L2H1 / errs[2].L2H1)
    assert abs(l2_order - 2.0) <= 0.15
    assert abs(h1_order - 1.0) <= 0.15
