"""Backward-in-time companion solves, projections, and identity reports.

The backward problems reuse the forward slab structure with the time
coupling transposed: slabs are visited right to left, each receiving its
terminal data through the right trace, so that the assembled system is
exactly the transpose of the forward one.  Testing the discrete equations
with the computed coefficient vectors then yields algebraic identities
that hold to solver tolerance, independent of mesh or time step:

  * the duality identity  int ||u_h||^2 = (u0, phi0+) + (2/eps^2) int (phi_h, u_h)
    + int (f, phi_h), where phi_h solves the backward problem with frozen
    reaction (u_h^2 + 1)/eps^2 (the cubic contributions cancel pairwise);
  * per-slab backward stability equalities for both the dual problem and
    the linearized problem with reaction (3 u^2 - 1)/eps^2.

The duality identity is evaluated with an independently constructed
quadrature rule of full exactness, never the rule the solver happened to
use.  Any quadrature shortcut taken during the solves therefore shows up
as a nonzero residual instead of cancelling silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import SpaceOperators, quadratic_forms
from .forward import DgSolution, SlabSolution, forcing_loads, l2_project, time_moments
from .linalg import LinearSolveConfig, factorize
from .problems import ManufacturedSolution, ProblemSpec
from .timebase import TimeBasis, TimePartition, make_time_basis


@dataclass
class IdentityReport:
    """One verified identity: name, both sides, scaled residual, extras."""

    name: str
    lhs: float
    rhs: float
    residual: float
    details: dict = field(default_factory=dict)


def slab_terms(u, a, b, rhs, basis: TimeBasis, problem: ProblemSpec, ops: SpaceOperators):
    """(reaction, data) of a frozen-reaction slab problem, callables of (n, t0, tau).

    reaction(n, t0, tau) is (a u^2 + b)/eps^2 at the time quadrature points
    of slab n, (nq_t, ne, nq_x): u is a slab-polynomial solution on the
    same partition (evaluated from its stored coefficients, no
    re-interpolation) or a callable u(t, x).  data(n, t0, tau) gives the
    rows tau int chi_i (rhs, phi) of slab n, (k+1, n_free): rhs is a slab
    polynomial on the same partition (paired through Theta), a function
    loads(times) -> (n_times, n_free) of load vectors integrated by the
    time quadrature, or None for zero data.  The forward scheme tested with
    u_h has (a, b) = (1, -1), the dual problem (1, 1) and the linearized
    problem (3, -1).
    """
    inv_eps2 = 1.0 / problem.epsilon**2
    qp = basis.quad_points

    def reaction(n, t0, tau):
        if isinstance(u, DgSolution):
            vals = ops.eval_free(u.eval_slab(n, qp))
        else:
            vals = ops.time_fields(u, t0 + tau * qp)
        return inv_eps2 * (a * vals**2 + b)

    if rhs is None:
        return reaction, lambda n, t0, tau: None
    if isinstance(rhs, DgSolution):
        M = ops.mass()
        return reaction, lambda n, t0, tau: tau * (basis.Theta @ (M @ rhs.coeffs(n).T).T)
    return reaction, lambda n, t0, tau: time_moments(basis, tau, rhs(t0 + tau * qp))


def _march(
    reaction,
    data,
    partition: TimePartition,
    basis: TimeBasis,
    ops: SpaceOperators,
    lin_cfg: LinearSolveConfig,
    initial: np.ndarray | None = None,
) -> DgSolution:
    """Slab march over a frozen-reaction slab problem, the (reaction, data)
    of slab_terms; a reaction that returns None adds no reaction term.

    With initial None the march is backward: right to left with G^T, the
    trace coming in through chi(1) (zero on the last slab) and going out
    through chi(0).  Otherwise it is forward from initial with G, in
    through chi(0) and out through chi(1).  Slab n solves the slab operator
    with the frozen reaction fields (including the 1/eps^2) at the time
    quadrature points; its right-hand side is the incoming trace plus the
    data rows.  One LU is carried from slab to slab: each slab first solves
    with it (factorize's solve(b, K)) and factors its own operator only
    when that reports stale.  The first slab of the march always factors.
    """
    backward = initial is None
    coupling, into, out = ((basis.G.T, basis.right_values, basis.left_values) if backward
                           else (basis.G, basis.left_values, basis.right_values))
    M = ops.mass()
    pts = partition.points
    N = partition.n_slabs
    slabs = [None] * N
    incoming = np.zeros(ops.space.n_free) if backward else initial
    solve = None  # the factorization carried from slab to slab
    for n in (range(N, 0, -1) if backward else range(1, N + 1)):
        t0, tau = pts[n - 1], pts[n] - pts[n - 1]
        K = ops.slab_operator(basis, coupling, tau, reaction(n, t0, tau))
        rhs = (np.outer(into, M @ incoming) + data(n, t0, tau)).ravel()
        x = None if solve is None else solve(rhs, K)
        if x is None:  # none yet, or stale for this slab's operator
            solve = None  # release the previous factorization first
            solve = factorize(K, lin_cfg)
            x = solve(rhs)
        coeffs = x.reshape(basis.k + 1, -1)
        slabs[n - 1] = SlabSolution(coeffs)
        incoming = out @ coeffs
    return DgSolution(partition=partition, basis=basis, space=ops.space, initial=initial,
                      slabs=slabs)


def solve_backward_dual(
    u_h: DgSolution,
    problem: ProblemSpec,
    ops: SpaceOperators | None = None,
    lin_cfg: LinearSolveConfig | None = None,
) -> DgSolution:
    """Backward dual solve with frozen reaction (u_h^2 + 1)/eps^2 and data u_h.

    Returns phi_h as a DgSolution on the partition of u_h with initial None;
    its left_plus(N + 1) is the terminal zero.

    Slab n solves the transposed system

        sum_j G_ji M P_j + tau_n sum_j Theta_ij A P_j
            + (tau_n/eps^2) sum_j [Theta_ij M + sum_q w_q chi_i chi_j W(u_q^2)] P_j
        = chi_i(1) M p_in + tau_n sum_j Theta_ij M U_j,

    with p_in the left trace of slab n+1 (zero for n = N).  The reaction
    is evaluated at the time quadrature points from the stored slab
    polynomial of u_h, which is what makes the cubic terms of the duality
    identity cancel exactly.
    """
    ops = ops or SpaceOperators(u_h.space)
    lin_cfg = lin_cfg or LinearSolveConfig()
    return _march(*slab_terms(u_h, 1, 1, u_h, u_h.basis, problem, ops), u_h.partition,
                  u_h.basis, ops, lin_cfg)


def solve_backward_psi(
    rhs,
    u_ref,
    problem: ProblemSpec,
    u_shape: DgSolution | None = None,
    ops: SpaceOperators | None = None,
    lin_cfg: LinearSolveConfig | None = None,
) -> DgSolution:
    """Backward linearized solve with reaction (3 u_ref^2 - 1)/eps^2.

    rhs supplies the data term: either a DgSolution on the same partition
    (its L2 pairing enters through Theta) or a callable g(t, x) integrated
    by the time quadrature.  u_ref supplies the frozen coefficient
    (callable or DgSolution); u_shape fixes partition/basis/space when rhs
    is a callable (defaults to rhs itself, or to u_ref when that is a
    DgSolution).

    Returns psi as a DgSolution with initial None; its left_plus(N + 1) is
    the terminal zero.
    """
    shape = u_shape
    if shape is None:
        shape = rhs if isinstance(rhs, DgSolution) else u_ref
    if not isinstance(shape, DgSolution):
        raise ValueError("need a slab-polynomial object to fix the discretization")
    ops = ops or SpaceOperators(shape.space)
    lin_cfg = lin_cfg or LinearSolveConfig()
    data = rhs if isinstance(rhs, DgSolution) else (
        lambda times: ops.load(ops.time_fields(rhs, times)))
    return _march(*slab_terms(u_ref, 3, -1, data, shape.basis, problem, ops),
                  shape.partition, shape.basis, ops, lin_cfg)


# ---------------------------------------------------------------------------
# identity evaluation


def duality_identity_report(
    u_h: DgSolution,
    phi: DgSolution,
    problem: ProblemSpec,
    ops: SpaceOperators | None = None,
) -> IdentityReport:
    """Evaluate int ||u_h||^2 against its dual representation.

    LHS = int_0^T ||u_h||^2; RHS = (u0, phi0+) + (2/eps^2) int (phi, u_h)
    + int (f, phi).  All integrals use an independently constructed exact
    rule, so under-integrated solves fail this check instead of hiding
    behind same-rule cancellations.
    """
    ops = ops or SpaceOperators(u_h.space)
    rule = make_time_basis(u_h.basis.k)  # full exactness, whatever the solver used
    M = ops.mass()
    pts = u_h.partition.points
    loads = forcing_loads(problem, ops)
    lhs = 0.0
    cross = 0.0
    force = 0.0
    for n in range(1, u_h.partition.n_slabs + 1):
        tau = pts[n] - pts[n - 1]
        uq = u_h.eval_slab(n, rule.quad_points)
        pq = phi.eval_slab(n, rule.quad_points)
        mu = (M @ uq.T).T
        lhs += tau * float(np.einsum("q,qa,qa->", rule.quad_weights, mu, uq))
        cross += tau * float(np.einsum("q,qa,qa->", rule.quad_weights, mu, pq))
        if loads is not None:
            fv = loads(pts[n - 1] + tau * rule.quad_points)
            force += tau * float(np.einsum("q,qa,qa->", rule.quad_weights, fv, pq))
    rhs = float(u_h.initial @ (M @ phi.left_plus(1))) + 2.0 / problem.epsilon**2 * cross + force
    residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)
    return IdentityReport(
        name="duality",
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        details={"initial_pairing": float(u_h.initial @ (M @ phi.left_plus(1))),
                 "cross_term": 2.0 / problem.epsilon**2 * cross,
                 "forcing_term": force},
    )


def slab_balances(name: str, sol: DgSolution, reaction, data, ops: SpaceOperators):
    """Per-slab balance of a slab system tested with its own solution v.

    reaction and data are the callables of slab_terms.  The trace direction
    comes from sol: initial None marks a backward solution, whose slab n
    has outgoing trace v(t_{n-1}^+), near trace v(t_n^-) and incoming datum
    v(t_n^+); a forward solution has u(t_n^-), u(t_{n-1}^+) and
    u(t_{n-1}^-).  Per slab

      lhs_n = 1/2 ||v_out||^2 + 1/2 ||v_near - v_in||^2 - 1/2 ||v_in||^2
              + int_slab [ a(v,v) + (r v, v) ]
      rhs_n = int_slab (data, v) = data rows . coefficients of v.

    The balance is the computed system dotted with its own coefficients,
    so it holds to solver tolerance with the solver's quadrature.  Each
    |lhs_n - rhs_n| is scaled by the sum of the magnitudes of the terms,
    not by |lhs_n|, whose terms cancel on a strongly growing backward
    solution.  Returns (report, forms): the IdentityReport name with the
    summed sides, the worst scaled per-slab residual and the
    per_slab_residuals in the details, and forms_n = (a(v_q, v_q),
    ||v_q||^2, (r_q v_q, v_q)), each (nq_t,) over the time quadrature
    points.
    """
    basis = sol.basis
    w = basis.quad_weights
    M = ops.mass()
    A = ops.stiffness()
    pts = sol.partition.points
    backward = sol.initial is None
    lhs_list, rhs_list, res_list, forms = [], [], [], []
    for n in range(1, sol.partition.n_slabs + 1):
        t0, tau = pts[n - 1], pts[n] - pts[n - 1]
        if backward:
            out, near, incoming = sol.left_plus(n), sol.right_trace(n), sol.left_plus(n + 1)
        else:
            out, near, incoming = sol.right_trace(n), sol.left_plus(n), sol.right_trace(n - 1)
        jump = near - incoming
        vq = sol.eval_slab(n, basis.quad_points)
        a, m = quadratic_forms(A, vq), quadratic_forms(M, vq)
        react = ops.integrate(reaction(n, t0, tau) * ops.eval_free(vq) ** 2)
        half_out, half_jump, half_in = (0.5 * float(v @ (M @ v)) for v in (out, jump, incoming))
        lhs = half_out + half_jump - half_in + tau * float((a + react) @ w)
        rows = data(n, t0, tau)
        rhs = 0.0 if rows is None else float(np.vdot(rows, sol.coeffs(n)))
        lhs_list.append(lhs)
        rhs_list.append(rhs)
        scale = (half_out + half_jump + half_in + tau * abs(float(a @ w))
                 + tau * abs(float(react @ w)) + abs(rhs) + 1.0)
        res_list.append(abs(lhs - rhs) / scale)
        forms.append((a, m, react))
    report = IdentityReport(name=name, lhs=float(sum(lhs_list)), rhs=float(sum(rhs_list)),
                            residual=float(max(res_list)),
                            details={"per_slab_residuals": [float(r) for r in res_list]})
    return report, forms


def dual_stability_report(
    u_h: DgSolution,
    phi: DgSolution,
    problem: ProblemSpec,
    ops: SpaceOperators | None = None,
) -> IdentityReport:
    """Per-slab dual balance plus the Young-inequality stability bound.

    The equality (checked per slab, machine accurate) is the dual system
    tested with phi itself.  Absorbing the data pairing by Young's
    inequality gives

      1/2 ||phi(0+)||^2 + 1/2 sum ||[phi]||^2 + int ||grad phi||^2
        + (1/eps^2) int ||u_h phi||^2 + (1/(2 eps^2)) int ||phi||^2
      <= (eps^2/2) int ||u_h||^2,

    whose slack is reported in the details.
    """
    ops = ops or SpaceOperators(u_h.space)
    inv_eps2 = 1.0 / problem.epsilon**2
    basis = u_h.basis
    w = basis.quad_weights
    M = ops.mass()
    report, forms = slab_balances("backward_dual_stability", phi,
                                  *slab_terms(u_h, 1, 1, u_h, basis, problem, ops), ops)

    # Young form from the same slab forms: the boundary terms of the slab
    # balances telescope to 1/2 ||phi(0+)||^2 + 1/2 sum ||[phi]||^2, and the
    # reaction (u_h^2 + 1)/eps^2 carries (1/eps^2) int ||phi||^2 in full.
    taus = u_h.partition.tau
    phi_sq = sum(tau * float(m @ w) for tau, (_, m, _) in zip(taus, forms))
    u_sq = sum(tau * float(quadratic_forms(M, u_h.eval_slab(n, basis.quad_points)) @ w)
               for n, tau in enumerate(taus, start=1))
    young_lhs = report.lhs - 0.5 * inv_eps2 * phi_sq
    young_rhs = 0.5 * problem.epsilon**2 * u_sq
    report.details.update(young_lhs=float(young_lhs), young_rhs=float(young_rhs),
                          young_slack=float(young_rhs - young_lhs))
    return report


def psi_chain_report(
    psi: DgSolution,
    u_ref,
    rhs,
    problem: ProblemSpec,
    ops: SpaceOperators | None = None,
    spectral_floor=None,
) -> IdentityReport:
    """Per-slab balance of the linearized backward solve.

    Same structure as the dual report with reaction (3 u^2 - 1)/eps^2;
    the data pairing uses whatever rhs the solve was given.  When
    spectral_floor is supplied (a callable t -> lambda_min of the
    linearized spatial operator), the details record the slack of

        int [ a(psi,psi) + reaction ] >= int lambda_min(t) ||psi||^2

    on each slab, the discrete counterpart of bounding the operator by
    its principal eigenvalue.
    """
    ops = ops or SpaceOperators(psi.space)
    basis = psi.basis
    data = rhs if isinstance(rhs, DgSolution) else (
        lambda times: ops.load(ops.time_fields(rhs, times)))
    report, forms = slab_balances("linearized_backward_stability", psi,
                                  *slab_terms(u_ref, 3, -1, data, basis, problem, ops), ops)
    if spectral_floor is not None:
        pts = psi.partition.points
        slacks = []
        for n, (a, m, react) in enumerate(forms, start=1):
            tau = pts[n] - pts[n - 1]
            # spectral_floor is a scalar callable of t
            lam = np.array([spectral_floor(t) for t in pts[n - 1] + tau * basis.quad_points])
            slacks.append(tau * float((a + react - lam * m) @ basis.quad_weights))
        report.details["spectral_slack_per_slab"] = slacks
    return report


# ---------------------------------------------------------------------------
# projections


def solve_parabolic_projection(
    exact: ManufacturedSolution,
    ops: SpaceOperators,
    partition: TimePartition,
    basis: TimeBasis,
    lin_cfg: LinearSolveConfig | None = None,
) -> DgSolution:
    """dG solve of the linear heat equation reproducing a smooth function.

    The load is assembled in the integrated-by-parts form
    (u_t, w) + (grad u, grad w) from the analytic time derivative and
    gradient, and the initial value is the L2 projection of u(0).  The
    result is the parabolic projection of the exact function onto the
    space-time discrete space.  For u = a(t) s(x) the load at time t is
    da(t) (s, w) + a(t) (grad s, grad w), so the two spatial loads are
    assembled once.

    The slabs are one forward march without reaction, carrying one LU as
    the backward marches do.  Steps that differ in the last bit, as those
    of a uniform partition of most T do, so share the first slab's
    factorization.
    """
    lin_cfg = lin_cfg or LinearSolveConfig()
    mass_load = ops.load(exact.s)
    grad_load = ops.gradient_load(exact.grad_s)

    def data(n, t0, tau):
        times = t0 + tau * basis.quad_points
        loads = np.outer(exact.da(times), mass_load) + np.outer(exact.a(times), grad_load)
        return time_moments(basis, tau, loads)

    return _march(lambda n, t0, tau: None, data, partition, basis, ops, lin_cfg,
                  initial=l2_project(lambda x: exact.value(0.0, x), ops, lin_cfg))


def local_projection(
    w,
    partition: TimePartition,
    ops: SpaceOperators,
    basis: TimeBasis,
    lin_cfg: LinearSolveConfig | None = None,
) -> DgSolution:
    """Slab-local projection: right-endpoint match plus k time moments.

    On every slab the coefficients C_j satisfy

        sum_j chi_j(1) C_j = P_h w(t_end),
        sum_j [int that^m chi_j] M C_j = int that^m (w(t), phi) dthat,
        m = 0 .. k-1,

    solved as a (k+1) x (k+1) time system for the rows Y_j = M C_j,
    followed by mass solves.  The moment integrals use the basis rule, so
    they are exact for polynomial w and match the verification quadrature.
    The initial value is the L2 projection of w(t_0).
    """
    lin_cfg = lin_cfg or LinearSolveConfig()
    initial = l2_project(lambda x: w(partition.points[0], x), ops, lin_cfg)
    sol = DgSolution(partition=partition, basis=basis, space=ops.space, initial=initial)
    qp = basis.quad_points
    moments = basis.quad_weights * qp ** np.arange(basis.k)[:, None]   # (k, nq_t)
    T = np.vstack([moments @ basis.values, basis.right_values])
    mass_solve = ops.mass_solver(lin_cfg)
    pts = partition.points
    for n in range(1, partition.n_slabs + 1):
        t_start, t_end = pts[n - 1], pts[n]
        # loads at the time quadrature points, then at t_end
        loads = ops.load(ops.time_fields(w, np.append(t_start + (t_end - t_start) * qp, t_end)))
        Y = np.linalg.solve(T, np.vstack([moments @ loads[:-1], loads[-1:]]))
        sol.slabs.append(SlabSolution(np.stack([mass_solve(y) for y in Y])))
    return sol
