"""Norms, energy balance checks, and spectral traces for slab solutions.

Self-norms integrate the stored slab polynomials with rules that are
exact for the integrand degrees, so they carry no quadrature error.
Error norms against a smooth reference use deliberately elevated rules
in both time and space; the sampling for the L-infinity-in-time norm is
a fixed per-slab grid (documented below), so every report is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import SpaceOperators, quadratic_forms
from .companions import IdentityReport, slab_balances, slab_terms
from .forward import DgSolution, forcing_loads
from .linalg import EigenResult, smallest_generalized_eigenvalue
from .problems import ManufacturedSolution, ProblemSpec
from .space import FeSpace
from .timebase import make_time_basis

# Quadrature values per time point in one element chunk of the error-norm
# pass.  A chunk's errors at all 2k+8 + 4k+6 time points of a slab stay in
# cache (0.66 MB on 2d P2 with k = 1); one product per time point over the
# whole mesh streamed the block from memory at every point and made the
# pass about 1.6x slower (certify-2d).
_NORM_CHUNK = 8192


def _time_samples(k: int) -> np.ndarray:
    """Per-slab sample grid for max-in-time norms.

    Equispaced on the reference interval, endpoints included so both
    one-sided traces are hit.  Fixed so reports are comparable across runs.
    """
    return np.linspace(0.0, 1.0, 4 * (k + 1) + 2)


class UnsupportedConfigurationError(RuntimeError):
    """Raised when a check's derivation does not cover the configuration."""


@dataclass
class NormReport:
    """Space-time norms of a slab solution or of its error vs a reference."""

    L2L2: float
    LinfL2: float
    L2H1: float
    L4L4: float
    jump_sum: float
    per_slab: dict = field(default_factory=dict)


@dataclass
class SpectrumTrace:
    """Principal eigenvalue of the linearized operator along a trajectory.

    The Rayleigh quotient is minimized over the Dirichlet-constrained
    space (the trial space of the solver); the continuous statement is
    usually posed without boundary conditions, which can only raise the
    reported minimum.
    """

    times: list[float]
    values: list[float]
    residuals: list[float]
    used_dense: list[bool]

    @property
    def implied_constant(self) -> float:
        """C such that lambda_min(t) >= -C along the trace."""
        return max(0.0, -min(self.values))

    def to_dict(self) -> dict:
        return {"times": self.times, "lambda_min": self.values,
                "implied_constant": self.implied_constant,
                "residuals": self.residuals, "used_dense": self.used_dense}


@dataclass
class RatioReport:
    """Error of the solver relative to the error of a projection."""

    numerator: float
    denominator: float
    ratio: float
    exact_case: bool


# ---------------------------------------------------------------------------
# norms


def _norm_report(sol: DgSolution, per: dict, M) -> NormReport:
    """NormReport from per-slab squared norms plus the jump sum of sol."""
    jump_sum = sum(
        float(j @ (M @ j)) for j in (sol.jump(i) for i in range(sol.partition.n_slabs))
    )
    return NormReport(
        L2L2=float(np.sqrt(sum(per["L2L2"]))),
        LinfL2=float(np.sqrt(max(per["LinfL2"]))),
        L2H1=float(np.sqrt(sum(per["L2H1"]))),
        L4L4=float(sum(per["L4L4"]) ** 0.25),
        jump_sum=float(jump_sum),
        per_slab=per,
    )


def _self_norms(sol: DgSolution, ops: SpaceOperators) -> NormReport:
    basis = sol.basis
    M = ops.mass()
    A = ops.stiffness()
    w = basis.quad_weights
    samples = basis.eval(_time_samples(basis.k))
    per = {key: [] for key in ("L2L2", "LinfL2", "L2H1", "L4L4")}
    for slab, tau in zip(sol.slabs, sol.partition.tau):
        uq = basis.values @ slab.coeffs                   # (nq, n_free)
        sq = quadratic_forms(M, uq)
        per["L2L2"].append(tau * float(sq @ w))
        per["L2H1"].append(tau * float((sq + quadratic_forms(A, uq)) @ w))
        u2 = np.square(ops.eval_free(uq))                 # u^4 as (u^2)^2, not through pow
        per["L4L4"].append(tau * float(ops.integrate(u2 * u2) @ w))
        per["LinfL2"].append(float(quadratic_forms(M, samples @ slab.coeffs).max()))
    return _norm_report(sol, per, M)


def _error_norms(sols: list[DgSolution], exact: ManufacturedSolution,
                 ops_ref: SpaceOperators) -> list[NormReport]:
    """Norms of u - exact(t, x) for every solution u, with elevated quadrature.

    Time integrals use an elevated Gauss rule, space integrals an elevated
    element rule.  Per slab and solution, the k+1 coefficient rows are
    evaluated once, values and gradients, into a block whose last row holds
    the spatial factor s of the reference and its gradient.  The error
    u(t) - a(t) s at every time point of the slab is then one product of
    the rows [chi_0(t), ..., chi_k(t), -a(t)] with the block, taken one
    chunk of elements at a time (_NORM_CHUNK).  s is sampled once per pass
    and held only in that row, so all solutions must have one partition,
    one time degree and one space.  The error is formed before it is
    squared: expanded forms such as ||u||^2 - 2a (u, s) + a^2 ||s||^2
    cancel catastrophically when the error is small.
    """
    first = sols[0]
    for sol in sols[1:]:
        if (sol.space is not first.space or sol.k != first.k
                or not np.array_equal(sol.partition.points, first.partition.points)):
            raise ValueError("error norms of several solutions need one partition, "
                             "one time degree and one space")
    k = first.k
    refined = make_time_basis(k, quad_points=2 * k + 8)
    qp, qw = refined.quad_points, refined.quad_weights
    pts = first.partition.points
    times = np.concatenate([qp, _time_samples(k)])   # quadrature points, then the samples
    chi = first.basis.eval(times)                     # (nt, k+1)
    nt_q, nt = qp.size, times.size
    x = ops_ref.phys_points
    ne, nq, dim = x.shape
    M = ops_ref.mass()  # assembled before the pass's arrays, which would raise its peak

    def block(last):
        """(k+2, ...) array with last as its last row, rows 0..k to be filled."""
        rows = np.empty((k + 2,) + last.shape)
        rows[k + 1] = last
        return rows

    # One block per pass for values and one for gradients, rows 0..k refilled
    # for every slab and solution; each sample is taken before its block
    # exists, so that their temporaries do not coexist.
    grads = block(exact.grad_s(x))
    values = block(exact.s(x))
    grad_weights = np.repeat(ops_ref.quad_weights, dim)   # |grad e|^2 over its components
    chunk = max(1, _NORM_CHUNK // (nq * dim))              # elements per chunk
    work = np.empty(max(nt, nt_q * dim) * chunk * nq)

    def integrate(fields, e0, e1, weights):
        """Integrals of per-row fields over the elements e0..e1-1."""
        return (fields.reshape(len(fields), e1 - e0, -1) @ weights) @ ops_ref.dets[e0:e1]

    per = [{key: [] for key in ("L2L2", "LinfL2", "L2H1", "L4L4")} for _ in sols]
    for n in range(1, first.partition.n_slabs + 1):
        t0 = pts[n - 1]
        tau = pts[n] - pts[n - 1]
        at_times = np.hstack([chi, -exact.a(t0 + tau * times)[:, None]])   # (nt, k+2)
        for sol, p in zip(sols, per):
            coeffs = sol.coeffs(n)
            ops_ref.eval_free(coeffs, out=values[:k + 1])
            ops_ref.eval_grad_free(coeffs, out=grads[:k + 1])
            e2, e4, grad_e2 = np.zeros(nt), np.zeros(nt_q), np.zeros(nt_q)  # per time point
            for e0 in range(0, ne, chunk):
                e1 = min(e0 + chunk, ne)
                err = work[:nt * (e1 - e0) * nq].reshape(nt, -1)
                np.matmul(at_times, values[:, e0:e1].reshape(k + 2, -1), out=err)
                np.multiply(err, err, out=err)
                e2 += integrate(err, e0, e1, ops_ref.quad_weights)
                err = err[:nt_q]
                np.multiply(err, err, out=err)
                e4 += integrate(err, e0, e1, ops_ref.quad_weights)
                grad_err = work[:nt_q * (e1 - e0) * nq * dim].reshape(nt_q, -1)
                np.matmul(at_times[:nt_q], grads[:, e0:e1].reshape(k + 2, -1), out=grad_err)
                np.multiply(grad_err, grad_err, out=grad_err)
                grad_e2 += integrate(grad_err, e0, e1, grad_weights)
            p["L2L2"].append(float(tau * (qw @ e2[:nt_q])))
            p["L2H1"].append(float(tau * (qw @ (e2[:nt_q] + grad_e2))))
            p["L4L4"].append(float(tau * (qw @ e4)))
            p["LinfL2"].append(float(e2[nt_q:].max()))
    return [_norm_report(sol, p, M) for sol, p in zip(sols, per)]


def _elevated_ops(space: FeSpace) -> SpaceOperators:
    """Operators with the elevated element rule of the error norms."""
    return SpaceOperators(space, exact_degree=4 * space.degree + 6)


def compute_norms(sol: DgSolution, reference: ManufacturedSolution | None = None,
                  ops: SpaceOperators | None = None) -> NormReport:
    """Space-time norms of the solution, or of its error against a reference.

    Without a reference the stored polynomials are integrated exactly
    (time degree up to 4k, space degree up to 4l).  With a reference the
    rules are elevated: 2k+8 Gauss points per slab in time and an element
    rule of degree 4l+6 in space.  The max-in-time L2 norm samples each
    slab at 4(k+1)+2 equispaced reference points including both one-sided
    traces.  The H1 norm includes the L2 part.
    """
    if reference is None:
        return _self_norms(sol, ops or SpaceOperators(sol.space))
    return _error_norms([sol], reference, _elevated_ops(sol.space))[0]


# ---------------------------------------------------------------------------
# energy balance


def _energy(rows: np.ndarray, ops: SpaceOperators, A, inv_eps2: float) -> np.ndarray:
    """E(v) = 1/2 ||grad v||^2 + (1/(4 eps^2)) int (v^2 - 1)^2 for every row v."""
    vals = ops.eval_free(rows)
    return 0.5 * quadratic_forms(A, rows) + 0.25 * inv_eps2 * ops.integrate((vals**2 - 1.0) ** 2)


def _energy_residual(sol, problem, n, ops) -> tuple[float, float, float, float]:
    """Slab-local energy balance of slab n,

        tau_n E(u(t_n^-)) - int_slab E(u) dt + int_slab (t - t_{n-1}) ||u_t||^2 dt = 0.

    Returns E(u(t_n^-)), int_slab E(u) dt, the weighted dissipation and the
    absolute residual.
    """
    basis = sol.basis
    w = basis.quad_weights
    tau = sol.partition.tau[n - 1]
    U = sol.coeffs(n)
    energies = _energy(np.vstack([sol.right_trace(n), basis.values @ U]), ops,
                       ops.stiffness(), 1.0 / problem.epsilon**2)
    e_right = float(energies[0])
    int_e = tau * float(energies[1:] @ w)
    diss = float(quadratic_forms(ops.mass(), basis.derivatives @ U) @ (w * basis.quad_points))
    return e_right, int_e, diss, abs(tau * e_right - int_e + diss)


def energy_trace(sol: DgSolution, problem: ProblemSpec,
                 ops: SpaceOperators | None = None) -> IdentityReport:
    """Energy balance over the whole run, as the report "energy_balance".

    lhs = sum_n [tau_n E(u(t_n^-)) + weighted dissipation of slab n] and
    rhs = int_0^T E(u) dt; the residual is the worst per-slab absolute
    residual scaled by 1 + tau_n E(u(t_n^-)).  The details hold the
    per-slab lists right_energy, integrated_energy, weighted_dissipation
    and residuals (absolute).

    The balance holds for the computed solution whenever f = 0 and k >= 1
    (the derivation tests the scheme with (t - t_{n-1}) u_t, a polynomial
    of degree k only when k >= 1).  Other configurations raise
    UnsupportedConfigurationError.
    """
    if sol.basis.k < 1:
        raise UnsupportedConfigurationError("energy balance needs k >= 1")
    if problem.exact is not None:
        raise UnsupportedConfigurationError("energy balance needs f = 0")
    ops = ops or SpaceOperators(sol.space)
    rows = [_energy_residual(sol, problem, n, ops)
            for n in range(1, sol.partition.n_slabs + 1)]
    right_energy, integrated_energy, dissipation, residuals = (list(c) for c in zip(*rows))
    pts = sol.partition.points
    scaled = max(res / (1.0 + (pts[i + 1] - pts[i]) * er)
                 for i, (res, er) in enumerate(zip(residuals, right_energy)))
    lhs = sum(t * e for t, e in zip(np.diff(pts), right_energy)) + sum(dissipation)
    return IdentityReport(
        name="energy_balance",
        lhs=lhs,
        rhs=sum(integrated_energy),
        residual=scaled,
        details={"right_energy": right_energy, "integrated_energy": integrated_energy,
                 "weighted_dissipation": dissipation, "residuals": residuals},
    )


def stability_identity_report(
    sol: DgSolution,
    problem: ProblemSpec,
    ops: SpaceOperators | None = None,
) -> IdentityReport:
    """Per-slab balance obtained by testing the scheme with u_h itself:

        1/2 ||u_n^-||^2 - 1/2 ||u_{n-1}^-||^2 + 1/2 ||[u_{n-1}]||^2
          + int_slab [ ||grad u||^2 + (1/eps^2)(||u||_{L4}^4 - ||u||^2) ]
        = int_slab (f, u).

    Exact discrete algebra with the solver's own quadrature: the slab
    balance of companions.slab_balances over slab_terms(u_h, 1, -1, loads
    of f), so that (r u, u) = (1/eps^2)(||u||_{L4}^4 - ||u||^2).  The
    scaled per-slab residuals are reported, worst one as the headline
    number.  A solution without initial data (a backward solution) raises
    a ValueError.
    """
    if sol.initial is None:
        raise ValueError("the forward stability balance needs the initial data u^0; "
                         "this solution has initial None (a backward solution)")
    ops = ops or SpaceOperators(sol.space)
    terms = slab_terms(sol, 1, -1, forcing_loads(problem, ops), sol.basis, problem, ops)
    return slab_balances("slab_stability_balance", sol, *terms, ops)[0]


# ---------------------------------------------------------------------------
# spectrum along a trajectory


def spectrum_along_solution(
    u_source,
    space: FeSpace,
    times,
    epsilon: float,
    ops: SpaceOperators | None = None,
    tol: float = 1e-10,
) -> SpectrumTrace:
    """lambda_min of  a(v, v) + (1/eps^2)((3u(t)^2 - 1) v, v)  over ||v|| = 1.

    u_source is a slab solution (evaluated left-continuously) or a
    callable u(t, x).  Each sample assembles the weighted operator and
    calls the shift-invert eigen solve with a certified lower bound as
    the shift: the quotient is bounded below by (1/eps^2) min(3u^2 - 1)
    pointwise, so that shift can never sit above the target eigenvalue.
    """
    ops = ops or SpaceOperators(space)
    A = ops.stiffness()
    M = ops.mass()
    inv_eps2 = 1.0 / epsilon**2
    values, residuals, dense_flags = [], [], []
    for t in times:
        if isinstance(u_source, DgSolution):
            field_vals = ops.eval_free(u_source.eval_time(float(t)))
        else:
            field_vals = ops.evaluate_function(lambda x: u_source(float(t), x))
        weight = inv_eps2 * (3.0 * field_vals**2 - 1.0)
        At = A + ops.weighted_mass(weight)
        shift = float(weight.min()) - 1.0
        res: EigenResult = smallest_generalized_eigenvalue(At, M, shift=shift, tol=tol)
        values.append(float(res.value))
        residuals.append(float(res.residual))
        dense_flags.append(bool(res.used_dense_fallback))
    return SpectrumTrace(times=[float(t) for t in times], values=values,
                         residuals=residuals, used_dense=dense_flags)


# ---------------------------------------------------------------------------
# best-approximation comparison


def best_approximation_ratio(
    u_h: DgSolution,
    u_p: DgSolution,
    reference: ManufacturedSolution,
    exact_threshold: float = 1e-9,
) -> RatioReport:
    """(L2H1 + LinfL2 error of u_h) over the same for the projection u_p.

    When both errors sit at the solver floor (reference inside the
    discrete space) the quotient is noise; that case is flagged instead
    of reported as a rate.  Both errors come from one pass that samples
    the reference once, so u_h and u_p must share one partition, one time
    degree and one space; otherwise ValueError is raised.
    """
    err_h, err_p = _error_norms([u_h, u_p], reference, _elevated_ops(u_h.space))
    num = err_h.L2H1 + err_h.LinfL2
    den = err_p.L2H1 + err_p.LinfL2
    if num <= exact_threshold and den <= exact_threshold:
        return RatioReport(numerator=num, denominator=den, ratio=float("nan"), exact_case=True)
    return RatioReport(numerator=num, denominator=den, ratio=num / den, exact_case=False)
