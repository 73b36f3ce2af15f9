"""Slab-marching dG(k) solver for the Allen-Cahn equation.

On each slab (t_{n-1}, t_n] mapped to [0, 1], the unknown
u(that) = sum_j chi_j(that) U_j with free-dof vectors U_j satisfies

    sum_j G_ij M U_j + tau_n sum_j Theta_ij A U_j
        + (tau_n/eps^2) int_0^1 chi_i (u^3 - u, phi) dthat
    = chi_i(0) M u_prev + tau_n int_0^1 chi_i (f, phi) dthat,

where u_prev is the incoming trace from the previous slab (the projected
initial data for n = 1).  One fixed spatial space serves every slab.  The
nonlinear system is solved by damped simplified Newton with the Jacobian

    J = kron(G, M) + tau kron(Theta, A)
        + (tau/eps^2) sum_q w_q kron(chi(t_q) chi(t_q)^T, W(3 u_q^2 - 1)),

with W the weighted mass matrix.  One sparse LU is reused across Newton
steps and carried from slab to slab; it is re-assembled and re-factored at
the current iterate when a step with it cuts the residual by less than a
factor 10 or its line search stalls.  Within 1e4 times the target (the
landing) every step is an exact Newton step: J is assembled at the current
iterate and solved by defect correction with the carried LU, and factored
only when that LU is stale for J or has already landed a step.  So the
steps that reach the target are full Newton steps, and one LU lands about
two slabs (Shamanskii's method with a capped refresh: an LU that landed
more steps would age).  The initial guess is the constant-in-time
extension of the incoming trace.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .assembly import SpaceOperators
from .linalg import LinearSolveConfig, factorize
from .mesh import build_interval_mesh, build_square_mesh
from .problems import ProblemSpec
from .space import FeSpace, build_space
from .timebase import TimeBasis, TimePartition, make_time_basis


@dataclass(frozen=True)
class NewtonConfig:
    """Damped Newton parameters for the slab systems.

    Convergence is declared when the euclidean residual norm drops below
    abs_tol + rel_tol * (initial residual norm).  Backtracking halves the
    step until the residual decreases, at most max_halvings times.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iterations: int = 30
    max_halvings: int = 8

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0 or (self.abs_tol == 0 and self.rel_tol == 0):
            raise ValueError("Newton tolerances must be nonnegative and not both zero")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class NewtonError(RuntimeError):
    """Newton failed to converge; .history lists the residual norms seen."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


def l2_project(f, ops: SpaceOperators, lin_cfg: LinearSolveConfig | None = None) -> np.ndarray:
    """L2 projection of f onto the free dofs: solve M x = (f, phi).

    f may be a spatial callable or an (n_elements, n_quad) value field.
    """
    return ops.mass_solver(lin_cfg)(ops.load(f))


def time_moments(basis: TimeBasis, tau: float, loads: np.ndarray) -> np.ndarray:
    """tau int_0^1 chi_i (load) dthat by the basis rule, (k+1, n_free).

    loads holds load vectors at the time quadrature points, (nq_t, n_free);
    the rule is applied as one matrix product, (chi_i(t_q) w_q) @ loads.
    """
    return tau * ((basis.values.T * basis.quad_weights) @ loads)


def forcing_loads(problem: ProblemSpec, ops: SpaceOperators):
    """The loads (f(t), phi) as a function loads(times) -> (n_times, n_free);
    None when f = 0 (no manufactured solution).

    For u = a(t) s(x), f = (a' - a/eps^2) s - a Laplace(s) + (a^3/eps^2) s^3,
    so the three spatial loads (s, phi), (Laplace(s), phi) and (s^3, phi)
    are assembled once and loads(times) scales them per time.
    """
    exact = problem.exact
    if exact is None:
        return None
    s = ops.evaluate_function(exact.s)
    spatial = ops.load(np.stack([s, ops.evaluate_function(exact.lap_s), s**3]))  # (3, n_free)
    inv_eps2 = 1.0 / problem.epsilon**2

    def loads(times) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        a = exact.a(t)
        return np.column_stack([exact.da(t) - inv_eps2 * a, -a, inv_eps2 * a**3]) @ spatial

    return loads


@dataclass
class SlabSolution:
    """Solution polynomial on one slab, nodal-in-time coefficients."""

    coeffs: np.ndarray         # (k+1, n_free)


@dataclass
class DgSolution:
    """Space-time dG function: one polynomial in time per slab of a partition.

    Serves the forward solution, the projections and both backward
    problems.  initial is u^0 = P_h u_0 on the free dofs, None for the
    backward problems (whose terminal datum is zero).
    """

    partition: TimePartition
    basis: TimeBasis
    space: FeSpace
    initial: np.ndarray | None
    slabs: list[SlabSolution] = field(default_factory=list)

    @property
    def k(self) -> int:
        return self.basis.k

    def coeffs(self, n: int) -> np.ndarray:
        """Coefficients of slab n (1-based); ValueError for n outside 1..N."""
        if not 1 <= n <= len(self.slabs):
            raise ValueError(f"slab index {n} is outside 1..{len(self.slabs)}")
        return self.slabs[n - 1].coeffs

    def eval_slab(self, n: int, that_points) -> np.ndarray:
        """Values u(that) on slab n at reference points, (n_points, n_free)."""
        return self.basis.eval(that_points) @ self.coeffs(n)

    def right_trace(self, n: int) -> np.ndarray:
        """u(t_n^-); n = 0 returns the initial data, a ValueError when there is
        none (backward problems)."""
        if n == 0:
            if self.initial is None:
                raise ValueError("a backward solution has no trace at t_0^-")
            return self.initial
        return self.basis.right_values @ self.coeffs(n)

    def left_plus(self, n: int) -> np.ndarray:
        """u(t_{n-1}^+), the left trace of slab n; n = N+1 returns the terminal zero."""
        if n == self.partition.n_slabs + 1:
            return np.zeros(self.space.n_free)
        return self.basis.left_values @ self.coeffs(n)

    def jump(self, i: int) -> np.ndarray:
        """[u^i] = u(t_i^+) - u(t_i^-) for i = 0 .. N-1."""
        return self.left_plus(i + 1) - self.right_trace(i)

    def eval_time(self, t: float) -> np.ndarray:
        """Left-continuous evaluation at physical time t in [t_0, T]; ValueError
        for any other t, NaN included."""
        pts = self.partition.points
        if not pts[0] <= t <= pts[-1]:
            raise ValueError(f"time {t} is outside the partition [{pts[0]}, {pts[-1]}]")
        if t == pts[0]:
            return self.right_trace(0).copy()
        n = int(np.searchsorted(pts, t, side="left"))  # slab with t in (t_{n-1}, t_n]
        that = (t - pts[n - 1]) / (pts[n] - pts[n - 1])
        return self.eval_slab(n, np.array([that]))[0]


class _SlabSystem:
    """Residual and Jacobian of one slab in flattened time-major layout."""

    def __init__(self, ops, basis, tau, epsilon, prev, floads):
        self.ops = ops
        self.basis = basis
        self.tau = tau
        self.inv_eps2 = 1.0 / epsilon**2
        self.M = ops.mass()
        self.A = ops.stiffness()
        self.n_free = ops.space.n_free
        self.prev_term = np.outer(basis.left_values, self.M @ prev)  # (k+1, nf)
        if floads is None:
            self.force_term = np.zeros((basis.k + 1, self.n_free))
        else:
            self.force_term = time_moments(basis, tau, floads)
        self._fields_of = self._fields = None

    def quad_fields(self, U: np.ndarray) -> np.ndarray:
        """u at all time and space quadrature points, (nq_t, ne, nq); the
        fields of the last U are kept for the Jacobian at the same iterate,
        so an iterate must not be modified in place."""
        if U is not self._fields_of:
            self._fields_of, self._fields = U, self.ops.eval_free(self.basis.values @ U)
        return self._fields

    def residual(self, U: np.ndarray) -> np.ndarray:
        vals = self.quad_fields(U)
        # a product, not a power: numpy raises to the third power through libm pow
        nl = self.ops.load(vals * vals * vals - vals)          # (nq_t, n_free)
        out = self.basis.G @ (self.M @ U.T).T + self.tau * (self.basis.Theta @ (self.A @ U.T).T)
        out += time_moments(self.basis, self.tau * self.inv_eps2, nl)
        return out - self.prev_term - self.force_term

    def jacobian(self, U: np.ndarray):
        reaction = self.inv_eps2 * (3.0 * self.quad_fields(U) ** 2 - 1.0)
        return self.ops.slab_operator(self.basis, self.basis.G, self.tau, reaction)


# The refresh rule of the module docstring: a step with a reused
# factorization must cut the residual by _CONTRACTION, and within
# _FULL_NEWTON_ZONE times the target every step is a full Newton step.
_CONTRACTION = 0.1
_FULL_NEWTON_ZONE = 1e4


def solve_slab(
    system: _SlabSystem,
    initial_guess: np.ndarray,
    newton_cfg: NewtonConfig,
    lin_cfg: LinearSolveConfig,
    context: str = "slab",
    factorization: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int, Callable[[np.ndarray], np.ndarray] | None]:
    """Damped simplified Newton iteration on one slab system.

    factorization is a factorize() solve to start from (the one the
    previous slab ended with) or None; the refresh rule of the module
    docstring replaces it.  A factorization that solved a landing step by
    defect correction carries the attribute landed = True into the next
    slab.  Returns the coefficient array, the step count and the
    factorization last used; raises NewtonError with the residual history
    if the tolerance is not reached or the line search stalls on an exact
    Newton step.
    """
    U = initial_guess.copy()
    r = system.residual(U)
    norm0 = float(np.linalg.norm(r))
    target = newton_cfg.abs_tol + newton_cfg.rel_tol * norm0
    history = [norm0]
    if norm0 <= target:
        return U, 0, factorization
    solve, it = factorization, 0
    while it < newton_cfg.max_iterations:
        norm_prev = history[-1]
        exact = solve is None or norm_prev <= _FULL_NEWTON_ZONE * target
        delta = None
        if exact:
            J = system.jacobian(U)
            if solve is not None and not getattr(solve, "landed", False):
                delta = solve(-r.ravel(), J)  # None when the LU is stale for J
                if delta is not None:
                    solve.landed = True
            if delta is None:
                solve = factorize(J, lin_cfg)
        if delta is None:
            delta = solve(-r.ravel())
        delta = delta.reshape(U.shape)
        step = 1.0
        for _ in range(newton_cfg.max_halvings + 1):
            trial = U + step * delta
            r_new = system.residual(trial)
            norm_new = float(np.linalg.norm(r_new))
            if norm_new < norm_prev or norm_new <= target:
                break
            step *= 0.5
        else:
            if exact:
                raise NewtonError(
                    f"{context}: line search stalled after {newton_cfg.max_halvings} halvings "
                    f"at iteration {it + 1} (residual {norm_prev:.3e}, target {target:.3e})",
                    history,
                )
            solve = None  # retry from the same iterate with a fresh factorization
            continue
        it += 1
        U = trial
        r = r_new
        history.append(norm_new)
        if norm_new <= target:
            return U, it, solve
        if not exact and norm_new > _CONTRACTION * norm_prev:
            solve = None
    raise NewtonError(
        f"{context}: no convergence in {newton_cfg.max_iterations} iterations "
        f"(residual {history[-1]:.3e}, target {target:.3e})",
        history,
    )


def solve_forward(
    problem: ProblemSpec,
    ops: SpaceOperators,
    partition: TimePartition,
    basis: TimeBasis,
    newton_cfg: NewtonConfig | None = None,
    lin_cfg: LinearSolveConfig | None = None,
) -> DgSolution:
    """March the dG(k) scheme over all slabs.

    The initial trace is the L2 projection of u_0; each slab starts Newton
    from the constant-in-time extension of its incoming trace.  Zero data
    (u_0 = 0, f = 0) short-circuits to the exact zero solution slab by slab
    because the initial Newton residual vanishes identically.
    """
    newton_cfg = newton_cfg or NewtonConfig()
    lin_cfg = lin_cfg or LinearSolveConfig()
    if problem.dimension != ops.space.mesh.dimension:
        raise ValueError("problem and space dimensions differ")

    u_prev = l2_project(problem.u0, ops, lin_cfg)
    sol = DgSolution(partition=partition, basis=basis, space=ops.space, initial=u_prev)

    loads = forcing_loads(problem, ops)
    pts = partition.points
    solve = None  # one factorization carried from slab to slab
    for n in range(1, partition.n_slabs + 1):
        t0, t1 = pts[n - 1], pts[n]
        tau = t1 - t0
        floads = None if loads is None else loads(t0 + tau * basis.quad_points)
        system = _SlabSystem(ops, basis, tau, problem.epsilon, u_prev, floads)
        guess = np.tile(u_prev, (basis.k + 1, 1))
        U, _, solve = solve_slab(system, guess, newton_cfg, lin_cfg,
                                 context=f"forward solve failed on slab {n}",
                                 factorization=solve)
        sol.slabs.append(SlabSolution(U))
        u_prev = basis.right_values @ U
    return sol


# ---------------------------------------------------------------------------
# checkpoints


def _mesh_descriptor(space: FeSpace) -> dict:
    mesh = space.mesh
    if mesh.dimension == 1:
        return {"dimension": 1, "n": mesh.n_elements}
    n_side = int(round(np.sqrt(mesh.n_elements / 2)))
    return {"dimension": 2, "n_per_side": n_side}


def problem_fingerprint(problem: ProblemSpec, space: FeSpace, partition: TimePartition, basis: TimeBasis) -> str:
    """Stable hash identifying problem + discretization for checkpoint guards."""
    ident = {
        "problem": problem.name,
        "epsilon": problem.epsilon,
        "T": partition.T,
        "mesh": _mesh_descriptor(space),
        "degree_l": space.degree,
        "k": basis.k,
        "N_slabs": partition.n_slabs,
    }
    blob = json.dumps(ident, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_checkpoint(sol: DgSolution, path: str, problem: ProblemSpec | None = None) -> dict:
    """Write a manifest sufficient to reload, the initial data and the
    coefficients of all slabs as one (N, k+1, n_free) array.

    Floats serialize via repr (shortest round-trip), so loading restores
    bit-identical coefficients.  A solution without initial data (a
    backward problem) raises a ValueError and writes no file.
    """
    if sol.initial is None:
        raise ValueError("save_checkpoint needs 'initial' data; a backward "
                         "solution has initial None")
    manifest = {
        "mesh": _mesh_descriptor(sol.space),
        "degree_l": sol.space.degree,
        "k": sol.basis.k,
        "N_slabs": sol.partition.n_slabs,
        "time_quad_points": sol.basis.n_quad,
        "partition": sol.partition.points.tolist(),
        "n_free": sol.space.n_free,
    }
    if problem is not None:
        manifest["problem"] = problem.name
        manifest["epsilon"] = problem.epsilon
        manifest["problem_hash"] = problem_fingerprint(problem, sol.space, sol.partition, sol.basis)
    doc = {
        "manifest": manifest,
        "initial": sol.initial.tolist(),
        "coeffs": [s.coeffs.tolist() for s in sol.slabs],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # dumps takes the C encoder; dump streams through Python
    return manifest


def _checkpoint_array(record: dict, key: str, where: str) -> np.ndarray:
    """Field key of a checkpoint record as a float array; a missing field,
    entries that do not form a numeric array and non-finite entries (null
    loads as NaN) raise a ValueError naming the record (where) and the field."""
    try:
        values = np.asarray(record[key], dtype=float)
    except KeyError:
        raise ValueError(f"{where}: missing field {key!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: field {key!r} is not a numeric array ({exc})") from exc
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{where}: field {key!r} holds non-finite values")
    return values


def _checkpoint_int(record: dict, key: str, where: str, low: int,
                    high: int | None = None) -> int:
    """Entry key of a checkpoint record as an int in low..high (no upper
    bound when high is None); a missing entry, any other type (bool, float,
    text) or a value out of range raises a ValueError naming the entry."""
    if key not in record:
        raise ValueError(f"{where} is missing {key!r}")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {key!r} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else " or ".join(map(str, range(low, high + 1)))
        raise ValueError(f"{where}: {key!r} must be {bound}, got {value}")
    return value


# the manifest entries load_checkpoint rebuilds the discretization from
_MANIFEST_KEYS = ("mesh", "degree_l", "k", "N_slabs", "time_quad_points", "partition", "n_free")
_MESH_SIZE_KEYS = {1: "n", 2: "n_per_side"}


def load_checkpoint(path: str) -> tuple[DgSolution, dict]:
    """Rebuild a DgSolution (and its manifest) from a checkpoint file.

    Every fault of the manifest, the initial data or the (N, k+1, n_free)
    coefficient array raises a ValueError naming the field.  Files of the
    earlier per-slab format have no 'coeffs' field and are rejected.
    """
    with open(path) as fh:
        doc = json.load(fh)
    man = doc.get("manifest") if isinstance(doc, dict) else None
    if not isinstance(man, dict):
        raise ValueError("checkpoint: missing field 'manifest' (or it is not an object)")
    missing = [key for key in _MANIFEST_KEYS if key not in man]
    if missing:
        raise ValueError(f"checkpoint manifest is missing {', '.join(map(repr, missing))}")
    where = "checkpoint manifest"
    mesh_desc = man["mesh"]
    if not isinstance(mesh_desc, dict):
        raise ValueError(f"{where}: 'mesh' must be an object, got {mesh_desc!r}")
    dimension = _checkpoint_int(mesh_desc, "dimension", f"{where} mesh", 1, 2)
    size = _checkpoint_int(mesh_desc, _MESH_SIZE_KEYS[dimension], f"{where} mesh", 1)
    mesh = build_interval_mesh(size) if dimension == 1 else build_square_mesh(size)
    space = build_space(mesh, _checkpoint_int(man, "degree_l", where, 1, 2))
    n_free = _checkpoint_int(man, "n_free", where, 0)
    if space.n_free != n_free:
        raise ValueError(f"checkpoint dof count {n_free} does not match rebuilt space {space.n_free}")
    # the recorded rule, exact or not: the solution was computed with it
    basis = make_time_basis(_checkpoint_int(man, "k", where, 0),
                            _checkpoint_int(man, "time_quad_points", where, 1),
                            allow_inexact=True)
    partition = TimePartition(_checkpoint_array(man, "partition", where))
    n_slabs = _checkpoint_int(man, "N_slabs", where, 1)
    if partition.n_slabs != n_slabs:
        raise ValueError(f"checkpoint partition has {partition.n_slabs} slabs, "
                         f"but its manifest says N_slabs = {n_slabs}")
    shape = (n_slabs, basis.k + 1, space.n_free)
    initial = _checkpoint_array(doc, "initial", "checkpoint")
    if initial.shape != shape[2:]:
        raise ValueError(f"checkpoint initial data has shape {initial.shape}, "
                         f"expected {shape[2:]}")
    coeffs = _checkpoint_array(doc, "coeffs", "checkpoint")
    if coeffs.shape != shape:
        raise ValueError(f"checkpoint coeffs have shape {coeffs.shape}, expected {shape}")
    slabs = [SlabSolution(c) for c in coeffs]
    return DgSolution(partition=partition, basis=basis, space=space, initial=initial,
                      slabs=slabs), man
