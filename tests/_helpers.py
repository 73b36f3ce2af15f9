"""Shared builders and independent reference computations for the tests.

Everything here is deliberately redundant with the package internals: the
matrices, load vectors and reference solvers are assembled from scratch
(analytic P1 matrices, a monomial-in-time basis, dense Newton with LU)
so that agreement between the library and these oracles actually means
something.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

from dgac import (
    SpaceOperators,
    TimePartition,
    build_interval_mesh,
    build_square_mesh,
    build_space,
    make_problem,
    make_time_basis,
)
from dgac.characteristic import _solve_ld
from dgac.forward import DgSolution, SlabSolution


@dataclass
class Run:
    """A fully built discretization for one test problem."""

    problem: object
    mesh: object
    space: object
    ops: SpaceOperators
    partition: TimePartition
    basis: object


def make_run(dimension=1, epsilon=0.5, T=1.0, n=16, N=8, k=1, l=1,
             manufactured=None, initial_profile=None, quad_points=None,
             space_order=None, allow_inexact=False):
    """Build problem, mesh, space, operators, partition and time basis.

    Exactly one of manufactured / initial_profile is used; if neither is
    given the manufactured solution for the dimension is picked.
    """
    if manufactured is None and initial_profile is None:
        manufactured = "expsine" if dimension == 1 else "expsine2d"
    problem = make_problem(dimension, epsilon, T, manufactured=manufactured,
                           initial_profile=initial_profile)
    mesh = build_interval_mesh(n) if dimension == 1 else build_square_mesh(n)
    space = build_space(mesh, l)
    if space_order is None:
        ops = SpaceOperators(space)
    else:
        ops = SpaceOperators(space, exact_degree=space_order)
    partition = TimePartition.uniform(T, N)
    basis = make_time_basis(k, quad_points=quad_points, allow_inexact=allow_inexact)
    return Run(problem, mesh, space, ops, partition, basis)


# ---------------------------------------------------------------------------
# hand-written reference-element formulas, one per (dimension, degree)


def reference_basis_oracle(dimension: int, degree: int, points: np.ndarray):
    """Nodal P1/P2 values (n_points, n_dofs) and gradients (n_points, n_dofs,
    dimension) on [0, 1] or the unit triangle, written out case by case in
    the node order vertices, then edge midpoints (0,1), (1,2), (2,0)."""
    p = np.atleast_2d(points)
    if dimension == 1:
        x, one = p[:, 0], np.ones(p.shape[0])
        if degree == 1:
            vals, grads = [1.0 - x, x], [-one, one]
        else:
            vals = [(1.0 - x) * (1.0 - 2.0 * x), x * (2.0 * x - 1.0), 4.0 * x * (1.0 - x)]
            grads = [4.0 * x - 3.0, 4.0 * x - 1.0, 4.0 - 8.0 * x]
        return np.column_stack(vals), np.stack(grads, axis=1)[:, :, None]
    lam = np.column_stack([1.0 - p[:, 0] - p[:, 1], p[:, 0], p[:, 1]])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if degree == 1:
        return lam, np.broadcast_to(dlam, (p.shape[0], 3, 2))
    vals = [lam[:, i] * (2.0 * lam[:, i] - 1.0) for i in range(3)]
    grads = [(4.0 * lam[:, i] - 1.0)[:, None] * dlam[i] for i in range(3)]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        vals.append(4.0 * lam[:, i] * lam[:, j])
        grads.append(4.0 * (lam[:, i][:, None] * dlam[j] + lam[:, j][:, None] * dlam[i]))
    return np.column_stack(vals), np.stack(grads, axis=1)


# ---------------------------------------------------------------------------
# hand-assembled P1 interval operators (free dofs = interior vertices)


def tridiag_mass(n: int) -> np.ndarray:
    """Exact P1 mass matrix on the interior vertices of a uniform n-cell mesh."""
    h = 1.0 / n
    m = n - 1
    M = np.zeros((m, m))
    for i in range(m):
        M[i, i] = 4.0 * h / 6.0
        if i + 1 < m:
            M[i, i + 1] = M[i + 1, i] = h / 6.0
    return M


def tridiag_stiffness(n: int) -> np.ndarray:
    """Exact P1 stiffness matrix on the interior vertices."""
    h = 1.0 / n
    m = n - 1
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = 2.0 / h
        if i + 1 < m:
            A[i, i + 1] = A[i + 1, i] = -1.0 / h
    return A


def gauss01(m: int):
    """m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _full(u_free: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.asarray(u_free, dtype=float), [0.0]])


def hat_load_1d(g, n: int, pts: int = 3) -> np.ndarray:
    """Load vector (g, phi_i) over interior P1 hats, pts-point Gauss per cell.

    g maps a 1-d array of coordinates to values.
    """
    s, w = gauss01(pts)
    h = 1.0 / n
    b = np.zeros(n + 1)
    for c in range(n):
        gv = g((c + s) * h)
        b[c] += h * np.sum(w * gv * (1.0 - s))
        b[c + 1] += h * np.sum(w * gv * s)
    return b[1:-1]


def cubic_hat_load_1d(u_free: np.ndarray, n: int) -> np.ndarray:
    """(u^3 - u, phi_i) for P1 u; 3-point Gauss per cell is exact here."""
    s, w = gauss01(3)
    h = 1.0 / n
    uf = _full(u_free)
    b = np.zeros(n + 1)
    for c in range(n):
        uv = uf[c] * (1.0 - s) + uf[c + 1] * s
        gv = uv**3 - uv
        b[c] += h * np.sum(w * gv * (1.0 - s))
        b[c + 1] += h * np.sum(w * gv * s)
    return b[1:-1]


def weighted_hat_mass_1d(u_free: np.ndarray, n: int, weight) -> np.ndarray:
    """Mass matrix weighted by weight(u) for P1 u, 3-point Gauss per cell."""
    s, w = gauss01(3)
    h = 1.0 / n
    uf = _full(u_free)
    J = np.zeros((n + 1, n + 1))
    vals = np.stack([1.0 - s, s])
    for c in range(n):
        uv = uf[c] * (1.0 - s) + uf[c + 1] * s
        wt = weight(uv) * w * h
        J[c:c + 2, c:c + 2] += vals @ (wt[:, None] * vals.T)
    return J[1:-1, 1:-1]


def cubic_hat_jacobian_1d(u_free: np.ndarray, n: int) -> np.ndarray:
    """Derivative of cubic_hat_load_1d: mass matrix weighted by 3u^2 - 1."""
    return weighted_hat_mass_1d(u_free, n, lambda uv: 3.0 * uv**2 - 1.0)


def p1_error_norms_1d(u_free: np.ndarray, n: int, v, dv, pts: int = 12):
    """(L2^2, full H1^2, L4^4) of (u_h - v) for P1 u_h against callables v, dv."""
    s, w = gauss01(pts)
    h = 1.0 / n
    uf = _full(u_free)
    l2 = h1 = l4 = 0.0
    for c in range(n):
        x = (c + s) * h
        e = uf[c] * (1.0 - s) + uf[c + 1] * s - v(x)
        de = (uf[c + 1] - uf[c]) / h - dv(x)
        l2 += h * np.sum(w * e**2)
        h1 += h * np.sum(w * (e**2 + de**2))
        l4 += h * np.sum(w * e**4)
    return l2, h1, l4


# ---------------------------------------------------------------------------
# monomial-in-time dense space-time reference solver


def monomial_G(k: int) -> np.ndarray:
    """Jump-augmented time derivative matrix in the basis 1, t, ..., t^k."""
    G = np.ones((k + 1, k + 1))
    for i in range(1, k + 1):
        for j in range(k + 1):
            G[i, j] = 1.0 - i / (i + j)
    return G


def monomial_theta(k: int) -> np.ndarray:
    """Time mass matrix in the monomial basis (a Hilbert matrix)."""
    return np.array([[1.0 / (i + j + 1) for j in range(k + 1)]
                     for i in range(k + 1)])


def monomial_eval(W: np.ndarray, that) -> np.ndarray:
    """Evaluate monomial slab coefficients W (k+1, m) at reference times."""
    that = np.atleast_1d(np.asarray(that, dtype=float))
    P = that[:, None] ** np.arange(W.shape[0])[None, :]
    return P @ W


def manufactured_forcing(exact, eps):
    """Pointwise f = u_t - Laplace(u) + (u^3 - u)/eps^2 of an exact solution."""
    def f(t, x):
        u = exact.value(t, x)
        return exact.dt(t, x) - exact.laplacian(t, x) + (u**3 - u) / eps**2
    return f


def moment_route(k: int, t_hat: float) -> np.ndarray:
    """Monomial coefficients of the cut polynomial rho by a direct solve of
    its (k+1) x (k+1) moment system, the cross-check of the explicit route."""
    # row 0: rho(0) = 1; row m (1..k): int_0^1 rho s^{m-1} = that^m / m
    A = np.zeros((k + 1, k + 1), dtype=np.longdouble)
    rhs = np.zeros(k + 1, dtype=np.longdouble)
    A[0, 0] = 1.0
    rhs[0] = 1.0
    t = np.longdouble(t_hat)
    for m in range(1, k + 1):
        A[m, :] = 1.0 / np.asarray(m + np.arange(k + 1), dtype=np.longdouble)
        rhs[m] = t**m / m
    return _solve_ld(A, rhs).astype(float)


def dense_spacetime_oracle(problem, n: int, N: int, k: int, tol: float = 1e-13):
    """Monolithic space-time reference solve in the monomial time basis.

    All N slabs are solved at once: the coupled nonlinear system over every
    coefficient is assembled densely from the hand-built P1 matrices and
    driven to the given residual norm by damped Newton with LU solves.

    Returns (u0_free, slabs) with slabs[s] the (k+1, n-1) monomial
    coefficient array of slab s.
    """
    m = n - 1
    inv_eps2 = 1.0 / problem.epsilon**2
    M = tridiag_mass(n)
    A = tridiag_stiffness(n)
    G = monomial_G(k)
    Th = monomial_theta(k)
    tau = problem.T / N
    sq, wq = gauss01(2 * k + 2)
    P = sq[:, None] ** np.arange(k + 1)[None, :]          # (nq, k+1)

    u0 = np.linalg.solve(M, hat_load_1d(lambda x: problem.u0(x[:, None]), n))
    floads = np.zeros((N, len(sq), m))
    if problem.exact is not None:
        f = manufactured_forcing(problem.exact, problem.epsilon)
        for s in range(N):
            for q in range(len(sq)):
                tq = (s + sq[q]) * tau
                floads[s, q] = hat_load_1d(
                    lambda x, tq=tq: f(tq, x[:, None]), n)

    nuk = (k + 1) * m

    def residual(X):
        W = X.reshape(N, k + 1, m)
        R = np.zeros_like(W)
        for s in range(N):
            Uq = P @ W[s]
            R[s] = G @ (W[s] @ M) + tau * (Th @ (W[s] @ A))
            for q in range(len(sq)):
                R[s] += tau * inv_eps2 * wq[q] * np.outer(
                    P[q], cubic_hat_load_1d(Uq[q], n))
                R[s] -= tau * wq[q] * np.outer(P[q], floads[s, q])
            u_left = u0 if s == 0 else W[s - 1].sum(axis=0)
            R[s, 0] -= M @ u_left
        return R.ravel()

    def jacobian(X):
        W = X.reshape(N, k + 1, m)
        J = np.zeros((N * nuk, N * nuk))
        for s in range(N):
            Uq = P @ W[s]
            Jb = np.kron(G, M) + tau * np.kron(Th, A)
            for q in range(len(sq)):
                Jb += tau * inv_eps2 * wq[q] * np.kron(
                    np.outer(P[q], P[q]), cubic_hat_jacobian_1d(Uq[q], n))
            J[s * nuk:(s + 1) * nuk, s * nuk:(s + 1) * nuk] = Jb
            if s > 0:
                blk = np.zeros((nuk, nuk))
                for j in range(k + 1):
                    blk[:m, j * m:(j + 1) * m] = -M
                J[s * nuk:(s + 1) * nuk, (s - 1) * nuk:s * nuk] = blk
        return J

    X = np.zeros(N * nuk)
    r = residual(X)
    for _ in range(60):
        nr = np.linalg.norm(r)
        if nr <= tol:
            break
        dX = np.linalg.solve(jacobian(X), -r)
        step = 1.0
        for _ in range(9):
            r_new = residual(X + step * dX)
            if np.linalg.norm(r_new) < nr or np.linalg.norm(r_new) <= tol:
                break
            step *= 0.5
        X = X + step * dX
        r = r_new
    else:
        raise RuntimeError("reference Newton did not converge")
    return u0, list(X.reshape(N, k + 1, m))


def implicit_euler_oracle(problem, n: int, N: int, tol: float = 1e-13):
    """Backward Euler with the same cubic term, dense Newton; needs f = 0.

    Returns [u^0, u^1, ..., u^N] on the interior vertices.
    """
    if problem.exact is not None:
        raise ValueError("this reference integrator only handles f = 0")
    M = tridiag_mass(n)
    A = tridiag_stiffness(n)
    tau = problem.T / N
    inv_eps2 = 1.0 / problem.epsilon**2
    u = np.linalg.solve(M, hat_load_1d(lambda x: problem.u0(x[:, None]), n))
    out = [u]
    K = M + tau * A
    for _ in range(N):
        v = u.copy()
        for _ in range(60):
            R = K @ v + tau * inv_eps2 * cubic_hat_load_1d(v, n) - M @ u
            if np.linalg.norm(R) <= tol:
                break
            J = K + tau * inv_eps2 * cubic_hat_jacobian_1d(v, n)
            v = v - np.linalg.solve(J, R)
        else:
            raise RuntimeError("reference Newton did not converge")
        u = v
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# time basis matrices recomputed with numpy.polynomial


_SQRT6 = np.sqrt(6.0)
RADAU_NODES = {
    0: np.array([1.0]),
    1: np.array([1.0 / 3.0, 1.0]),
    2: np.array([(4.0 - _SQRT6) / 10.0, (4.0 + _SQRT6) / 10.0, 1.0]),
}


def lagrange_time_matrices(k: int):
    """(nodes, G, Theta, left, right) from exact polynomial algebra.

    The Lagrange basis on the right-sided Radau nodes is built with
    numpy.polynomial and integrated exactly, without touching the package.
    """
    from numpy.polynomial import polynomial as npp

    nodes = RADAU_NODES[k]
    polys = []
    for i in range(k + 1):
        c = np.array([1.0])
        for j in range(k + 1):
            if j != i:
                c = npp.polymul(c, np.array([-nodes[j], 1.0])) / (nodes[i] - nodes[j])
        polys.append(c)
    left = np.array([npp.polyval(0.0, c) for c in polys])
    right = np.array([npp.polyval(1.0, c) for c in polys])
    G = np.empty((k + 1, k + 1))
    Th = np.empty_like(G)
    for i in range(k + 1):
        di = npp.polyder(polys[i])
        for j in range(k + 1):
            G[i, j] = right[i] * right[j] - npp.polyval(
                1.0, npp.polyint(npp.polymul(polys[j], di)))
            Th[i, j] = npp.polyval(1.0, npp.polyint(npp.polymul(polys[i], polys[j])))
    return nodes, G, Th, left, right


# ---------------------------------------------------------------------------
# misc


def random_dg_solution(run: Run, rng: np.random.Generator, scale: float = 1.0) -> DgSolution:
    """A DgSolution with random initial data and random coefficients."""
    nf = run.space.n_free
    k = run.basis.k
    initial = scale * rng.standard_normal(nf)
    sol = DgSolution(partition=run.partition, basis=run.basis,
                     space=run.space, initial=initial)
    for _ in range(run.partition.n_slabs):
        sol.slabs.append(SlabSolution(scale * rng.standard_normal((k + 1, nf))))
    return sol


def run_cli(args):
    """Call the command line entry point in process; (exit_code, stdout+stderr)."""
    from dgac.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = int(exc.code or 0)
    return code, buf.getvalue()
