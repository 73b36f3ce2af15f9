"""Sparse linear algebra: linear solves and the eigen diagnostic.

Storage and the direct kernels are scipy; this module pins down the
contracts the rest of the package relies on (one sparse LU factorization
whose every solve enforces a relative residual, deterministic shifted
inverse power iteration for the smallest generalized eigenvalue).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla


@dataclass(frozen=True)
class LinearSolveConfig:
    """How to solve A x = b.

    Every system is factored by sparse LU and the result must satisfy
    ||b - A x|| <= rel_tolerance * ||b||; failure raises LinearSolveError
    carrying the achieved residual.
    """

    rel_tolerance: float = 1e-11

    def __post_init__(self):
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")


class LinearSolveError(RuntimeError):
    """Linear solve failed; .achieved_residual holds the relative residual reached."""

    def __init__(self, message: str, achieved_residual: float | None = None):
        super().__init__(message)
        self.achieved_residual = achieved_residual


def factorize(A, config: LinearSolveConfig | None = None):
    """Factor A by sparse LU once; return a solve callable b -> x.

    Every solve enforces the residual contract for its own right-hand
    side: b = 0 returns the exact zero vector, and a non-finite result or
    a residual above the tolerance raises LinearSolveError.  A singular
    factorization raises here; there is no fallback.
    """
    cfg = config or LinearSolveConfig()
    A = sp.csc_array(A, dtype=float)
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse LU factorization failed: {exc}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return np.zeros_like(b)
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("sparse LU solve produced non-finite values")
        rel = float(np.linalg.norm(b - A @ x)) / norm_b
        if not rel <= cfg.rel_tolerance:
            raise LinearSolveError(
                f"sparse LU did not reach relative residual {cfg.rel_tolerance:g} "
                f"(achieved {rel:.3e})",
                achieved_residual=rel,
            )
        return x

    return solve


def solve_linear(A, b: np.ndarray, config: LinearSolveConfig | None = None) -> np.ndarray:
    """Solve A x = b by sparse LU under the residual contract of factorize."""
    return factorize(A, config)(b)


# ---------------------------------------------------------------------------
# smallest generalized eigenvalue


@dataclass
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    used_dense_fallback: bool
    shift: float


_DENSE_FALLBACK_LIMIT = 600


def _estimate_shift(A, M) -> float:
    """Coarse smallest-eigenvalue estimate to seed the inverse iteration.

    A short low-accuracy Lanczos run brackets the smallest eigenvalue; the
    shift is then placed a safe margin below it.  Diagonal quotients are
    only a last resort (they can sit far above the smallest eigenvalue).
    """
    n = A.shape[0]
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        est = float(spla.eigsh(A, k=1, M=M, which="SA", tol=1e-4,
                               maxiter=50 * n, v0=v0,
                               return_eigenvectors=False)[0])
    except Exception:
        est = float(np.min(A.diagonal() / M.diagonal()))
    return est - 0.05 * (1.0 + abs(est))


def _dense_smallest(A, M) -> tuple[float, np.ndarray]:
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    Md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=float)
    vals, vecs = scipy.linalg.eigh(Ad, Md)
    return float(vals[0]), vecs[:, 0]


def smallest_generalized_eigenvalue(
    A,
    M,
    shift: float | None = None,
    tol: float = 1e-10,
    max_iterations: int = 400,
) -> EigenResult:
    """Smallest eigenvalue of A v = lambda M v (A symmetric, M SPD).

    Shifted inverse power iteration: factor A - shift*M once, iterate
    x <- (A - shift*M)^{-1} M x with M-normalization, and track the Rayleigh
    quotient.  The caller should pass a shift strictly below the smallest
    eigenvalue (for reaction-shifted stiffness forms the assembled potential
    minimum certifies one); without it a coarse Lanczos estimate seeds the
    shift.
    A singular factorization perturbs the shift and retries; only if the
    iteration still breaks down and the system is small (< 600 unknowns) is
    a dense eigensolve used as a rescue path, flagged in the result.

    Returns the Rayleigh quotient of the converged vector, so
    value == v.T A v / v.T M v to round-off by construction.
    """
    A = sp.csr_array(A)
    M = sp.csr_array(M)
    n = A.shape[0]
    if shift is None:
        shift = _estimate_shift(A, M)

    rng = np.random.default_rng(0)  # fixed seed: deterministic output
    x = rng.standard_normal(n)

    def m_normalize(v):
        s = float(v @ (M @ v))
        if s <= 0 or not np.isfinite(s):
            raise LinearSolveError("eigen iteration lost M-positivity")
        return v / np.sqrt(s)

    total_iters = 0
    current_shift = float(shift)
    for restart in range(6):
        try:
            solve = spla.factorized(sp.csc_matrix(A - current_shift * M))
            x = m_normalize(x)
            lam = float(x @ (A @ x))
            for it in range(max_iterations):
                total_iters += 1
                y = solve(M @ x)
                if not np.all(np.isfinite(y)):
                    raise RuntimeError("non-finite inverse iteration step")
                x = m_normalize(y)
                lam = float(x @ (A @ x))  # x is M-normalized
                r = A @ x - lam * (M @ x)
                res = float(np.linalg.norm(r))
                bound = tol * float(np.linalg.norm(M @ x)) * (1.0 + abs(lam))
                if res <= bound:
                    return EigenResult(lam, x, total_iters, res, False, current_shift)
                # slow convergence: move the shift closer from below
                if it > 0 and it % 25 == 0:
                    current_shift = lam - 0.01 * (1.0 + abs(lam))
                    solve = spla.factorized(sp.csc_matrix(A - current_shift * M))
            # out of iterations: nudge the shift toward the current estimate
            current_shift = lam - 1e-3 * (1.0 + abs(lam))
        except (RuntimeError, ValueError):
            # singular or broken factorization: perturb the shift and retry
            current_shift -= 10.0 ** (-8 + restart) * (1.0 + abs(current_shift))

    if n < _DENSE_FALLBACK_LIMIT:
        lam, v = _dense_smallest(A, M)
        v = m_normalize(v)
        lam = float(v @ (A @ v))
        res = float(np.linalg.norm(A @ v - lam * (M @ v)))
        return EigenResult(lam, v, total_iters, res, True, current_shift)
    raise LinearSolveError(
        f"inverse iteration failed to converge for n={n} after shift retries"
    )
