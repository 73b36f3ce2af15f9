"""Sparse linear algebra: linear solves and the eigen diagnostic.

Storage and the direct kernels are scipy; this module pins down the
contracts the rest of the package relies on (one sparse LU factorization
whose every solve enforces a relative residual, one deterministic
shift-invert Lanczos solve for the smallest generalized eigenvalue).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
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


# Minimum degree on A^T + A cuts the LU fill of the 2d P2 slab system with
# 1922 unknowns from 178,890 to 139,942 and its factorization time by about a
# fifth.  Below about a thousand unknowns it saves little or no fill (none
# on 1d patterns), and on the 126-unknown 1d slab systems of a Newton march
# its factorizations ran about 9% and its solves about 26% slower than with
# COLAMD.
_MIN_DEGREE_SIZE = 1000


def factorize(A, config: LinearSolveConfig | None = None):
    """Factor A by sparse LU once; return a solve callable (b, K=None) -> x.

    Systems of at least 1000 unknowns order their columns by minimum
    degree on the pattern of A^T + A, which suits the structurally
    symmetric systems assembled here (mass, stiffness and the kron-patterned
    slab operators); smaller ones keep SuperLU's default COLAMD.  A float
    CSC matrix (the slab operators) is factored as it is; any other input
    is first converted to one.

    solve(b) solves A x = b and enforces the residual contract for its own
    right-hand side: b = 0 returns the exact zero vector, and a non-finite
    result or a residual above the tolerance raises LinearSolveError.  A
    singular factorization raises here; there is no fallback.

    solve(b, K) solves a nearby system K x = b by defect correction with
    the factorization of A, x <- x + A^-1 (b - K x) from x = 0, sweeping
    while each sweep at least halves the residual, so down to round-off.
    It returns the last x if ||b - K x|| <= rel_tolerance * ||b||, and
    None otherwise: the factorization is stale for K, and the caller
    factors K instead.
    """
    cfg = config or LinearSolveConfig()
    if not (sp.issparse(A) and A.format == "csc" and A.dtype == float):
        A = sp.csc_array(A, dtype=float)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A" if A.shape[0] >= _MIN_DEGREE_SIZE
                       else "COLAMD")
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse LU factorization failed: {exc}") from exc

    def solve(b: np.ndarray, K=None) -> np.ndarray | None:
        b = np.asarray(b, dtype=float)
        norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return np.zeros_like(b)
        if K is not None:
            x, r, rel = np.zeros_like(b), b, 1.0
            while rel > 0.0:  # an exact x ends the sweeps
                x_next = x + lu.solve(r)
                r_next = b - K @ x_next
                rel_next = float(np.linalg.norm(r_next)) / norm_b
                if not rel_next <= 0.5 * rel:  # NaN from a non-finite sweep included
                    break
                x, r, rel = x_next, r_next, rel_next
            return x if rel <= cfg.rel_tolerance else None
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


# ---------------------------------------------------------------------------
# smallest generalized eigenvalue


@dataclass
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    used_dense_fallback: bool  # always False: there is one eigen path
    shift: float


def smallest_generalized_eigenvalue(A, M, shift: float, tol: float = 1e-10) -> EigenResult:
    """Smallest eigenvalue of A v = lambda M v (A symmetric, M SPD).

    One shift-invert Lanczos solve (ARPACK through eigsh): A - shift*M is
    factored once by symmetric sparse LU and the eigenvalue nearest the
    shift is found.  The shift must lie strictly below the smallest
    eigenvalue, so that the nearest one is the smallest; the pivot signs
    of the factorization check this.  For reaction-shifted stiffness forms
    the assembled potential minimum certifies such a shift.  tol is
    ARPACK's relative accuracy, iterations counts the solves with the
    factorization and residual is ||A v - lambda M v||.

    A singular factorization, a shift not below the smallest eigenvalue,
    non-convergence or a non-finite result raises LinearSolveError; there
    is no fallback.  Returns the Rayleigh quotient of the M-normalized
    vector, so value == v.T A v / v.T M v to round-off by construction.
    """
    A = sp.csr_array(A)
    M = sp.csr_array(M)
    n = A.shape[0]
    try:
        lu = spla.splu(sp.csc_array(A - shift * M), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise LinearSolveError(f"shifted factorization failed at shift {shift:g}: {exc}") from exc
    # With diagonal pivots this is P^T (A - shift*M) P = L D L^T, so by
    # Sylvester's law of inertia the non-positive pivots count the
    # eigenvalues at or below the shift.
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise LinearSolveError(f"shifted factorization at shift {shift:g} pivoted off the diagonal")
    below = int(np.count_nonzero(lu.U.diagonal() <= 0))
    if below:
        raise LinearSolveError(f"shift {shift:g} is not below the smallest eigenvalue: "
                               f"{below} eigenvalue(s) lie at or below it")
    solves = 0

    def op_inv(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    x = np.random.default_rng(0).standard_normal(n)  # fixed seed: deterministic output
    if n > 1:  # ARPACK needs n > 1; a single unknown is its own eigenvector
        try:
            x = spla.eigsh(A, k=1, M=M, sigma=shift, v0=x, tol=tol,
                           OPinv=spla.LinearOperator((n, n), matvec=op_inv, dtype=float))[1][:, 0]
        except spla.ArpackNoConvergence as exc:
            raise LinearSolveError(f"shift-invert Lanczos did not converge for n={n}") from exc
    x = x / np.sqrt(float(x @ (M @ x)))
    lam = float(x @ (A @ x))
    res = float(np.linalg.norm(A @ x - lam * (M @ x)))
    if not np.isfinite(res):
        raise LinearSolveError(f"shift-invert Lanczos produced non-finite values for n={n}")
    return EigenResult(lam, x, solves, res, False, float(shift))
