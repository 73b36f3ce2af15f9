"""Discrete characteristic polynomials for dG(k) time slabs.

For a cut point that in (0, 1], rho in P_k is the discrete surrogate of the
indicator of [0, that): it satisfies rho(0) = 1 and

    int_0^1 rho q = int_0^that q    for every q in P_{k-1}.

It is built by the explicit formula rho(s) = 1 + s * sum_i c_i phat_i(s)
with phat_i orthonormal in P_{k-1} under the weighted product
(p, q) = int_0^1 eta p(eta) q(eta) d eta and c_i = -int_that^1 phat_i; the
tests cross-check it against a direct solve of the (k+1) x (k+1) moment
system in the monomial basis.

The same formula applied to every monomial gives the discrete
characteristic truncation u_c of a slab polynomial u, with u_c(0) = u(0)
and int_0^1 (u_c, q) = int_0^that (u, q) for q in P_{k-1}; rho is the
truncation of the constant 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timebase import TimeBasis


@dataclass(frozen=True)
class CharacteristicPoly:
    """rho in monomial coefficients (ascending powers), with its cut point."""

    k: int
    t_hat: float
    coeffs: np.ndarray

    def __call__(self, s) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), self.coeffs)

    def moment(self, m: int) -> float:
        """int_0^1 rho(s) s^m ds, exact polynomial integration."""
        j = np.arange(self.coeffs.size)
        return float(np.sum(self.coeffs / (j + m + 1)))


def _check_cut(t_hat: float) -> float:
    t = float(t_hat)
    if not 0.0 < t <= 1.0:
        raise ValueError(f"cut point must lie in (0, 1], got {t}")
    return t


# The monomial Gram and moment matrices are Hilbert-like; at k = 4 their
# conditioning eats five digits in double precision, which is too close to
# the 1e-10 route-agreement requirement.  The systems are at most 5x5, so
# the dense solves run in extended precision instead.


def _solve_ld(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting in long double."""
    A = np.array(A, dtype=np.longdouble)
    x = np.array(b, dtype=np.longdouble)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n = A.shape[0]
    for col in range(n):
        p = col + int(np.argmax(np.abs(A[col:, col])))
        if A[p, col] == 0:
            raise np.linalg.LinAlgError("singular moment system")
        if p != col:
            A[[col, p]] = A[[p, col]]
            x[[col, p]] = x[[p, col]]
        factors = A[col + 1 :, col] / A[col, col]
        A[col + 1 :, col:] -= factors[:, None] * A[col, col:]
        x[col + 1 :] -= factors[:, None] * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - A[col, col + 1 :] @ x[col + 1 :]) / A[col, col]
    return x[:, 0] if squeeze else x


def _weighted_orthonormal_basis(k: int) -> np.ndarray:
    """Monomial coefficients (rows, long double) of an orthonormal basis of
    P_{k-1} (k >= 1) under (p, q) = int_0^1 eta p q d eta, via Cholesky of
    the Gram."""
    i = np.arange(k)
    gram = 1.0 / np.asarray(i[:, None] + i[None, :] + 2, dtype=np.longdouble)
    L = np.zeros_like(gram)
    for a in range(k):
        L[a, a] = np.sqrt(gram[a, a] - np.sum(L[a, :a] ** 2))
        for b in range(a + 1, k):
            L[b, a] = (gram[b, a] - np.sum(L[b, :a] * L[a, :a])) / L[a, a]
    # rows of inv(L) give orthonormal combinations of the monomials
    return _solve_ld(L, np.eye(k))


def _truncation(k: int, t_hat: float) -> np.ndarray:
    """Monomial matrix (long double, (k+1) x (k+1)) of the truncation map.

    Column j is the truncation of s^j: v_c = v(0) + s * sum_i c_i phat_i
    with c_i = int_0^that v phat_i - v(0) int_0^1 phat_i, so that
    int_0^1 v_c q = int_0^that v q for q in P_{k-1}.  Column 0 is rho.
    """
    trunc = np.zeros((k + 1, k + 1), dtype=np.longdouble)
    trunc[0, 0] = 1.0
    if k == 0:
        return trunc
    P = _weighted_orthonormal_basis(k)  # (k, k) rows = phat_i in monomials
    q = np.arange(1, k + 1)
    t = np.longdouble(t_hat)
    # data[j, m] = int_0^that s^j s^m ds - delta_j0 int_0^1 s^m ds
    data = np.array([t ** (j + q) / (j + q) for j in range(k + 1)])
    data[0] = -(1 - t**q) / q
    trunc[1:] = ((P @ data.T).T @ P).T
    return trunc


def discrete_characteristic(k: int, t_hat: float) -> CharacteristicPoly:
    """Construct rho for degree k and cut point that in (0, 1].

    rho satisfies rho(0) = 1 and the k moment conditions to rounding;
    t_hat = 1 gives rho identically 1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    t = _check_cut(t_hat)
    return CharacteristicPoly(k=k, t_hat=t, coeffs=_truncation(k, t)[:, 0].astype(float))


def characteristic_transfer_matrix(basis: TimeBasis, t_hat: float) -> np.ndarray:
    """Nodal matrix T of the characteristic map: coeffs_out = T @ coeffs_in.

    T = V trunc V^{-1} with V the Vandermonde matrix of the time nodes and
    trunc the monomial matrix of the map, whose column 0 is rho.
    """
    V = np.vander(basis.nodes, basis.k + 1, increasing=True)  # V[i, p] = node_i^p
    mono = np.linalg.solve(V, np.eye(basis.k + 1))              # column j: chi_j
    trunc = _truncation(basis.k, _check_cut(t_hat))
    return (V.astype(np.longdouble) @ trunc @ mono.astype(np.longdouble)).astype(float)


def sup_norm_scan(k: int, n_cuts: int = 101, n_samples: int = 2001) -> dict:
    """Scan sup_s |rho_that(s)| over a uniform grid of cut points.

    Returns a table of (t_hat, sup) pairs over n_cuts uniform cut points in
    (0, 1] and the overall constant C_k = max over the scan.  The sup for
    each cut is taken over n_samples uniform sample points of [0, 1]
    including both endpoints.
    """
    cuts = np.linspace(0.0, 1.0, n_cuts + 1)[1:]  # exclude 0, include 1
    s = np.linspace(0.0, 1.0, n_samples)
    rows = []
    worst = 0.0
    for t in cuts:
        rho = discrete_characteristic(k, float(t))
        sup = float(np.max(np.abs(rho(s))))
        rows.append((float(t), sup))
        worst = max(worst, sup)
    return {"k": k, "n_cuts": n_cuts, "n_samples": n_samples, "table": rows, "constant": worst}
