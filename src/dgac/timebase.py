"""dG(k) time discretization: partitions, reference basis, coupling matrices.

Each slab (t_{n-1}, t_n] is mapped to the reference interval [0, 1].  The
polynomial basis is nodal Lagrange at right Gauss-Radau points, so the right
endpoint value u(t_n^-) is a plain coefficient.  Quadrature is Gauss-Legendre
with enough points to integrate degree 4k + 2 exactly; the slab identities
(stability, duality, energy) are exact at that order and constructing a
weaker rule is refused unless explicitly allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import gauss_jacobi10_01, gauss_legendre_01


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing time nodes 0 = t_0 < t_1 < ... < t_N = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("partition needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, T: float, n_slabs: int) -> "TimePartition":
        if not T > 0 or n_slabs < 1:
            raise ValueError("need T > 0 and n_slabs >= 1")
        return cls(np.linspace(0.0, T, n_slabs + 1))

    @property
    def n_slabs(self) -> int:
        return self.points.size - 1

    @property
    def T(self) -> float:
        return float(self.points[-1])

    @property
    def tau(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def tau_max(self) -> float:
        return float(np.max(self.tau))

    @property
    def tau_min(self) -> float:
        return float(np.min(self.tau))

    @property
    def theta(self) -> float:
        """Quasi-uniformity ratio min(tau) / max(tau), in (0, 1]."""
        return self.tau_min / self.tau_max


def radau_right_nodes(k: int) -> np.ndarray:
    """k+1 right Gauss-Radau points on [0, 1], last node exactly 1.

    Interior nodes are the roots of the Jacobi polynomial P_k^{(1,0)}
    mapped from [-1, 1], the nodes of the k-point (1 - t)-weighted Gauss
    rule; for k = 0 the single node is 1.
    """
    if k < 0:
        raise ValueError("polynomial degree k must be >= 0")
    if k == 0:
        return np.array([1.0])
    interior, _ = gauss_jacobi10_01(k)
    return np.concatenate([interior, [1.0]])


def _lagrange_values(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """chi_j(points) for the Lagrange basis at the given nodes, (npts, k+1)."""
    pts = np.asarray(points, dtype=float)
    m = nodes.size
    out = np.ones((pts.size, m))
    for j in range(m):
        for i in range(m):
            if i != j:
                out[:, j] *= (pts - nodes[i]) / (nodes[j] - nodes[i])
    return out


def _lagrange_derivatives(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """chi_j'(points), (npts, k+1)."""
    pts = np.asarray(points, dtype=float)
    m = nodes.size
    out = np.zeros((pts.size, m))
    for j in range(m):
        denom = np.prod([nodes[j] - nodes[i] for i in range(m) if i != j]) if m > 1 else 1.0
        for ell in range(m):
            if ell == j:
                continue
            term = np.ones(pts.size)
            for i in range(m):
                if i != j and i != ell:
                    term *= pts - nodes[i]
            out[:, j] += term / denom
    return out


@dataclass(frozen=True)
class TimeBasis:
    """Nodal Lagrange basis of degree k on [0, 1], its quadrature rule and
    the reference-interval coupling matrices of the slab system,

        G[i, j] = chi_i(1) chi_j(1) - int_0^1 chi_j chi_i'   (time derivative
        plus outflow trace after slab-local integration by parts),
        Theta[i, j] = int_0^1 chi_i chi_j,

    both integrated by the basis' own rule.  left_values weights the
    incoming trace.  For k = 0, G = Theta = [[1]].
    """

    k: int
    nodes: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray
    values: np.ndarray        # chi_j at quadrature points, (nq, k+1)
    derivatives: np.ndarray   # chi_j' at quadrature points, (nq, k+1)
    left_values: np.ndarray   # chi_j(0)
    right_values: np.ndarray  # chi_j(1); equals e_k for Radau nodes
    G: np.ndarray
    Theta: np.ndarray

    def eval(self, points) -> np.ndarray:
        return _lagrange_values(self.nodes, np.atleast_1d(points))

    def eval_deriv(self, points) -> np.ndarray:
        return _lagrange_derivatives(self.nodes, np.atleast_1d(points))

    @property
    def n_quad(self) -> int:
        return self.quad_points.size


def required_quad_points(k: int) -> int:
    """Number of Gauss points integrating degree 4k + 2 exactly."""
    return (4 * k + 3 + 1) // 2  # ceil((4k+3)/2) = 2k+2


def make_time_basis(k: int, quad_points: int | None = None, allow_inexact: bool = False) -> TimeBasis:
    """Build the dG(k) reference basis.

    quad_points below the exactness requirement (degree 4k + 2, i.e.
    2k + 2 Gauss points) is an error unless allow_inexact is set; that
    escape hatch exists only for negative controls.
    """
    if k < 0:
        raise ValueError("polynomial degree k must be >= 0")
    need = required_quad_points(k)
    nq = need if quad_points is None else int(quad_points)
    if nq < 1:
        raise ValueError("need at least one quadrature point")
    if nq < need and not allow_inexact:
        raise ValueError(
            f"time quadrature with {nq} points is not exact to degree {4 * k + 2}; "
            f"need {need} points (pass allow_inexact=True only for negative controls)"
        )
    nodes = radau_right_nodes(k)
    q, w = gauss_legendre_01(nq)
    val, dval = _lagrange_values(nodes, q), _lagrange_derivatives(nodes, q)
    left, right = _lagrange_values(nodes, np.array([0.0, 1.0]))
    return TimeBasis(k=k, nodes=nodes, quad_points=q, quad_weights=w, values=val,
                     derivatives=dval, left_values=left, right_values=right,
                     G=np.outer(right, right) - np.einsum("q,qj,qi->ij", w, val, dval),
                     Theta=np.einsum("q,qi,qj->ij", w, val, val))
