"""Lagrange finite element spaces of degree 1 and 2 with Dirichlet handling.

Degrees of freedom are nodal: vertices for P1, vertices plus edge
midpoints for P2 (in 1d the edges are the cells).  Homogeneous Dirichlet
conditions are imposed by symmetric elimination: operators and solution
vectors live on the free dofs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh


# ---------------------------------------------------------------------------
# quadrature


def gauss_legendre_01(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], exact for degree 2*n_points - 1."""
    if n_points < 1:
        raise ValueError("need at least one quadrature point")
    x, w = np.polynomial.legendre.leggauss(n_points)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi10(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n^(1,0)(x) and its derivative by the three-term recurrence
    (m+1)(2m-1) P_m = ((4m^2-1) x + 1) P_{m-1} - (m-1)(2m+1) P_{m-2}."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    for m in range(1, n + 1):
        b, c, scale = 4 * m * m - 1, (m - 1) * (2 * m + 1), (m + 1) * (2 * m - 1)
        a = b * x + 1.0
        p, p_prev, d, d_prev = ((a * p - c * p_prev) / scale, p,
                                (a * d + b * p - c * d_prev) / scale, d)
    return p, d


def gauss_jacobi10_01(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - t) on [0, 1], exact for degree 2*n_points - 1.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    P_n^(1,0) on [-1, 1], refined by one Newton step on the recurrence; the
    weights are 4 / ((1 - x^2) P_n'(x)^2), times 1/4 for the map to [0, 1].
    """
    if n_points < 1:
        raise ValueError("need at least one quadrature point")
    j, m = np.arange(n_points), np.arange(1, n_points)
    off = np.sqrt(m * (m + 1.0)) / (2 * m + 1)
    jacobi = np.diag(-1.0 / ((2 * j + 1) * (2 * j + 3))) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)
    p, d = _jacobi10(n_points, x)
    x = x - p / d
    _, d = _jacobi10(n_points, x)
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * d * d)


def interval_rule(exact_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (n, 1) and weights integrating polynomials of exact_degree on [0, 1]."""
    m = (exact_degree + 2) // 2
    x, w = gauss_legendre_01(max(m, 1))
    return x.reshape(-1, 1), w


def triangle_rule(exact_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical-product rule on the reference triangle, exact to exact_degree.

    Duffy transform xi = s*(1 - t), eta = t maps the unit square to the
    triangle {xi, eta >= 0, xi + eta <= 1}; the (1 - t) Jacobian is absorbed
    into a Gauss-Jacobi factor, so an m x m product is exact for total
    degree 2m - 1.
    """
    m = max((exact_degree + 2) // 2, 1)
    s, ws = gauss_legendre_01(m)
    t, wt = gauss_jacobi10_01(m)
    xi = np.outer(s, 1.0 - t).ravel()
    eta = np.tile(t, m)
    pts = np.column_stack([xi, eta])
    wgt = np.outer(ws, wt).ravel()
    return pts, wgt


# ---------------------------------------------------------------------------
# reference elements


class ReferenceElement:
    """Nodal basis on the reference interval [0,1] or unit triangle, in the
    barycentric coordinates lam = (1 - sum(x), x): P1 is lam; P2 is
    lam_i (2 lam_i - 1) at the vertices, then 4 lam_i lam_j at the midpoints
    of the local edges (i, j)."""

    # local edges as vertex pairs, by dimension, in P2 node order
    _EDGES = {1: ((0, 1),), 2: ((0, 1), (1, 2), (2, 0))}

    def __init__(self, dimension: int, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        if dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dimension}")
        self.dimension = dimension
        self.degree = degree
        self.edges = self._EDGES[dimension]
        self._i, self._j = np.array(self.edges).T
        self._dlam = np.vstack([-np.ones(dimension), np.eye(dimension)])  # (dim+1, dim)
        vertices = np.vstack([np.zeros(dimension), np.eye(dimension)])
        if degree == 1:
            self.nodes = vertices
        else:
            self.nodes = np.vstack([vertices, 0.5 * (vertices[self._i] + vertices[self._j])])

    @property
    def n_dofs(self) -> int:
        return self.nodes.shape[0]

    def _barycentric(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.column_stack([1.0 - p.sum(axis=1), p])

    def values(self, points: np.ndarray) -> np.ndarray:
        """Basis values, shape (n_points, n_dofs)."""
        lam = self._barycentric(points)
        if self.degree == 1:
            return lam
        i, j = self._i, self._j
        return np.hstack([lam * (2.0 * lam - 1.0), 4.0 * lam[:, i] * lam[:, j]])

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """Reference gradients, shape (n_points, n_dofs, dimension)."""
        lam = self._barycentric(points)
        dlam = self._dlam
        if self.degree == 1:
            return np.repeat(dlam[None], lam.shape[0], axis=0)
        i, j = self._i, self._j
        vertex = (4.0 * lam - 1.0)[:, :, None] * dlam
        edge = 4.0 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])
        return np.concatenate([vertex, edge], axis=1)


# ---------------------------------------------------------------------------
# dof handler


@dataclass(frozen=True)
class FeSpace:
    """Global Lagrange space tied to a mesh.

    element_dofs[e, a] is the global dof of local node a on element e; dof
    coordinates follow the nodal layout (vertices first, then midpoints).
    free_dofs excludes the Dirichlet boundary; full_to_free maps global dof
    indices to positions in the free vector, -1 for constrained dofs.
    """

    mesh: Mesh
    degree: int
    reference: ReferenceElement
    dof_coords: np.ndarray
    element_dofs: np.ndarray
    dirichlet_dofs: np.ndarray
    free_dofs: np.ndarray
    full_to_free: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.dof_coords.shape[0]

    @property
    def n_free(self) -> int:
        return self.free_dofs.shape[0]

    def scatter(self, u_free: np.ndarray) -> np.ndarray:
        """Embed a free-dof vector into the full dof vector (zeros on the boundary)."""
        u_free = np.asarray(u_free)
        full = np.zeros(u_free.shape[:-1] + (self.n_dofs,), dtype=u_free.dtype)
        full[..., self.free_dofs] = u_free
        return full

    def restrict(self, u_full: np.ndarray) -> np.ndarray:
        return np.asarray(u_full)[..., self.free_dofs]

    def interpolate(self, f) -> np.ndarray:
        """Nodal interpolation onto the free dofs; boundary values are dropped."""
        vals = np.asarray(f(self.dof_coords), dtype=float)
        return vals[self.free_dofs]


def build_space(mesh: Mesh, degree: int) -> FeSpace:
    """Construct the degree-1 or degree-2 Lagrange space on a mesh."""
    ref = ReferenceElement(mesh.dimension, degree)
    nv = mesh.n_vertices

    if degree == 1:
        dof_coords = mesh.vertices.copy()
        element_dofs = mesh.elements.copy()
        dirichlet = mesh.boundary_vertices.copy()
    else:
        pairs = np.sort(mesh.elements[:, ref.edges], axis=-1).reshape(-1, 2)
        _, first, inverse, count = np.unique(
            pairs, axis=0, return_index=True, return_inverse=True, return_counts=True)
        # edges are numbered after the vertices in order of first appearance
        order = np.argsort(first)
        number = np.argsort(order)
        edges = pairs[first[order]]
        dof_coords = np.vstack([mesh.vertices, mesh.vertices[edges].mean(axis=1)])
        element_dofs = np.hstack([mesh.elements,
                                  nv + number[inverse.ravel()].reshape(mesh.n_elements, -1)])
        # an edge lies on the boundary iff it is a facet (2d) seen by one
        # element; interval edges are the cells themselves
        on_boundary = (count[order] == 1) & (mesh.dimension == 2)
        dirichlet = np.concatenate([mesh.boundary_vertices, nv + np.flatnonzero(on_boundary)])

    n_dofs = dof_coords.shape[0]
    mask = np.ones(n_dofs, dtype=bool)
    mask[dirichlet] = False
    free = np.flatnonzero(mask).astype(np.int64)
    full_to_free = np.full(n_dofs, -1, dtype=np.int64)
    full_to_free[free] = np.arange(free.size)

    return FeSpace(
        mesh=mesh,
        degree=degree,
        reference=ref,
        dof_coords=dof_coords,
        element_dofs=element_dofs,
        dirichlet_dofs=np.sort(dirichlet),
        free_dofs=free,
        full_to_free=full_to_free,
    )
