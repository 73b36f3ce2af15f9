"""Lagrange finite element spaces of degree 1 and 2 with Dirichlet handling.

Degrees of freedom are nodal: vertices for P1, vertices plus element
midpoints (1d) or edge midpoints (2d) for P2.  Homogeneous Dirichlet
conditions are imposed by symmetric elimination: operators and solution
vectors live on the free dofs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh, element_edges


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
    """Nodal basis on the reference interval [0,1] or unit triangle."""

    def __init__(self, dimension: int, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {degree}")
        if dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {dimension}")
        self.dimension = dimension
        self.degree = degree
        if dimension == 1:
            self.nodes = {
                1: np.array([[0.0], [1.0]]),
                2: np.array([[0.0], [1.0], [0.5]]),
            }[degree]
        else:
            self.nodes = {
                1: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                2: np.array(
                    [
                        [0.0, 0.0],
                        [1.0, 0.0],
                        [0.0, 1.0],
                        [0.5, 0.0],  # edge (0,1)
                        [0.5, 0.5],  # edge (1,2)
                        [0.0, 0.5],  # edge (2,0)
                    ]
                ),
            }[degree]

    @property
    def n_dofs(self) -> int:
        return self.nodes.shape[0]

    def values(self, points: np.ndarray) -> np.ndarray:
        """Basis values, shape (n_points, n_dofs)."""
        p = np.atleast_2d(points)
        if self.dimension == 1:
            x = p[:, 0]
            if self.degree == 1:
                cols = [1.0 - x, x]
            else:
                cols = [(1.0 - x) * (1.0 - 2.0 * x), x * (2.0 * x - 1.0), 4.0 * x * (1.0 - x)]
        else:
            lam = np.column_stack([1.0 - p[:, 0] - p[:, 1], p[:, 0], p[:, 1]])
            if self.degree == 1:
                cols = [lam[:, 0], lam[:, 1], lam[:, 2]]
            else:
                cols = [lam[:, i] * (2.0 * lam[:, i] - 1.0) for i in range(3)]
                for i, j in ((0, 1), (1, 2), (2, 0)):
                    cols.append(4.0 * lam[:, i] * lam[:, j])
        return np.column_stack(cols)

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """Reference gradients, shape (n_points, n_dofs, dimension)."""
        p = np.atleast_2d(points)
        npts = p.shape[0]
        out = np.empty((npts, self.n_dofs, self.dimension))
        if self.dimension == 1:
            x = p[:, 0]
            if self.degree == 1:
                out[:, 0, 0] = -1.0
                out[:, 1, 0] = 1.0
            else:
                out[:, 0, 0] = 4.0 * x - 3.0
                out[:, 1, 0] = 4.0 * x - 1.0
                out[:, 2, 0] = 4.0 - 8.0 * x
            return out
        lam = np.column_stack([1.0 - p[:, 0] - p[:, 1], p[:, 0], p[:, 1]])
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        if self.degree == 1:
            out[:] = dlam[None, :, :]
            return out
        for i in range(3):
            out[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
        for a, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            out[:, 3 + a, :] = 4.0 * (lam[:, i][:, None] * dlam[j] + lam[:, j][:, None] * dlam[i])
        return out


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
    elif mesh.dimension == 1:
        # vertices then one midpoint per element
        mids = 0.5 * (mesh.vertices[mesh.elements[:, 0]] + mesh.vertices[mesh.elements[:, 1]])
        dof_coords = np.vstack([mesh.vertices, mids])
        element_dofs = np.column_stack(
            [mesh.elements, nv + np.arange(mesh.n_elements, dtype=np.int64)]
        )
        dirichlet = mesh.boundary_vertices.copy()
    else:
        edge_ids, edge_count = element_edges(mesh)
        n_edges = len(edge_ids)
        edge_mid = np.empty((n_edges, 2))
        for (va, vb), eid in edge_ids.items():
            edge_mid[eid] = 0.5 * (mesh.vertices[va] + mesh.vertices[vb])
        dof_coords = np.vstack([mesh.vertices, edge_mid])
        element_dofs = np.empty((mesh.n_elements, 6), dtype=np.int64)
        element_dofs[:, :3] = mesh.elements
        for e, tri in enumerate(mesh.elements):
            for a, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
                key = (int(min(tri[i], tri[j])), int(max(tri[i], tri[j])))
                element_dofs[e, 3 + a] = nv + edge_ids[key]
        # an edge dof is constrained iff its edge is a boundary facet
        bdry_edges = np.flatnonzero(edge_count == 1)
        dirichlet = np.sort(
            np.concatenate([mesh.boundary_vertices, nv + bdry_edges])
        ).astype(np.int64)

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
