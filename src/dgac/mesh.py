"""Structured meshes: uniform intervals and the criss-cross unit square."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh with explicit vertex and connectivity arrays.

    Attributes
    ----------
    dimension : int
        Ambient dimension, 1 or 2.
    vertices : ndarray, shape (n_vertices, dimension)
    elements : ndarray, shape (n_elements, dimension + 1)
        Vertex indices per element; triangles are counterclockwise.
    boundary_vertices : ndarray
        Sorted indices of vertices on the domain boundary.
    mesh_size : float
        Maximum element diameter.
    """

    dimension: int
    vertices: np.ndarray
    elements: np.ndarray
    boundary_vertices: np.ndarray
    mesh_size: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


def build_interval_mesh(n_cells: int, a: float = 0.0, b: float = 1.0) -> Mesh:
    """Uniform mesh of [a, b] with n_cells elements.

    Vertex i sits at a + i*(b-a)/n_cells, so refining by an integer factor
    keeps every existing vertex in place.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    verts = np.linspace(a, b, n_cells + 1).reshape(-1, 1)
    elems = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    return Mesh(
        dimension=1,
        vertices=verts,
        elements=elems.astype(np.int64),
        boundary_vertices=np.array([0, n_cells], dtype=np.int64),
        mesh_size=(b - a) / n_cells,
    )


def build_square_mesh(n_per_side: int) -> Mesh:
    """Unit square split into n_per_side^2 cells of two triangles each.

    Every cell is cut along its lower-left to upper-right diagonal; the mesh
    size is the diagonal length sqrt(2)/n_per_side.  Vertex (i, j) has index
    j*(n_per_side+1) + i, and refining by 2 keeps existing vertices fixed.
    """
    n = n_per_side
    if n < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n}")
    coords_1d = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords_1d, coords_1d, indexing="xy")
    verts = np.column_stack([xx.ravel(), yy.ravel()])

    elems = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            elems.append((v00, v10, v11))
            elems.append((v00, v11, v01))
    elems = np.asarray(elems, dtype=np.int64)

    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    on_bdry = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
    bdry = np.flatnonzero(on_bdry.ravel()).astype(np.int64)

    # all triangles are congruent; diameter is the hypotenuse
    return Mesh(
        dimension=2,
        vertices=verts,
        elements=elems,
        boundary_vertices=bdry,
        mesh_size=float(np.sqrt(2.0) / n),
    )

