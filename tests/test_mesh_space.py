"""Meshes, reference elements and finite element spaces."""

from math import factorial

import numpy as np
import pytest

from dgac import (
    SpaceOperators,
    build_interval_mesh,
    build_space,
    build_square_mesh,
)
from dgac.space import ReferenceElement, gauss_jacobi10_01, triangle_rule

from _helpers import (p1_error_norms_1d, reference_basis_oracle, tridiag_mass,
                      tridiag_stiffness)


# ---------------------------------------------------------------------------
# meshes


def test_interval_mesh_basic():
    mesh = build_interval_mesh(4)
    assert mesh.dimension == 1
    assert mesh.n_vertices == 5
    assert mesh.n_elements == 4
    np.testing.assert_allclose(mesh.vertices[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(mesh.elements,
                                  [[0, 1], [1, 2], [2, 3], [3, 4]])
    assert sorted(mesh.boundary_vertices) == [0, 4]
    assert mesh.mesh_size == pytest.approx(0.25)


def test_interval_mesh_single_cell_and_custom_endpoints():
    tiny = build_interval_mesh(1)
    assert tiny.n_vertices == 2
    assert sorted(tiny.boundary_vertices) == [0, 1]

    mesh = build_interval_mesh(8, -1.0, 1.0)
    assert mesh.n_vertices == 9
    np.testing.assert_allclose(mesh.vertices[:, 0], np.linspace(-1.0, 1.0, 9))
    assert mesh.mesh_size == pytest.approx(0.25)


def test_interval_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        build_interval_mesh(0)
    with pytest.raises(ValueError):
        build_interval_mesh(4, 1.0, 1.0)


def test_square_mesh_counts():
    one = build_square_mesh(1)
    assert (one.n_vertices, one.n_elements) == (4, 2)
    assert sorted(one.boundary_vertices) == [0, 1, 2, 3]

    two = build_square_mesh(2)
    assert (two.n_vertices, two.n_elements) == (9, 8)
    interior = set(range(9)) - set(two.boundary_vertices.tolist())
    assert interior == {4}
    np.testing.assert_allclose(two.vertices[4], [0.5, 0.5])

    four = build_square_mesh(4)
    assert (four.n_vertices, four.n_elements) == (25, 32)
    assert len(four.boundary_vertices) == 16
    assert four.mesh_size == pytest.approx(np.sqrt(2.0) / 4.0)

    with pytest.raises(ValueError):
        build_square_mesh(0)


def test_square_mesh_triangle_areas():
    mesh = build_square_mesh(3)
    v = mesh.vertices
    total = 0.0
    for tri in mesh.elements:
        a, b, c = v[tri]
        ab, ac = b - a, c - a
        area = 0.5 * abs(ab[0] * ac[1] - ab[1] * ac[0])
        assert area == pytest.approx(1.0 / 18.0)
        total += area
    assert total == pytest.approx(1.0)


def test_nested_refinement_shares_vertices():
    coarse = build_interval_mesh(4)
    fine = build_interval_mesh(8)
    assert set(np.round(coarse.vertices[:, 0], 12)).issubset(
        set(np.round(fine.vertices[:, 0], 12)))


# ---------------------------------------------------------------------------
# quadrature


def test_gauss_jacobi_rule_is_exact():
    for n in range(1, 16):
        t, w = gauss_jacobi10_01(n)
        for j in range(2 * n):
            # int_0^1 (1 - t) t^j dt = 1 / ((j + 1)(j + 2))
            assert abs(w @ t**j - 1.0 / ((j + 1) * (j + 2))) <= 1e-14, (n, j)


def test_triangle_rule_is_exact():
    for degree in range(13):
        pts, w = triangle_rule(degree)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                # int_T xi^a eta^b = a! b! / (a + b + 2)!
                want = factorial(a) * factorial(b) / factorial(a + b + 2)
                got = w @ (pts[:, 0] ** a * pts[:, 1] ** b)
                assert abs(got - want) <= 1e-14, (degree, a, b)


# ---------------------------------------------------------------------------
# reference elements


def test_reference_element_rejects_unsupported():
    with pytest.raises(ValueError):
        ReferenceElement(1, 3)
    with pytest.raises(ValueError):
        ReferenceElement(3, 1)


def _reference_points(dim, n, seed):
    rng = np.random.default_rng(seed)
    if dim == 1:
        return rng.random((n, 1))
    # barycentric draw keeps the points inside the reference triangle
    ab = np.sort(rng.random((n, 2)), axis=1)
    return np.stack([ab[:, 0], ab[:, 1] - ab[:, 0]], axis=1)


@pytest.mark.parametrize("dim,deg", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_partition_of_unity(dim, deg):
    ref = ReferenceElement(dim, deg)
    pts = _reference_points(dim, 20, seed=7)
    vals = ref.values(pts)
    grads = ref.gradients(pts)
    np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("dim,deg", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_reference_element_matches_hand_written_formulas(dim, deg):
    ref = ReferenceElement(dim, deg)
    pts = _reference_points(dim, 50, seed=11)
    want_vals, want_grads = reference_basis_oracle(dim, deg, pts)
    np.testing.assert_allclose(ref.values(pts), want_vals, rtol=0, atol=1e-14)
    np.testing.assert_allclose(ref.gradients(pts), want_grads, rtol=0, atol=1e-14)


def test_reference_element_nodal_property():
    for dim, deg in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        ref = ReferenceElement(dim, deg)
        vals = ref.values(ref.nodes)
        np.testing.assert_allclose(vals, np.eye(ref.n_dofs), atol=1e-13)


# ---------------------------------------------------------------------------
# spaces


def test_interval_space_dof_counts():
    mesh = build_interval_mesh(4)
    p1 = build_space(mesh, 1)
    assert (p1.n_dofs, p1.n_free) == (5, 3)
    assert sorted(p1.dirichlet_dofs.tolist()) == [0, 4]

    p2 = build_space(mesh, 2)
    assert (p2.n_dofs, p2.n_free) == (9, 7)
    # vertex dofs first, then cell midpoints
    np.testing.assert_allclose(np.sort(p2.dof_coords[5:, 0]),
                               [0.125, 0.375, 0.625, 0.875])


def test_square_space_dof_counts():
    mesh = build_square_mesh(2)
    p1 = build_space(mesh, 1)
    assert (p1.n_dofs, p1.n_free) == (9, 1)
    p2 = build_space(mesh, 2)
    assert (p2.n_dofs, p2.n_free) == (25, 9)


def test_element_edges():
    space = build_space(build_square_mesh(2), 2)
    edge_dofs = np.arange(space.mesh.n_vertices, space.n_dofs)
    assert edge_dofs.size == 16
    # 8 boundary edges seen by one triangle, 8 interior edges shared by two
    assert np.isin(edge_dofs, space.dirichlet_dofs).sum() == 8


# P2 dof arrays recorded before the edge numbering was vectorized: edges are
# numbered in order of first appearance over the elements' local edges.
SQUARE3_P2_ELEMENT_DOFS = [
    [0, 1, 5, 16, 17, 18], [0, 5, 4, 18, 19, 20], [1, 2, 6, 21, 22, 23],
    [1, 6, 5, 23, 24, 17], [2, 3, 7, 25, 26, 27], [2, 7, 6, 27, 28, 22],
    [4, 5, 9, 19, 29, 30], [4, 9, 8, 30, 31, 32], [5, 6, 10, 24, 33, 34],
    [5, 10, 9, 34, 35, 29], [6, 7, 11, 28, 36, 37], [6, 11, 10, 37, 38, 33],
    [8, 9, 13, 31, 39, 40], [8, 13, 12, 40, 41, 42], [9, 10, 14, 35, 43, 44],
    [9, 14, 13, 44, 45, 39], [10, 11, 15, 38, 46, 47], [10, 15, 14, 47, 48, 43],
]
# 6 x the edge-midpoint coordinates (dofs 16..48)
SQUARE3_P2_EDGE_COORDS_X6 = [
    [1, 0], [2, 1], [1, 1], [1, 2], [0, 1], [3, 0], [4, 1], [3, 1], [3, 2],
    [5, 0], [6, 1], [5, 1], [5, 2], [2, 3], [1, 3], [1, 4], [0, 3], [4, 3],
    [3, 3], [3, 4], [6, 3], [5, 3], [5, 4], [2, 5], [1, 5], [1, 6], [0, 5],
    [4, 5], [3, 5], [3, 6], [6, 5], [5, 5], [5, 6],
]
SQUARE3_P2_DIRICHLET = [0, 1, 2, 3, 4, 7, 8, 11, 12, 13, 14, 15, 16, 20, 21,
                        25, 26, 32, 36, 41, 42, 45, 46, 48]


def test_p2_dof_numbering_is_pinned():
    square = build_space(build_square_mesh(3), 2)
    np.testing.assert_array_equal(square.element_dofs, SQUARE3_P2_ELEMENT_DOFS)
    np.testing.assert_array_equal(square.dof_coords[:16], square.mesh.vertices)
    np.testing.assert_allclose(square.dof_coords[16:],
                               np.array(SQUARE3_P2_EDGE_COORDS_X6) / 6.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(square.dirichlet_dofs, SQUARE3_P2_DIRICHLET)

    interval = build_space(build_interval_mesh(4), 2)
    np.testing.assert_array_equal(interval.element_dofs,
                                  [[0, 1, 5], [1, 2, 6], [2, 3, 7], [3, 4, 8]])
    np.testing.assert_allclose(8.0 * interval.dof_coords[:, 0],
                               [0, 2, 4, 6, 8, 1, 3, 5, 7], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(interval.dirichlet_dofs, [0, 4])


def test_scatter_restrict_roundtrip():
    space = build_space(build_interval_mesh(6), 2)
    rng = np.random.default_rng(3)
    free = rng.standard_normal(space.n_free)
    full = space.scatter(free)
    assert full.shape == (space.n_dofs,)
    np.testing.assert_allclose(full[space.dirichlet_dofs], 0.0)
    np.testing.assert_allclose(space.restrict(full), free)


def test_interpolate_matches_nodal_values():
    space = build_space(build_interval_mesh(8), 2)
    f = lambda x: x[..., 0] ** 2
    free = space.interpolate(f)
    np.testing.assert_allclose(free, f(space.dof_coords[space.free_dofs]),
                               atol=1e-14)


def test_p1_interpolation_error_orders():
    u = lambda x: np.sin(np.pi * x)
    du = lambda x: np.pi * np.cos(np.pi * x)
    errs = {}
    for n in (8, 16):
        space = build_space(build_interval_mesh(n), 1)
        free = space.interpolate(lambda x: u(x[..., 0]))
        l2sq, h1sq, _ = p1_error_norms_1d(free, n, u, du)
        errs[n] = (np.sqrt(l2sq), np.sqrt(h1sq))
    # classical nodal interpolation estimate for sin(pi x):
    # L2 error ~ h^2 pi^2 / sqrt(240); n = 8 gives 0.0099549 and order 2
    assert errs[8][0] == pytest.approx(0.009955, rel=2e-2)
    assert np.log2(errs[8][0] / errs[16][0]) == pytest.approx(2.0, abs=0.1)
    assert np.log2(errs[8][1] / errs[16][1]) == pytest.approx(1.0, abs=0.1)


def test_p2_interpolation_error_order():
    u = lambda x: np.sin(np.pi * x[..., 0])
    errs = []
    for n in (4, 8):
        space = build_space(build_interval_mesh(n), 2)
        ops = SpaceOperators(space, exact_degree=14)
        diff = ops.eval_free(space.interpolate(u)) - ops.evaluate_function(u)
        errs.append(np.sqrt(ops.integrate(diff**2)))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(3.0, abs=0.15)


def test_assembled_matrices_match_hand_built():
    n = 7
    ops = SpaceOperators(build_space(build_interval_mesh(n), 1))
    np.testing.assert_allclose(ops.mass().toarray(), tridiag_mass(n),
                               atol=1e-14)
    np.testing.assert_allclose(ops.stiffness().toarray(), tridiag_stiffness(n),
                               atol=1e-12)


def test_square_matrices_are_spd():
    ops = SpaceOperators(build_space(build_square_mesh(4), 1))
    for mat in (ops.mass().toarray(), ops.stiffness().toarray()):
        np.testing.assert_allclose(mat, mat.T, atol=1e-14)
        assert np.linalg.eigvalsh(mat).min() > 0.0
