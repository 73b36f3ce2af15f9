"""Time partitions, Radau nodes, the dG time basis and its operators."""

import numpy as np
import pytest

from dgac import TimePartition, make_time_basis
from dgac.timebase import radau_right_nodes, required_quad_points

from _helpers import lagrange_time_matrices


# ---------------------------------------------------------------------------
# partitions


def test_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0]))
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0, 0.5, 0.5]))
    with pytest.raises(ValueError):
        TimePartition.uniform(0.0, 4)
    with pytest.raises(ValueError):
        TimePartition.uniform(1.0, 0)


def test_uniform_partition():
    part = TimePartition.uniform(2.0, 5)
    assert part.n_slabs == 5
    assert part.T == pytest.approx(2.0)
    np.testing.assert_allclose(part.points, np.linspace(0.0, 2.0, 6))
    np.testing.assert_allclose(part.tau, 0.4)
    assert part.theta == pytest.approx(1.0)


def test_graded_partition_ratios():
    part = TimePartition(np.array([0.0, 0.1, 0.4, 1.0]))
    assert part.n_slabs == 3
    np.testing.assert_allclose(part.tau, [0.1, 0.3, 0.6])
    assert part.tau_min == pytest.approx(0.1)
    assert part.tau_max == pytest.approx(0.6)
    assert part.theta == pytest.approx(1.0 / 6.0)


# ---------------------------------------------------------------------------
# nodes and quadrature


def test_radau_nodes_low_orders():
    np.testing.assert_allclose(radau_right_nodes(0), [1.0])
    np.testing.assert_allclose(radau_right_nodes(1), [1.0 / 3.0, 1.0],
                               atol=1e-14)
    s6 = np.sqrt(6.0)
    np.testing.assert_allclose(
        radau_right_nodes(2),
        [(4.0 - s6) / 10.0, (4.0 + s6) / 10.0, 1.0], atol=1e-13)
    with pytest.raises(ValueError):
        radau_right_nodes(-1)


def test_radau_nodes_integrate_right_open_rule():
    # the k+1 right-sided Radau nodes with interpolatory weights are exact
    # to degree 2k; verify through the Lagrange basis moments
    for k in (1, 2):
        basis = make_time_basis(k)
        nodes = basis.nodes
        V = nodes[:, None] ** np.arange(k + 1)[None, :]
        w = np.linalg.solve(V.T, 1.0 / (np.arange(k + 1) + 1.0))
        for m in range(2 * k + 1):
            assert np.dot(w, nodes**m) == pytest.approx(1.0 / (m + 1),
                                                        abs=1e-13)


def test_required_quad_points():
    for k in range(5):
        assert required_quad_points(k) == 2 * k + 2


def test_default_rule_exactness():
    for k in range(4):
        basis = make_time_basis(k)
        assert basis.n_quad == 2 * k + 2
        deg = 4 * k + 3
        val = np.sum(basis.quad_weights * basis.quad_points**deg)
        assert val == pytest.approx(1.0 / (deg + 1), abs=1e-13)


def test_insufficient_quadrature_raises_unless_allowed():
    with pytest.raises(ValueError, match="not exact to degree"):
        make_time_basis(1, quad_points=2)
    with pytest.raises(ValueError):
        make_time_basis(1, quad_points=0, allow_inexact=True)
    basis = make_time_basis(1, quad_points=2, allow_inexact=True)
    assert basis.n_quad == 2


# ---------------------------------------------------------------------------
# basis and dG matrices


def test_basis_is_nodal_and_sums_to_one():
    rng = np.random.default_rng(2)
    pts = rng.random(17)
    for k in range(4):
        basis = make_time_basis(k)
        np.testing.assert_allclose(basis.eval(basis.nodes),
                                   np.eye(k + 1), atol=1e-13)
        np.testing.assert_allclose(basis.eval(pts).sum(axis=1), 1.0,
                                   atol=1e-13)
        np.testing.assert_allclose(basis.eval_deriv(pts).sum(axis=1), 0.0,
                                   atol=1e-11)
        np.testing.assert_allclose(basis.left_values,
                                   basis.eval(np.array([0.0]))[0], atol=1e-13)
        np.testing.assert_allclose(basis.right_values,
                                   basis.eval(np.array([1.0]))[0], atol=1e-13)


def test_lowest_order_operators():
    basis = make_time_basis(0)
    np.testing.assert_allclose(basis.G, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(basis.Theta, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(basis.left_values, [1.0], atol=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_operators_match_polynomial_algebra(k):
    basis = make_time_basis(k)
    nodes, G, Th, left, right = lagrange_time_matrices(k)
    np.testing.assert_allclose(basis.nodes, nodes, atol=1e-13)
    np.testing.assert_allclose(basis.G, G, atol=1e-13)
    np.testing.assert_allclose(basis.Theta, Th, atol=1e-13)
    np.testing.assert_allclose(basis.left_values, left, atol=1e-13)
    np.testing.assert_allclose(basis.right_values, right, atol=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_theta_is_spd_with_unit_total(k):
    basis = make_time_basis(k)
    vals = np.linalg.eigvalsh(basis.Theta)
    assert vals.min() > 0.0
    # sum over all entries is the squared integral of the unit partition
    assert basis.Theta.sum() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_discrete_integration_by_parts(k):
    basis = make_time_basis(k)
    w = basis.quad_weights
    # G_ij + int chi_i' chi_j = chi_i(1) chi_j(1), entrywise
    ibp = basis.G + np.einsum("q,qi,qj->ij", w, basis.derivatives, basis.values)
    target = np.outer(basis.right_values, basis.right_values)
    np.testing.assert_allclose(ibp, target, atol=1e-13)


def test_under_integration_degrades_theta():
    basis = make_time_basis(1, quad_points=1, allow_inexact=True)
    # a one-point rule makes the time mass matrix rank one
    assert abs(np.linalg.det(basis.Theta)) < 1e-14
