"""Discrete characteristic polynomials and the slab truncation map."""

import numpy as np
import pytest

from dgac import (
    characteristic_transfer_matrix,
    discrete_characteristic,
    make_time_basis,
    sup_norm_scan,
)

from _helpers import gauss01, moment_route

polyval = np.polynomial.polynomial.polyval


def test_input_validation():
    with pytest.raises(ValueError):
        discrete_characteristic(-1, 0.5)
    with pytest.raises(ValueError):
        discrete_characteristic(1, 0.0)
    with pytest.raises(ValueError):
        discrete_characteristic(1, 1.2)
    with pytest.raises(ValueError):
        characteristic_transfer_matrix(make_time_basis(1), -0.1)


def test_lowest_order_is_constant_one():
    for cut in (0.1, 0.5, 1.0):
        rho = discrete_characteristic(0, cut)
        np.testing.assert_allclose(rho.coeffs, [1.0], atol=1e-15)


def test_full_cut_gives_identity():
    s = np.linspace(0.0, 1.0, 31)
    for k in range(5):
        for coeffs in (discrete_characteristic(k, 1.0).coeffs, moment_route(k, 1.0)):
            np.testing.assert_allclose(polyval(s, coeffs), 1.0, atol=1e-12)


def test_first_order_closed_form():
    # for k = 1 the truncation polynomial is rho(s) = 1 + 2 (that - 1) s
    for cut in (0.2, 1.0 / 3.0, 0.5, 0.85):
        for coeffs in (discrete_characteristic(1, cut).coeffs, moment_route(1, cut)):
            np.testing.assert_allclose(coeffs, [1.0, 2.0 * (cut - 1.0)], atol=1e-13)
    half = discrete_characteristic(1, 0.5)
    s = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(half(s), 1.0 - s, atol=1e-13)


def test_defining_properties_random_cuts():
    rng = np.random.default_rng(42)
    cuts = rng.uniform(0.01, 1.0, size=100)
    s = np.linspace(0.0, 1.0, 101)
    for k in range(5):
        for cut in cuts:
            rho = discrete_characteristic(k, cut)
            assert abs(rho(0.0) - 1.0) <= 1e-12
            for m in range(1, k + 1):
                # int_0^1 rho s^{m-1} = cut^m / m
                assert abs(rho.moment(m - 1) - cut**m / m) <= 1e-12
            other = moment_route(k, cut)
            assert np.max(np.abs(rho(s) - polyval(s, other))) <= 1e-10


def test_moment_against_quadrature():
    rho = discrete_characteristic(3, 0.37)
    x, w = gauss01(8)
    for m in range(5):
        assert rho.moment(m) == pytest.approx(np.sum(w * rho(x) * x**m),
                                              abs=1e-14)


# ---------------------------------------------------------------------------
# the nodal transfer matrix


def test_transfer_matrix_full_cut_is_identity():
    for k in range(4):
        basis = make_time_basis(k)
        T = characteristic_transfer_matrix(basis, 1.0)
        np.testing.assert_allclose(T, np.eye(k + 1), atol=1e-12)


def test_apply_to_constant_reproduces_rho():
    for k in range(4):
        basis = make_time_basis(k)
        for cut in (0.3, 0.77):
            out = characteristic_transfer_matrix(basis, cut) @ (3.5 * np.ones((k + 1, 1)))
            rho_nodal = polyval(basis.nodes, moment_route(k, cut))
            np.testing.assert_allclose(out[:, 0], 3.5 * rho_nodal, atol=1e-12)


def test_apply_preserves_left_value_and_partial_moments():
    rng = np.random.default_rng(8)
    for k in range(4):
        basis = make_time_basis(k)
        w = basis.quad_weights
        pts = basis.quad_points
        for cut in rng.uniform(0.05, 1.0, size=20):
            U = rng.standard_normal((k + 1, 3))
            V = characteristic_transfer_matrix(basis, cut) @ U
            u0 = basis.left_values @ U
            v0 = basis.left_values @ V
            np.testing.assert_allclose(v0, u0, atol=1e-11)
            # int_0^1 (Tu) s^{m-1} == int_0^cut u s^{m-1} for m = 1..k
            g, gw = gauss01(k + 2)
            uvals_cut = basis.eval(cut * g) @ U        # (k+2, 3)
            vvals = basis.eval(pts) @ V                # (nq, 3)
            for m in range(1, k + 1):
                left = np.einsum("q,q,qj->j", w, pts ** (m - 1), vvals)
                right = cut * np.einsum("q,q,qj->j", gw,
                                        (cut * g) ** (m - 1), uvals_cut)
                np.testing.assert_allclose(left, right, atol=1e-11)


# ---------------------------------------------------------------------------
# sup-norm scan and the exported table


def test_scan_lowest_orders_are_exactly_one():
    for k in (0, 1):
        out = sup_norm_scan(k, n_cuts=51, n_samples=501)
        assert out["constant"] == pytest.approx(1.0, abs=1e-12)
        assert len(out["table"]) == 51
        cuts = np.array([row[0] for row in out["table"]])
        assert cuts.min() > 0.0 and cuts.max() == pytest.approx(1.0)


def test_scan_constants_frozen_values():
    # frozen from the default-resolution scan; the sequence grows with k
    expected = {2: 1.0773315149495148, 3: 1.0808978768029924,
                4: 1.0854670140198392}
    prev = 1.0
    for k, val in expected.items():
        got = sup_norm_scan(k)["constant"]
        assert got == pytest.approx(val, rel=1e-9)
        assert got >= prev - 1e-12
        prev = got


def test_scan_is_resolution_stable():
    coarse = sup_norm_scan(2)["constant"]
    fine = sup_norm_scan(2, n_cuts=301, n_samples=6001)["constant"]
    assert abs(coarse - fine) <= 1e-3

