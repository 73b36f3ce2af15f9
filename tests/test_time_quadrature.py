"""Batched time quadrature: the time-dependent data evaluator, batched loads,
and the balance reports pinned to the values of the per-time-point code."""

import numpy as np
import pytest

from dgac import (
    dual_stability_report,
    duality_identity_report,
    energy_trace,
    psi_chain_report,
    solve_backward_dual,
    solve_backward_psi,
    solve_forward,
    stability_identity_report,
)

from _helpers import make_run


# ---------------------------------------------------------------------------
# one evaluator for time-dependent data


def _scalar(t, x):
    return np.exp(-t) * np.sin(np.pi * x[..., 0]) + t * x[..., -1] ** 2


def _vector(t, x):
    return np.stack([np.cos(t * x[..., 0]), (1.0 + t) * x[..., -1]], axis=-1)[..., :x.shape[-1]]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_time_fields_and_batched_loads_match_per_time_calls(dimension, k):
    run = make_run(dimension=dimension, n=6 if dimension == 1 else 3, k=k, l=2)
    ops, basis = run.ops, run.basis
    times = 0.3 + 0.125 * basis.quad_points

    fields = ops.time_fields(_scalar, times)
    per_time = np.stack([ops.evaluate_function(lambda x, t=t: _scalar(t, x)) for t in times])
    assert fields.shape == (basis.n_quad,) + ops.phys_points.shape[:-1]
    np.testing.assert_array_equal(fields, per_time)

    grads = ops.time_fields(_vector, times)
    assert grads.shape == (basis.n_quad,) + ops.phys_points.shape
    np.testing.assert_array_equal(grads[0], _vector(times[0], ops.phys_points))

    np.testing.assert_allclose(ops.load(fields), np.stack([ops.load(f) for f in fields]),
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(ops.gradient_load(grads),
                               np.stack([ops.gradient_load(g) for g in grads]),
                               rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# report values pinned to the per-time-point implementation


PINS = {
    "default": {
        "dual": [0.012789942035810058, 0.012789942035810065,
                 0.011252709523857558, 0.026873569341953642],
        "duality": [0.21498855473562917, 0.21498855473559336],
        "psi": [0.01853607452261779, 0.018536074522617806,
                0.005147498739623886, 0.004503062752187735, 0.0038321976452063713,
                0.003156826790197547, 0.0024802628815830032, 0.0017733354799139996,
                0.0009866507270922464, 0.00021042142032381433],
        "psi_callable": [0.15665525525753154, 0.1566552552575318,
                         0.023355110488404787, 0.027680983510515823,
                         0.031616710287801546, 0.03451975293293809,
                         0.03519861914829599, 0.03158611982696086,
                         0.021031161379184614, 0.00501738174771796],
        "stability": [1.417078184915298, 1.4170781849146874],
    },
    "interface_k2": {
        "dual": [6.001527196398799e-05, 6.0015271963988e-05,
                 5.4291712026829105e-05, 0.00016083202914200475],
        "duality": [0.005146624932544151, 0.005146624932544148],
        "psi": [9.072736699239782e-05, 9.072736699239798e-05,
                5.980056689904415e-05, 1.5949883007518306e-05,
                3.757344309616198e-06, 4.224868519426109e-07],
        "psi_callable": [0.0031057759093999888, 0.003105775909399992,
                         0.0018695233576926575, 0.0008878104230445763,
                         0.0003023593213347549, 4.022602145445848e-05],
        "stability": [5.094123907423143e-16, 0.0],
        "energy": [
            [4.903432063829629, 4.24273458416826, 4.073392082476343, 4.022538945510051],
            [0.16298244120294617, 0.11199758541612946, 0.103530574878824,
             0.10107617073935862],
            [0.04039663960720536, 0.005929220811922835, 0.0016957728169153688,
             0.0005126971016073674],
        ],
    },
}


def _data(t, x):
    return np.sin(np.pi * x[..., 0]) * (1.0 + t)


def _frozen(t, x):
    return 0.5 * np.cos(np.pi * x[..., 0]) * np.exp(-t)


@pytest.fixture(scope="module", params=["default", "interface_k2"])
def pinned_run(request, solved_default):
    if request.param == "default":
        run, sol = solved_default
    else:
        run = make_run(epsilon=0.25, T=0.1, n=16, N=4, k=2, l=2,
                       initial_profile="interface")
        sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    return request.param, run, sol


def _floor(run):
    return lambda t: -1.0 / run.problem.epsilon**2 + 3.0 * t


def _assert_pinned(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_dual_reports_pinned(pinned_run):
    name, run, sol = pinned_run
    phi = solve_backward_dual(sol, run.problem, run.ops)
    rep = dual_stability_report(sol, phi, run.problem, run.ops)
    _assert_pinned([rep.lhs, rep.rhs, rep.details["young_lhs"], rep.details["young_rhs"]],
                   PINS[name]["dual"])
    assert rep.residual <= 1e-9
    rep = duality_identity_report(sol, phi, run.problem, run.ops)
    _assert_pinned([rep.lhs, rep.rhs], PINS[name]["duality"])
    assert rep.residual <= 1e-8


def test_psi_chain_reports_pinned(pinned_run):
    name, run, sol = pinned_run
    psi = solve_backward_psi(sol, sol, run.problem, ops=run.ops)
    rep = psi_chain_report(psi, sol, sol, run.problem, run.ops, spectral_floor=_floor(run))
    _assert_pinned([rep.lhs, rep.rhs] + rep.details["spectral_slack_per_slab"],
                   PINS[name]["psi"])
    assert rep.residual <= 1e-9
    # callable data and callable frozen coefficient
    psi = solve_backward_psi(_data, _frozen, run.problem, u_shape=sol, ops=run.ops)
    rep = psi_chain_report(psi, _frozen, _data, run.problem, run.ops,
                           spectral_floor=_floor(run))
    _assert_pinned([rep.lhs, rep.rhs] + rep.details["spectral_slack_per_slab"],
                   PINS[name]["psi_callable"])
    assert rep.residual <= 1e-9


def test_stability_and_energy_reports_pinned(pinned_run):
    name, run, sol = pinned_run
    rep = stability_identity_report(sol, run.problem, run.ops)
    _assert_pinned([rep.lhs, rep.rhs], PINS[name]["stability"])
    assert rep.residual <= 1e-9
    if run.problem.exact is None:
        trace = energy_trace(sol, run.problem, run.ops).details
        right, integrated, dissipation = PINS[name]["energy"]
        _assert_pinned(trace["right_energy"], right)
        _assert_pinned(trace["integrated_energy"], integrated)
        _assert_pinned(trace["weighted_dissipation"], dissipation)
        assert max(trace["residuals"]) <= 1e-10
