"""The forward slab solver: projections, slab systems, marching, checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

from dgac import (
    LinearSolveConfig,
    NewtonConfig,
    NewtonError,
    ProblemSpec,
    TimePartition,
    factorize,
    l2_project,
    load_checkpoint,
    make_problem,
    save_checkpoint,
    solve_backward_dual,
    solve_forward,
    solve_slab,
)
from dgac.forward import _SlabSystem

from _helpers import (
    dense_spacetime_oracle,
    implicit_euler_oracle,
    make_run,
    monomial_eval,
    p1_error_norms_1d,
)

LIN = LinearSolveConfig()
TIGHT = NewtonConfig(abs_tol=1e-13, rel_tol=1e-13)


def _small_amplitude_problem(T=0.3):
    return ProblemSpec(dimension=1, epsilon=0.5, T=T,
                       u0=lambda x: 0.1 * np.sin(np.pi * x[..., 0]),
                       exact=None, name="smallsine")


# ---------------------------------------------------------------------------
# projection


def test_l2_projection_is_orthogonal_and_reproducing():
    run = make_run(n=16, l=1)
    ops = run.ops
    g = lambda x: np.sin(np.pi * x[..., 0])
    proj = l2_project(g, ops, LIN)
    # Galerkin orthogonality of the projection error against the space
    np.testing.assert_allclose(ops.mass() @ proj, ops.load(g), atol=1e-12)
    # members of the space are reproduced
    nodal = run.space.interpolate(g)
    np.testing.assert_allclose(l2_project(lambda x: np.interp(
        x[..., 0], run.space.dof_coords[:, 0],
        run.space.scatter(nodal)), ops, LIN), nodal, atol=1e-12)


def test_l2_projection_error_halves_at_second_order():
    u = lambda x: np.sin(np.pi * x)
    du = lambda x: np.pi * np.cos(np.pi * x)
    errs = []
    for n in (16, 32):
        run = make_run(n=n, l=1)
        proj = l2_project(lambda x: u(x[..., 0]), run.ops, LIN)
        l2sq, _, _ = p1_error_norms_1d(proj, n, u, du)
        errs.append(np.sqrt(l2sq))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


# ---------------------------------------------------------------------------
# single slab systems


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        NewtonConfig(max_iterations=0)


def test_zero_slab_is_a_fixed_point():
    run = make_run(n=8, N=2, k=1)
    nf = run.space.n_free
    system = _SlabSystem(run.ops, run.basis, 0.5, 0.5,
                         np.zeros(nf), None)
    zero = np.zeros((2, nf))
    np.testing.assert_array_equal(system.residual(zero), np.zeros((2, nf)))
    U, its, _ = solve_slab(system, zero, NewtonConfig(), LIN)
    assert its == 0
    assert np.all(U == 0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_slab_marching_reproduces_trial_space_solution(k):
    # u(t, x) = g(t) phi(x) with g in P_k and phi in the mesh space is an
    # exact solution once the forcing is assembled through the same
    # discrete weak form; four slabs accumulate no error beyond round-off.
    n, eps, tau = 8, 0.5, 0.25
    run = make_run(n=n, N=4, T=1.0, k=k, epsilon=eps)
    ops = run.ops
    basis = run.basis
    phi = run.space.interpolate(lambda x: np.sin(np.pi * x[..., 0]))
    M, A = ops.mass(), ops.stiffness()

    if k == 1:
        g = lambda t: 1.0 + t
        dg = lambda t: np.ones_like(t)
    else:
        g = lambda t: 1.0 + t + 0.5 * t**2
        dg = lambda t: 1.0 + t

    u_prev = g(0.0) * phi
    for s in range(4):
        t0 = s * tau
        tq = t0 + tau * basis.quad_points
        floads = np.stack([
            dg(t) * (M @ phi) + g(t) * (A @ phi)
            + ops.cubic_load(g(t) * phi) / eps**2
            for t in tq])
        system = _SlabSystem(ops, basis, tau, eps, u_prev, floads)
        guess = np.tile(u_prev, (k + 1, 1))
        U, _, _ = solve_slab(system, guess, TIGHT, LIN)
        expected = np.outer(g(t0 + tau * basis.nodes), phi)
        assert np.max(np.abs(U - expected)) <= 1e-9
        u_prev = basis.right_values @ U


# ---------------------------------------------------------------------------
# forward marching against independent references


def test_zero_data_gives_exact_zero_solution():
    run = make_run(n=8, N=4, k=1, initial_profile="zero")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert np.all(sol.initial == 0.0)
    for slab in sol.slabs:
        assert np.all(slab.coeffs == 0.0)


def test_forward_matches_dense_spacetime_reference():
    n, N, k = 8, 2, 1
    run = make_run(n=n, N=N, T=0.4, k=k, epsilon=0.5, manufactured="expsine")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis,
                        newton_cfg=TIGHT, lin_cfg=LIN)
    u0, W = dense_spacetime_oracle(run.problem, n, N, k)
    np.testing.assert_allclose(sol.initial, u0, atol=1e-12)
    samples = np.array([0.2, 0.55, 0.9, 1.0])
    for s in range(N):
        ref = monomial_eval(W[s], samples)
        got = sol.eval_slab(s + 1, samples)
        assert np.max(np.abs(got - ref)) <= 1e-10


def test_lowest_order_is_backward_euler():
    n, N = 8, 3
    problem = _small_amplitude_problem(T=0.3)
    run = make_run(n=n, N=N, T=0.3, k=0, initial_profile="zero")
    sol = solve_forward(problem, run.ops, run.partition, run.basis,
                        newton_cfg=TIGHT, lin_cfg=LIN)
    steps = implicit_euler_oracle(problem, n, N)
    np.testing.assert_allclose(sol.initial, steps[0], atol=1e-12)
    for m in range(1, N + 1):
        assert np.max(np.abs(sol.coeffs(m)[0] - steps[m])) <= 1e-10


def test_forward_solve_is_deterministic():
    run = make_run(n=8, N=2, T=0.25, k=1)
    a = solve_forward(run.problem, run.ops, run.partition, run.basis)
    b = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert np.array_equal(a.initial, b.initial)
    for sa, sb in zip(a.slabs, b.slabs):
        assert np.array_equal(sa.coeffs, sb.coeffs)


def test_dimension_mismatch_is_rejected():
    run1d = make_run(n=8, N=2)
    problem2d = make_problem(2, 0.5, 1.0, manufactured="expsine2d")
    with pytest.raises(ValueError, match="dimensions differ"):
        solve_forward(problem2d, run1d.ops, run1d.partition, run1d.basis)


def test_small_data_decays_monotonically():
    # with |u0| << 1 and eps = 0.5 the linear part dominates and the
    # solution decays; right traces shrink in the mass norm and energy
    problem = _small_amplitude_problem(T=1.0)
    run = make_run(n=16, N=8, T=1.0, k=1, initial_profile="zero")
    sol = solve_forward(problem, run.ops, run.partition, run.basis)
    ops = run.ops
    M, A = ops.mass(), ops.stiffness()
    inv_eps2 = 1.0 / problem.epsilon**2

    def mass_norm(v):
        return float(np.sqrt(v @ (M @ v)))

    def energy(v):
        vals = ops.eval_free(v)
        grad = ops.eval_grad_free(v)
        well = ops.integrate((vals**2 - 1.0) ** 2)
        return 0.5 * ops.integrate(np.sum(grad**2, axis=-1)) + 0.25 * inv_eps2 * well

    norms = [mass_norm(sol.right_trace(m)) for m in range(9)]
    energies = [energy(sol.right_trace(m)) for m in range(9)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_newton_failure_carries_history_and_slab_context():
    run = make_run(n=16, N=2, T=0.5, epsilon=0.01, k=1,
                   initial_profile="interface")
    with pytest.raises(NewtonError) as excinfo:
        solve_forward(run.problem, run.ops, run.partition, run.basis,
                      newton_cfg=NewtonConfig(max_iterations=1))
    err = excinfo.value
    # one context prefix, not one per layer
    assert str(err).startswith("forward solve failed on slab 1: ")
    assert str(err).count("slab") == 1
    assert len(err.history) >= 1
    assert all(np.isfinite(r) for r in err.history)


# ---------------------------------------------------------------------------
# simplified Newton: one factorization reused across steps and slabs


EXACT = NewtonConfig(abs_tol=1e-15, rel_tol=1e-15)
NON_UNIFORM = np.array([0.0, 0.04, 0.15, 0.2, 0.37, 0.5])


def _max_relative_gap(a, b):
    """Largest coefficient difference of two solutions, relative per slab."""
    return max(np.max(np.abs(sa.coeffs - sb.coeffs)) / np.max(np.abs(sb.coeffs))
               for sa, sb in zip(a.slabs, b.slabs))


@pytest.mark.parametrize("case", [
    *(dict(k=k) for k in range(4)),
    *(dict(k=k, epsilon=0.25, T=0.1, initial_profile="interface") for k in range(4)),
    *(dict(dimension=2, n=4, N=4, T=0.5, l=2, k=k) for k in (1, 2)),
    dict(T=0.5, k=2, partition=NON_UNIFORM),
    dict(dimension=2, n=3, T=0.5, l=2, k=2, partition=NON_UNIFORM),
], ids=[*(f"1d-k{k}" for k in range(4)), *(f"1d-interface-k{k}" for k in range(4)),
        "2d-P2-k1", "2d-P2-k2", "1d-non-uniform", "2d-non-uniform"])
def test_default_tolerance_lands_on_the_discrete_solution(case):
    # the finishing steps are full Newton steps, so stopping at the default
    # tolerance leaves the coefficients where a solve to 1e-15 puts them.
    # (1e-15 is at the round-off floor of the 1d P2 slab residuals, so the
    # 1d cases are P1.)
    case = dict(case)
    points = case.pop("partition", None)
    run = make_run(**case)
    if points is not None:
        run = dataclasses.replace(run, partition=TimePartition(points))
    default = solve_forward(run.problem, run.ops, run.partition, run.basis)
    exact = solve_forward(run.problem, run.ops, run.partition, run.basis, newton_cfg=EXACT)
    assert _max_relative_gap(default, exact) <= 1e-12


@pytest.mark.xfail(strict=True, raises=NewtonError,
                   reason="simplified Newton stalls where full Newton (before the carried "
                          "factorization) solves; exact-Jacobian steps are meant to mend it")
@pytest.mark.parametrize("epsilon", [0.0625, 0.03125])
def test_small_eps_runs_that_full_newton_solves(epsilon):
    # tau/eps^2 = 16 and 64: the slab systems need not have a unique
    # solution, so the solution reached depends on the Newton path
    run = make_run(n=64, N=16, T=1.0, k=1, epsilon=epsilon)
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert len(sol.slabs) == 16


@pytest.mark.parametrize("poor_at", ["zero-state", "negated"])
def test_poor_factorization_is_refreshed(poor_at):
    # large data: the Jacobian at U = 0 misses the reaction 3u^2/eps^2, so
    # its step contracts too little; the negated Jacobian steps uphill, so
    # its line search stalls
    run = make_run(n=16, N=2, k=2, epsilon=0.25)
    prev = run.space.interpolate(lambda x: 3.0 * np.sin(np.pi * x[..., 0]))
    system = _SlabSystem(run.ops, run.basis, 0.25, 0.25, prev, None)
    guess = np.tile(prev, (3, 1))
    if poor_at == "zero-state":
        poor = factorize(system.jacobian(np.zeros_like(guess)), LIN)
    else:
        poor = factorize(-system.jacobian(guess), LIN)
    U, _, used = solve_slab(system, guess, NewtonConfig(), LIN, factorization=poor)
    want, _, _ = solve_slab(system, guess, NewtonConfig(), LIN)
    assert used is not poor
    assert np.max(np.abs(U - want)) <= 1e-12 * np.max(np.abs(want))


def test_certify_slabs_share_factorizations(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return factorize(*args, **kwargs)

    monkeypatch.setattr("dgac.forward.factorize", counting)
    run = make_run(dimension=2, n=16, N=8, T=1.0, k=1, l=2, epsilon=0.5,
                   manufactured="expsine2d")
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert len(sol.slabs) == 8
    # full Newton factors once per step: 24 for these 8 slabs
    assert 1 <= len(calls) <= 9


# ---------------------------------------------------------------------------
# landings by defect correction: each carried factorization lands one slab


def _certify_run(k=1):
    return make_run(dimension=2, n=16, N=8, T=1.0, k=k, l=2, epsilon=0.5,
                    manufactured="expsine2d")


def _sweep_run(epsilon):
    # one eps point of the stability sweep: 64 small slabs, a moving interface
    return make_run(n=32, N=64, T=0.0125, k=1, l=2, epsilon=epsilon,
                    initial_profile="interface")


def _recording_factorize(monkeypatch):
    """Patch the forward's factorize to record, per factorization, the
    outcome of each of its defect corrections (None when stale, True
    otherwise); returns the list of these per-factorization lists."""
    records = []

    def recording(*args, **kwargs):
        solve = factorize(*args, **kwargs)
        outcomes = []
        records.append(outcomes)

        def recorded(b, K=None):
            x = solve(b, K)
            if K is not None:
                outcomes.append(None if x is None else True)
            return x

        return recorded

    monkeypatch.setattr("dgac.forward.factorize", recording)
    return records


def test_certify_landings_share_factorizations(monkeypatch):
    records = _recording_factorize(monkeypatch)
    run = _certify_run()
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert len(sol.slabs) == 8
    # 9 when every landing factors: one LU per slab plus the first
    assert 1 <= len(records) <= 5
    assert all(outcomes.count(True) <= 1 for outcomes in records)


@pytest.mark.parametrize("epsilon", [0.4, 0.2, 0.1, 0.05])
def test_sweep_point_factors_about_every_other_slab(monkeypatch, epsilon):
    records = _recording_factorize(monkeypatch)
    run = _sweep_run(epsilon)
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert len(sol.slabs) == 64
    # 60 to 65 when every landing factors
    assert len(records) <= 33
    # no factorization lands more than one step by defect correction: an
    # uncapped carried LU ages and its simplified steps contract less
    assert all(outcomes.count(True) <= 1 for outcomes in records)


def _factor_every_landing(monkeypatch):
    """Patch the forward's factorize so that every defect correction
    reports the factorization stale: every landing step then factors J."""
    def never_reused(*args, **kwargs):
        solve = factorize(*args, **kwargs)
        return lambda b, K=None: None if K is not None else solve(b)

    monkeypatch.setattr("dgac.forward.factorize", never_reused)


@pytest.mark.parametrize("case", [
    *(dict(l=l, k=k) for l in (1, 2) for k in (1, 2)),
    *(dict(certify=True, k=k) for k in (1, 2)),
], ids=["1d-P1-k1", "1d-P1-k2", "1d-P2-k1", "1d-P2-k2", "certify-k1", "certify-k2"])
def test_corrected_landings_match_factored_landings(monkeypatch, case):
    case = dict(case)
    run = _certify_run(case["k"]) if case.pop("certify", False) else make_run(**case)
    corrected = solve_forward(run.problem, run.ops, run.partition, run.basis)
    with monkeypatch.context() as patch:
        _factor_every_landing(patch)
        factored = solve_forward(run.problem, run.ops, run.partition, run.basis)
    assert _max_relative_gap(corrected, factored) <= 1e-13


@pytest.mark.parametrize("poor_at", ["zero-state", "negated"])
def test_landing_with_a_poor_factorization_factors_the_jacobian(monkeypatch, poor_at):
    # start within 1e4 x target of the solution, so that the first step is
    # a landing step handed the poor factorization of the refresh test
    run = make_run(n=16, N=2, k=2, epsilon=0.25)
    prev = run.space.interpolate(lambda x: 3.0 * np.sin(np.pi * x[..., 0]))
    system = _SlabSystem(run.ops, run.basis, 0.25, 0.25, prev, None)
    want, _, _ = solve_slab(system, np.tile(prev, (3, 1)), EXACT, LIN)
    guess = want * (1.0 + 1e-11 * np.cos(np.arange(want.size)).reshape(want.shape))
    assert np.linalg.norm(system.residual(guess)) <= 1e-8
    if poor_at == "zero-state":
        poor = factorize(system.jacobian(np.zeros_like(guess)), LIN)
    else:
        poor = factorize(-system.jacobian(guess), LIN)
    corrections = []

    def recorded(b, K=None):
        x = poor(b, K)
        corrections.append(x)
        return x

    records = _recording_factorize(monkeypatch)
    U, steps, used = solve_slab(system, guess, NewtonConfig(), LIN, factorization=recorded)
    assert len(corrections) == 1 and corrections[0] is None  # stale for J: not taken
    assert len(records) == 1 and used is not recorded
    assert steps >= 1
    assert np.max(np.abs(U - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, solved_default):
    run, sol = solved_default
    path = tmp_path / "state.json"
    manifest = save_checkpoint(sol, str(path), problem=run.problem)
    assert manifest["N_slabs"] == 8
    assert manifest["mesh"] == {"dimension": 1, "n": 16}
    assert manifest["problem"] == "expsine"
    assert set(json.loads(path.read_text())) == {"manifest", "initial", "coeffs"}

    back, loaded = load_checkpoint(str(path))
    assert np.array_equal(back.initial, sol.initial)
    assert len(back.slabs) == len(sol.slabs)
    for sa, sb in zip(back.slabs, sol.slabs):
        assert np.array_equal(sa.coeffs, sb.coeffs)
    assert np.array_equal(back.partition.points, sol.partition.points)
    assert loaded["problem_hash"] == manifest["problem_hash"]


def test_checkpoint_roundtrip_of_an_inexact_rule(tmp_path):
    # a one-point rule (a negative control) is what the solution was
    # computed with, so the reload rebuilds it
    run = make_run(n=8, N=3, T=0.3, k=1, quad_points=1, allow_inexact=True)
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    path = tmp_path / "state.json"
    save_checkpoint(sol, str(path), problem=run.problem)
    back, manifest = load_checkpoint(str(path))
    assert manifest["time_quad_points"] == 1
    assert back.basis.n_quad == 1
    assert np.array_equal(back.basis.quad_points, sol.basis.quad_points)
    assert np.array_equal(back.initial, sol.initial)
    for sa, sb in zip(back.slabs, sol.slabs):
        assert np.array_equal(sa.coeffs, sb.coeffs)


def test_checkpoint_rejects_backward_solution(tmp_path, solved_default):
    run, sol = solved_default
    phi = solve_backward_dual(sol, run.problem, run.ops)
    path = tmp_path / "state.json"
    with pytest.raises(ValueError, match="'initial'"):
        save_checkpoint(phi, str(path))
    assert not path.exists()


def test_checkpoint_roundtrip_2d_non_uniform(tmp_path):
    run = make_run(dimension=2, n=4, T=0.5, l=2, k=2)
    run = dataclasses.replace(run, partition=TimePartition(NON_UNIFORM))
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis)
    path = tmp_path / "state.json"
    save_checkpoint(sol, str(path), problem=run.problem)
    back, _ = load_checkpoint(str(path))
    assert np.array_equal(back.partition.points, NON_UNIFORM)
    assert np.array_equal(back.initial, sol.initial)
    assert len(back.slabs) == 5
    for sa, sb in zip(back.slabs, sol.slabs):
        assert sa.coeffs.shape == (3, run.space.n_free)
        assert np.array_equal(sa.coeffs, sb.coeffs)


def test_checkpoint_rejects_mismatched_mesh(tmp_path, solved_default):
    run, sol = solved_default
    path = tmp_path / "state.json"
    save_checkpoint(sol, str(path), problem=run.problem)
    doc = json.loads(path.read_text())
    doc["manifest"]["mesh"]["n"] = 32
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="does not match"):
        load_checkpoint(str(path))


def _truncate_slabs(doc):
    doc["coeffs"] = doc["coeffs"][:2]


def _cut_coeffs(doc):
    doc["coeffs"] = [c[:1] for c in doc["coeffs"]]


def _cut_initial(doc):
    doc["initial"] = doc["initial"][:2]


def _drop_partition_point(doc):
    # the slab intervals come from the manifest partition alone
    del doc["manifest"]["partition"][3]


def _ragged_coeffs(doc):
    doc["coeffs"][1][0] = doc["coeffs"][1][0][:3]


def _drop_coeffs(doc):
    del doc["coeffs"]


def _text_in_coeffs(doc):
    doc["coeffs"][1][1][4] = "x"


def _text_in_initial(doc):
    doc["initial"][3] = "x"


def _null_in_coeffs(doc):
    doc["coeffs"][1][0][2] = None


def _infinity_in_coeffs(doc):
    doc["coeffs"][1][1][2] = float("inf")


def _drop_manifest(doc):
    del doc["manifest"]


def _drop_mesh_dimension(doc):
    del doc["manifest"]["mesh"]["dimension"]


def _mesh_dimension_3(doc):
    doc["manifest"]["mesh"]["dimension"] = 3


def _fractional_k(doc):
    doc["manifest"]["k"] = 1.5


def _text_k(doc):
    doc["manifest"]["k"] = "1"


def _text_partition(doc):
    doc["manifest"]["partition"] = ["0", "a", "1"]


def _zero_time_quad_points(doc):
    doc["manifest"]["time_quad_points"] = 0


def _negative_k(doc):
    doc["manifest"]["k"] = -1


def _degree_l_3(doc):
    doc["manifest"]["degree_l"] = 3


@pytest.mark.parametrize("corrupt, match", [
    (_truncate_slabs, r"coeffs have shape \(2, 2, 15\), expected \(8, 2, 15\)"),
    (_cut_coeffs, r"coeffs have shape \(8, 1, 15\), expected \(8, 2, 15\)"),
    (_cut_initial, r"initial data has shape \(2,\), expected \(15,\)"),
    (_drop_partition_point, "partition has 7 slabs, but its manifest says N_slabs = 8"),
    (_ragged_coeffs, "checkpoint: field 'coeffs' is not a numeric array"),
    (_drop_coeffs, "checkpoint: missing field 'coeffs'"),
    (_text_in_coeffs, "checkpoint: field 'coeffs' is not a numeric array"),
    (_text_in_initial, "checkpoint: field 'initial' is not a numeric array"),
    (_null_in_coeffs, "checkpoint: field 'coeffs' holds non-finite values"),
    (_infinity_in_coeffs, "checkpoint: field 'coeffs' holds non-finite values"),
    (_drop_manifest, "checkpoint: missing field 'manifest'"),
    (_drop_mesh_dimension, "checkpoint manifest mesh is missing 'dimension'"),
    (_mesh_dimension_3, "checkpoint manifest mesh: 'dimension' must be 1 or 2, got 3"),
    (_fractional_k, "checkpoint manifest: 'k' must be an integer, got 1.5"),
    (_text_k, "checkpoint manifest: 'k' must be an integer, got '1'"),
    (_text_partition, "checkpoint manifest: field 'partition' is not a numeric array"),
    (_zero_time_quad_points, "checkpoint manifest: 'time_quad_points' must be >= 1, got 0"),
    (_negative_k, "checkpoint manifest: 'k' must be >= 0, got -1"),
    (_degree_l_3, "checkpoint manifest: 'degree_l' must be 1 or 2, got 3"),
], ids=["slab-count", "coeffs-shape", "initial-shape", "interval", "coeffs-ragged",
        "coeffs-missing", "coeffs-text", "initial-text", "coeffs-null", "coeffs-infinity",
        "manifest-missing", "mesh-dimension-missing", "mesh-dimension-3", "k-fractional",
        "k-text", "partition-text", "time-quad-points-zero", "k-negative", "degree-l-3"])
def test_checkpoint_rejects_inconsistent_slabs(tmp_path, solved_default, corrupt, match):
    run, sol = solved_default
    path = tmp_path / "state.json"
    save_checkpoint(sol, str(path), problem=run.problem)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_checkpoint(str(path))


def test_checkpoint_rejects_per_slab_format(tmp_path, solved_default):
    # the earlier format: one record per slab with its interval and the
    # incoming trace, and no top-level coeffs array
    run, sol = solved_default
    path = tmp_path / "state.json"
    save_checkpoint(sol, str(path), problem=run.problem)
    doc = json.loads(path.read_text())
    pts = sol.partition.points
    doc["slabs"] = [{"index": n, "t_start": float(pts[n - 1]), "t_end": float(pts[n]),
                     "coeffs": coeffs, "left_incoming": sol.right_trace(n - 1).tolist()}
                    for n, coeffs in enumerate(doc.pop("coeffs"), start=1)]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="checkpoint: missing field 'coeffs'"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key", ["k", "mesh", "n_free"])
def test_checkpoint_rejects_missing_manifest_key(tmp_path, solved_default, key):
    run, sol = solved_default
    path = tmp_path / "state.json"
    save_checkpoint(sol, str(path), problem=run.problem)
    doc = json.loads(path.read_text())
    del doc["manifest"][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"checkpoint manifest is missing '{key}'"):
        load_checkpoint(str(path))


# ---------------------------------------------------------------------------
# evaluation in physical time


@pytest.fixture(scope="module")
def half_unit_solve():
    run = make_run(n=8, N=4, T=0.5, k=1)
    return run, solve_forward(run.problem, run.ops, run.partition, run.basis)


def test_eval_time_is_left_continuous(half_unit_solve):
    run, sol = half_unit_solve
    assert np.array_equal(sol.eval_time(0.0), sol.initial)
    for n, t in enumerate(run.partition.points[1:], start=1):
        assert np.allclose(sol.eval_time(float(t)), sol.right_trace(n), rtol=0, atol=1e-14)


@pytest.mark.parametrize("t", [5.0, -1.0, float("nan")], ids=["after-T", "before-t0", "nan"])
def test_eval_time_rejects_times_outside_the_partition(half_unit_solve, t):
    _, sol = half_unit_solve
    with pytest.raises(ValueError, match="outside the partition"):
        sol.eval_time(t)


@pytest.mark.parametrize("n", [0, -1, 5], ids=["zero", "negative", "past-N"])
def test_slab_index_outside_the_partition_raises(half_unit_solve, n):
    # negative list indexing once made slab 0 read slab N
    _, sol = half_unit_solve
    reads = [sol.coeffs, lambda m: sol.eval_slab(m, [0.5])]
    reads += [sol.left_plus] if n != 5 else []     # left_plus(N + 1) is the terminal zero
    reads += [sol.right_trace] if n != 0 else []   # right_trace(0) is the initial data
    for read in reads:
        with pytest.raises(ValueError, match=f"slab index {n} is outside 1..4"):
            read(n)
    assert np.array_equal(sol.left_plus(5), np.zeros(sol.space.n_free))
    assert np.array_equal(sol.right_trace(0), sol.initial)
