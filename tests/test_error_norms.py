"""The shared-reference error-norm pass and the batched gradient kernel:
batched gradients against per-row calls and a per-element oracle, the
reference's spatial factor sampled once per pass whatever the number of
solutions, slabs and time points, values pinned to the earlier
one-solution-per-pass code, and mismatched solutions rejected."""

import dataclasses

import numpy as np
import pytest

from dgac import (
    NewtonConfig,
    best_approximation_ratio,
    compute_norms,
    solve_forward,
    solve_parabolic_projection,
)

from _helpers import make_run, random_dg_solution


# ---------------------------------------------------------------------------
# batched eval_grad_free


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("l", [1, 2])
def test_batched_grad_matches_rows_and_element_oracle(dimension, l):
    run = make_run(dimension=dimension, n=5 if dimension == 1 else 2, l=l)
    ops, space = run.ops, run.space
    ne, nq = ops.dets.size, ops.quad_weights.size
    ldof = ops.basis_values.shape[1]
    assert ops.grad_phys.shape == (ne, nq, ldof, dimension)

    u = np.random.default_rng(3).standard_normal((2, space.n_free))
    batched = ops.eval_grad_free(u)
    assert batched.shape == (2, ne, nq, dimension)
    for row, got in zip(u, batched):
        np.testing.assert_allclose(ops.eval_grad_free(row), got, rtol=1e-14, atol=1e-14)
    # written into a given array, values and gradients alike
    out = np.empty_like(batched)
    ops.eval_grad_free(u, out=out)
    np.testing.assert_array_equal(out, batched)
    values = np.empty((2, ne, nq))
    ops.eval_free(u, out=values)
    np.testing.assert_array_equal(values, ops.eval_free(u))

    # per element: grad_x u = B^{-T} sum_a u_a grad_ref phi_a at every point
    grad_ref = space.reference.gradients(ops.quad_points)        # (nq, ldof, dim)
    mesh = space.mesh
    for e, (verts, dofs) in enumerate(zip(mesh.vertices[mesh.elements], space.element_dofs)):
        B = (verts[1:] - verts[0]).T                               # columns v_i - v_0
        inv_t = np.linalg.inv(B).T
        for i, row in enumerate(u):
            nodal = space.scatter(row)[dofs]
            want = np.einsum("a,qad->qd", nodal, grad_ref) @ inv_t.T
            np.testing.assert_allclose(batched[i, e], want, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# the spatial factor sampled once per pass


def _counting(exact):
    """exact with its spatial factor and gradient wrapped in call counters."""
    calls = {"s": 0, "grad_s": 0}

    def s(x):
        calls["s"] += 1
        return exact.s(x)

    def grad_s(x):
        calls["grad_s"] += 1
        return exact.grad_s(x)

    return dataclasses.replace(exact, s=s, grad_s=grad_s), calls


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reference_sampled_once_for_all_solutions(k):
    for N in (1, 3):
        run = make_run(n=6, N=N, k=k, T=0.5)
        u_h = random_dg_solution(run, np.random.default_rng(1))
        u_p = random_dg_solution(run, np.random.default_rng(2))

        ref, calls = _counting(run.problem.exact)
        best_approximation_ratio(u_h, u_p, ref)
        assert calls == {"s": 1, "grad_s": 1}

        ref, calls = _counting(run.problem.exact)
        compute_norms(u_h, reference=ref)
        assert calls == {"s": 1, "grad_s": 1}


# ---------------------------------------------------------------------------
# values pinned to the one-solution-per-pass implementation; the forward
# solves run at tolerance 1e-15 so that the pins hold the discrete solution
# and not wherever a Newton variant happens to stop at the default tolerance


PINS = {
    "p1_1d": {
        "norms": [0.0015715177022266778, 0.0028558724347922154, 0.08278048309402161,
                  0.0019847765835519587, 8.913790663903113e-06],
        "ratio": [0.08563635552881382, 0.08590126644628295, 0.9969160999781677],
    },
    "p2_2d": {
        "norms": [0.15660831375321949, 0.27491639889171166, 0.7360367870174804,
                  0.2430781646977092, 0.013907912626617414],
        "ratio": [1.010953185909192, 0.8435556405617937, 1.1984428024640017],
    },
}
PIN_NEWTON = NewtonConfig(abs_tol=1e-15, rel_tol=1e-15)
PIN_RUNS = {
    "p1_1d": dict(epsilon=0.5, T=1.0, n=16, N=8, k=1, l=1, manufactured="expsine"),
    "p2_2d": dict(dimension=2, epsilon=0.5, T=0.5, n=3, N=2, k=2, l=2),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_error_norms_and_ratio_pinned(name):
    run = make_run(**PIN_RUNS[name])
    exact = run.problem.exact
    sol = solve_forward(run.problem, run.ops, run.partition, run.basis, newton_cfg=PIN_NEWTON)
    proj = solve_parabolic_projection(exact, run.ops, run.partition, run.basis)
    err = compute_norms(sol, reference=exact)
    rep = best_approximation_ratio(sol, proj, exact)
    got = {"norms": [err.L2L2, err.LinfL2, err.L2H1, err.L4L4, err.jump_sum],
           "ratio": [rep.numerator, rep.denominator, rep.ratio]}
    for key, want in PINS[name].items():
        np.testing.assert_allclose(got[key], want, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# solutions that cannot share reference samples


def test_mismatched_solutions_raise():
    run = make_run(n=6, N=3, k=1, T=0.5)
    u_h = random_dg_solution(run, np.random.default_rng(1))
    exact = run.problem.exact
    other = make_run(n=6, N=4, k=2, T=0.5, l=2)
    # one difference at a time: partition points, time degree, space
    for changes in ({"partition": other.partition}, {"basis": other.basis},
                    {"space": other.space}):
        mismatched = dataclasses.replace(run, **changes)
        u_p = random_dg_solution(mismatched, np.random.default_rng(2))
        with pytest.raises(ValueError, match="one partition, one time degree and one space"):
            best_approximation_ratio(u_h, u_p, exact)
        with pytest.raises(ValueError, match="one partition"):
            best_approximation_ratio(u_p, u_h, exact)
