"""The fixed-pattern slab operator, the batched slab residual and the
factor-once solve.

The oracle assembles M, A and every weighted mass matrix element by
element into dense arrays and builds the space-time matrix with sp.kron,
so it shares nothing with the pattern and scatter maps under test.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dgac import (
    LinearSolveConfig,
    LinearSolveError,
    SpaceOperators,
    build_interval_mesh,
    build_space,
    build_square_mesh,
    factorize,
    make_time_basis,
)
from dgac.forward import _SlabSystem

from _helpers import tridiag_stiffness


def _ops(dimension, l):
    mesh = build_interval_mesh(5) if dimension == 1 else build_square_mesh(2)
    return SpaceOperators(build_space(mesh, l))


def _dense_form(ops, integrand):
    """Free-dof matrix of sum_e sum_q det w_q integrand(e, q), one element at a time."""
    space = ops.space
    full = np.zeros((space.n_dofs, space.n_dofs))
    for e, dofs in enumerate(space.element_dofs):
        for q, wq in enumerate(ops.quad_weights):
            full[np.ix_(dofs, dofs)] += ops.dets[e] * wq * integrand(e, q)
    free = space.free_dofs
    return full[np.ix_(free, free)]


def _dense_weighted(ops, weight):
    phi = ops.basis_values
    return _dense_form(ops, lambda e, q: weight[e, q] * np.outer(phi[q], phi[q]))


def _dense_stiffness(ops):
    grad = ops.grad_phys
    return _dense_form(ops, lambda e, q: grad[e, q] @ grad[e, q].T)


def _oracle(ops, basis, coupling, Theta, tau, reaction):
    ones = np.ones((ops.dets.size, ops.quad_weights.size))
    K = (sp.kron(coupling, _dense_weighted(ops, ones))
         + tau * sp.kron(Theta, _dense_stiffness(ops)))
    for q, wq in enumerate(basis.quad_weights):
        chi = basis.values[q]
        K = K + tau * wq * sp.kron(np.outer(chi, chi), _dense_weighted(ops, reaction[q]))
    return K.toarray()


def _reaction(ops, basis, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((basis.n_quad, ops.dets.size, ops.quad_weights.size))


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("dimension", [1, 2])
def test_slab_operator_matches_kron_oracle(dimension, k, l):
    ops = _ops(dimension, l)
    basis = make_time_basis(k)
    tau = 0.3
    reaction = _reaction(ops, basis, seed=10 * k + l)
    for coupling, r in ((basis.G, reaction), (basis.G.T, reaction),
                        (basis.G, None)):
        got = ops.slab_operator(basis, coupling, tau, r)
        zero = np.zeros_like(reaction)
        want = _oracle(ops, basis, coupling, basis.Theta, tau,
                       zero if r is None else r)
        assert got.shape == want.shape
        assert got.format == "csc"
        assert got.has_canonical_format
        scale = np.abs(want).max()
        assert np.abs(got.toarray() - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("dimension,k", [(1, 1), (2, 2)])
def test_backward_operator_is_transpose_of_forward(dimension, k):
    ops = _ops(dimension, 2)
    basis = make_time_basis(k)
    reaction = _reaction(ops, basis, seed=3)
    fwd = ops.slab_operator(basis, basis.G, 0.2, reaction)
    bwd = ops.slab_operator(basis, basis.G.T, 0.2, reaction)
    scale = np.abs(fwd.data).max()
    assert np.abs(bwd.toarray() - fwd.T.toarray()).max() <= 1e-14 * scale


def test_calls_share_the_pattern_and_match_a_fresh_build():
    ops = _ops(2, 2)
    basis = make_time_basis(1)
    first = ops.slab_operator(basis, basis.G, 0.1, _reaction(ops, basis, seed=1))
    second = ops.slab_operator(basis, basis.G, 0.1, _reaction(ops, basis, seed=2))
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    assert not np.array_equal(first.data, second.data)
    fresh = SpaceOperators(ops.space)
    for seed, got in ((1, first), (2, second)):
        again = fresh.slab_operator(basis, basis.G, 0.1, _reaction(fresh, basis, seed=seed))
        np.testing.assert_array_equal(got.indices, again.indices)
        np.testing.assert_array_equal(got.indptr, again.indptr)
        np.testing.assert_array_equal(got.data, again.data)


def test_forms_share_one_pattern():
    ops = _ops(2, 2)
    weight = np.random.default_rng(4).standard_normal((ops.dets.size, ops.quad_weights.size))
    M, A, W = ops.mass(), ops.stiffness(), ops.weighted_mass(weight)
    for mat in (A, W):
        np.testing.assert_array_equal(mat.indices, M.indices)
        np.testing.assert_array_equal(mat.indptr, M.indptr)
    np.testing.assert_allclose(W.toarray(), _dense_weighted(ops, weight), atol=1e-15)


@pytest.mark.parametrize("dimension,k,l", [(1, 1, 2), (2, 2, 1)])
def test_batched_residual_equals_per_point_loop(dimension, k, l):
    ops = _ops(dimension, l)
    basis = make_time_basis(k)
    rng = np.random.default_rng(7)
    nf = ops.space.n_free
    tau, eps = 0.25, 0.3
    prev = rng.standard_normal(nf)
    floads = rng.standard_normal((basis.n_quad, nf))
    system = _SlabSystem(ops, basis, tau, eps, prev, floads)
    U = rng.standard_normal((k + 1, nf))

    M, A = ops.mass(), ops.stiffness()
    uq = basis.values @ U
    want = basis.G @ (M @ U.T).T + tau * (basis.Theta @ (A @ U.T).T)
    for q, wq in enumerate(basis.quad_weights):
        want += tau / eps**2 * wq * np.outer(basis.values[q], ops.cubic_load(uq[q]))
        want -= tau * wq * np.outer(basis.values[q], floads[q])
    want -= np.outer(basis.left_values, M @ prev)
    got = system.residual(U)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_jacobian_reuses_the_fields_of_the_last_residual(monkeypatch):
    # Newton assembles J at the iterate whose residual its line search has
    # just evaluated: the fields are evaluated once, and J is bit-identical
    ops = _ops(2, 2)
    basis = make_time_basis(2)
    rng = np.random.default_rng(8)
    prev = rng.standard_normal(ops.space.n_free)
    U = rng.standard_normal((3, ops.space.n_free))
    want = _SlabSystem(ops, basis, 0.25, 0.3, prev, None).jacobian(U.copy())
    calls = []
    eval_free = ops.eval_free
    monkeypatch.setattr(ops, "eval_free", lambda *a, **kw: calls.append(1) or eval_free(*a, **kw))
    system = _SlabSystem(ops, basis, 0.25, 0.3, prev, None)
    system.residual(U)
    got = system.jacobian(U)
    assert len(calls) == 1
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    system.jacobian(U.copy())  # another iterate, equal or not, is evaluated afresh
    assert len(calls) == 2


def test_factorize_checks_every_right_hand_side():
    n = 200
    A = sp.csr_array(tridiag_stiffness(n))
    solve = factorize(A, LinearSolveConfig(rel_tolerance=1e-12))
    rng = np.random.default_rng(2)
    for _ in range(3):
        b = rng.standard_normal(n - 1)
        np.testing.assert_allclose(A @ solve(b), b, atol=1e-9)
    assert np.all(solve(np.zeros(n - 1)) == 0.0)
    strict = factorize(A, LinearSolveConfig(rel_tolerance=1e-16))
    with pytest.raises(LinearSolveError) as excinfo:
        strict(np.ones(n - 1))
    assert 0.0 < excinfo.value.achieved_residual < 1e-10


@pytest.mark.parametrize("dimension,k,l", [(1, 1, 2), (2, 2, 2)])
def test_factorize_takes_the_csc_slab_operator_as_it_is(dimension, k, l):
    # the operator factored in CSC format as assembled and its CSR copy
    # give the same solves, from either kind of solve
    ops = _ops(dimension, l)
    basis = make_time_basis(k)
    reaction = _reaction(ops, basis, seed=9)
    K = ops.slab_operator(basis, basis.G, 0.2, reaction)
    near = ops.slab_operator(basis, basis.G, 0.2, 1.001 * reaction)
    b = np.random.default_rng(6).standard_normal(K.shape[0])
    from_csc, from_csr = factorize(K), factorize(K.tocsr())
    np.testing.assert_array_equal(from_csc(b), from_csr(b))
    corrected = from_csc(b, near)
    assert corrected is not None
    np.testing.assert_array_equal(corrected, from_csr(b, near))
    np.testing.assert_allclose(K @ from_csc(b), b, atol=1e-11 * np.abs(b).max())


def test_mass_solver_is_factored_once_per_config():
    ops = _ops(1, 2)
    cfg = LinearSolveConfig(rel_tolerance=1e-12)
    assert ops.mass_solver(cfg) is ops.mass_solver(LinearSolveConfig(rel_tolerance=1e-12))
    assert ops.mass_solver() is not ops.mass_solver(cfg)
    b = np.arange(1.0, ops.space.n_free + 1)
    np.testing.assert_allclose(ops.mass() @ ops.mass_solver(cfg)(b), b, rtol=1e-11)
