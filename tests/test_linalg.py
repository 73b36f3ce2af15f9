"""The sparse LU solve with its residual contract, and the generalized
eigenvalue driver."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dgac import (
    LinearSolveConfig,
    LinearSolveError,
    SpaceOperators,
    build_interval_mesh,
    build_space,
    build_square_mesh,
    factorize,
    make_time_basis,
    smallest_generalized_eigenvalue,
)

from _helpers import tridiag_stiffness


def _ops(n, l=1, dim=1):
    mesh = build_interval_mesh(n) if dim == 1 else build_square_mesh(n)
    return SpaceOperators(build_space(mesh, l))


# ---------------------------------------------------------------------------
# sparse LU solve


def test_config_validation():
    with pytest.raises(ValueError):
        LinearSolveConfig(rel_tolerance=0.0)
    with pytest.raises(TypeError):
        LinearSolveConfig(method="dense_lu")


# The system classes the removed methods were chosen for, keyed by the old
# method name: each now goes through the one sparse LU path.
_SYSTEMS = {
    "conjugate_gradient": sp.csr_array(np.array([[4.0, 1.0], [1.0, 3.0]])),
    "bicgstab": sp.csr_array(np.array([[4.0, 1.0], [2.0, 3.0]])),
    "dense_lu": np.array([[4.0, 1.0], [1.0, 3.0]]),
}


@pytest.mark.parametrize("method", list(_SYSTEMS))
def test_simple_system_all_methods(method):
    A = _SYSTEMS[method]
    b = np.array([1.0, 2.0])
    x = factorize(A)(b)
    np.testing.assert_allclose(A @ x, b, atol=1e-10)


@pytest.mark.parametrize("method", list(_SYSTEMS))
def test_zero_rhs_short_circuits(method):
    x = factorize(_SYSTEMS[method])(np.zeros(2))
    assert np.all(x == 0.0)


def test_stiffness_solve_matches_dense():
    n = 48
    A = sp.csr_array(tridiag_stiffness(n))
    rng = np.random.default_rng(11)
    b = rng.standard_normal(n - 1)
    x_direct = np.linalg.solve(tridiag_stiffness(n), b)
    x = factorize(A, LinearSolveConfig(rel_tolerance=1e-13))(b)
    np.testing.assert_allclose(x, x_direct, atol=1e-12 * np.abs(x_direct).max())


def test_random_spd_systems_agree_with_dense():
    rng = np.random.default_rng(5)
    for m in (20, 81, 150):
        B = rng.standard_normal((m, m))
        A = B @ B.T + m * np.eye(m)
        b = rng.standard_normal(m)
        x_ref = np.linalg.solve(A, b)
        x = factorize(sp.csr_array(A), LinearSolveConfig(rel_tolerance=1e-13))(b)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_unreachable_tolerance_raises_with_achieved_residual():
    n = 200
    A = sp.csr_array(tridiag_stiffness(n))
    b = np.ones(n - 1)
    cfg = LinearSolveConfig(rel_tolerance=1e-16)
    with pytest.raises(LinearSolveError) as excinfo:
        factorize(A, cfg)(b)
    err = excinfo.value
    assert "did not reach" in str(err)
    assert err.achieved_residual is not None
    # the solver got close to machine precision before giving up
    assert 0.0 < err.achieved_residual < 1e-10


def test_zero_diagonal_nonsingular_system_solves_exactly():
    A = sp.csr_array(np.array([[0.0, 1.0], [1.0, 1.0]]))
    x = factorize(A)(np.array([1.0, 1.0]))
    np.testing.assert_array_equal(x, [0.0, 1.0])


@pytest.mark.parametrize("n_per_side", [4, 16])
def test_slab_systems_on_both_sides_of_the_ordering_switch(n_per_side):
    # 2d P2 slab operators with 98 and 1922 unknowns: below and above the
    # size from which factorize orders by minimum degree on A^T + A
    ops = _ops(n_per_side, l=2, dim=2)
    basis = make_time_basis(1)
    reaction = np.random.default_rng(2).uniform(-4.0, 8.0, (basis.n_quad,) + ops.dets.shape
                                                 + ops.quad_weights.shape)
    J = ops.slab_operator(basis, basis.G, 0.05, reaction)
    b = np.random.default_rng(3).standard_normal(J.shape[0])
    x = factorize(J, LinearSolveConfig(rel_tolerance=1e-13))(b)
    x_ref = spla.spsolve(sp.csc_array(J), b)
    assert np.linalg.norm(x - x_ref) <= 1e-11 * np.linalg.norm(x_ref)


def test_singular_system_raises():
    A = sp.csr_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(LinearSolveError, match="singular"):
        factorize(A)(np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# smallest generalized eigenvalue


def test_laplace_eigenvalue_interval():
    ops = _ops(64)
    res = smallest_generalized_eigenvalue(ops.stiffness(), ops.mass(), shift=-1.0)
    assert res.value == pytest.approx(np.pi**2, rel=1e-2)
    assert not res.used_dense_fallback
    # the reported value is the Rayleigh quotient of the returned vector
    A, M = ops.stiffness(), ops.mass()
    rq = (res.vector @ (A @ res.vector)) / (res.vector @ (M @ res.vector))
    assert res.value == pytest.approx(rq, abs=1e-10)
    assert res.residual <= 1e-8


def test_shifted_form_and_explicit_shift():
    ops = _ops(64)
    A = ops.stiffness() - ops.mass()
    res = smallest_generalized_eigenvalue(A, ops.mass(), shift=-2.0)
    assert res.value == pytest.approx(np.pi**2 - 1.0, rel=1e-2)
    res2 = smallest_generalized_eigenvalue(A, ops.mass(), shift=2.0)
    assert res2.value == pytest.approx(res.value, abs=1e-8)


def test_laplace_eigenvalue_square():
    ops = _ops(8, dim=2)
    res = smallest_generalized_eigenvalue(ops.stiffness(), ops.mass(), shift=-1.0)
    # discrete value on this mesh, frozen from a dense eigensolve below
    dense = scipy.linalg.eigh(ops.stiffness().toarray(), ops.mass().toarray(),
                              eigvals_only=True)[0]
    assert res.value == pytest.approx(dense, rel=1e-8)
    assert res.value == pytest.approx(2.0 * np.pi**2, rel=5e-2)


def test_eigen_single_unknown_and_singular_shift():
    A, M = sp.csr_array([[6.0]]), sp.csr_array([[2.0]])
    res = smallest_generalized_eigenvalue(A, M, shift=0.0)
    assert res.value == pytest.approx(3.0, rel=1e-15)
    assert res.residual <= 1e-15 and not res.used_dense_fallback
    # a shift on the eigenvalue makes A - shift*M singular: no fallback
    with pytest.raises(LinearSolveError, match="shifted factorization failed"):
        smallest_generalized_eigenvalue(A, M, shift=3.0)


def test_eigen_rejects_shift_above_smallest_eigenvalue():
    # 1d P1 Laplacian: eigenvalues about pi^2 and 4 pi^2; shift 30 lies
    # between them and would otherwise report the second as the smallest
    ops = _ops(64)
    with pytest.raises(LinearSolveError,
                       match="shift 30 is not below the smallest eigenvalue: 1 eigenvalue"):
        smallest_generalized_eigenvalue(ops.stiffness(), ops.mass(), shift=30.0)
    with pytest.raises(LinearSolveError, match="3 eigenvalue"):
        smallest_generalized_eigenvalue(ops.stiffness(), ops.mass(), shift=100.0)
    # a zero diagonal forces an off-diagonal pivot: the inertia is unknown
    A, M = sp.csr_array([[0.0, 1.0], [1.0, 0.0]]), sp.csr_array(np.eye(2))
    with pytest.raises(LinearSolveError, match="pivoted off the diagonal"):
        smallest_generalized_eigenvalue(A, M, shift=0.0)
    assert smallest_generalized_eigenvalue(A, M, shift=-2.0).value == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# defect correction with a carried factorization


def _slab_system(dim, scale):
    """A 2d P2 (98 unknowns) or 1d P1 slab operator with a random reaction
    times scale, its reaction-free counterpart and a right-hand side."""
    ops = _ops(4, l=2, dim=2) if dim == 2 else _ops(32)
    basis = make_time_basis(1)
    rng = np.random.default_rng(7)
    reaction = scale * rng.uniform(-1.0, 8.0, (basis.n_quad,) + ops.dets.shape
                                   + ops.quad_weights.shape)
    K = ops.slab_operator(basis, basis.G.T, 0.1, reaction)
    return K, ops.slab_operator(basis, basis.G.T, 0.1), rng.standard_normal(K.shape[0])


@pytest.mark.parametrize("dim", [1, 2])
def test_carried_factorization_solves_a_nearby_system(dim):
    K, _, b = _slab_system(dim, 1.0)
    P, _, _ = _slab_system(dim, 1.05)  # the reaction 5% off
    cfg = LinearSolveConfig(rel_tolerance=1e-13)
    x = factorize(P, cfg)(b, K)
    assert x is not None
    assert np.linalg.norm(b - K @ x) <= 1e-13 * np.linalg.norm(b)
    x_ref = spla.spsolve(sp.csc_array(K), b)
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    # the exact factorization, refined, meets the same contract
    x = factorize(K, cfg)(b, K)
    assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("far_off", ["negated", "without-reaction"])
def test_far_off_factorization_is_stale(dim, far_off):
    K, bare, b = _slab_system(dim, 100.0)
    P = -K if far_off == "negated" else bare
    cfg = LinearSolveConfig()
    x = factorize(P, cfg)(b, K)
    # reported stale, never a result that misses the contract
    assert x is None or np.linalg.norm(b - K @ x) <= cfg.rel_tolerance * np.linalg.norm(b)
    if far_off == "negated":  # the first sweep doubles the residual
        assert x is None


def test_carried_factorization_of_a_non_finite_system_is_stale():
    K, _, b = _slab_system(1, 1.0)
    solve = factorize(K)
    K = K.copy()
    K.data[0] = np.nan
    assert solve(b, K) is None
    assert np.all(solve(np.zeros_like(b), K) == 0.0)


def test_carried_factorization_stops_at_an_exact_solution():
    # the first sweep solves the diagonal system exactly: a zero residual
    # ends the sweeps rather than "halving" forever
    D = sp.diags_array([2.0, 4.0, 8.0]).tocsc()
    b = np.array([1.0, -2.0, 4.0])
    np.testing.assert_array_equal(factorize(D)(b, D), [0.5, -0.5, 0.5])
    # D itself is solved directly; its CSR copy is not the factored matrix
    # and goes through the sweeps
    np.testing.assert_array_equal(factorize(D)(b, D.tocsr()), [0.5, -0.5, 0.5])


@pytest.mark.parametrize("dim", [1, 2])
def test_factored_matrix_is_solved_directly(dim, monkeypatch):
    K, _, b = _slab_system(dim, 1.0)
    lu_solves = []

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            lu_solves.append(1)
            return self.lu.solve(rhs)

    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kw: CountingLU(splu(*args, **kw)))
    solve = factorize(K)
    x = solve(b)
    # an equal copy (same shape, CSC pattern and values): one LU solve, same bits
    y = solve(b, K.copy())
    assert len(lu_solves) == 2
    np.testing.assert_array_equal(y, x)
    # one value changed in the last bit is another matrix: defect correction
    K_near = K.copy()
    K_near.data[0] = np.nextafter(K_near.data[0], np.inf)
    assert solve(b, K_near) is not None
    assert len(lu_solves) >= 4
