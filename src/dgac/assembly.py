"""Vectorized assembly of spatial forms over a finite element space.

All assembled operators act on free-dof vectors (Dirichlet rows and columns
eliminated symmetrically).  They share one CSR sparsity pattern, built once
per space, and every assembly is a bincount of element entries into its
data; the space-time slab operators reuse it through a cached kron pattern.
The default quadrature integrates degree 4*l exactly so that cubic-in-u
loads and quartic energy densities are exact for P1 and P2; pass a higher
exact_degree for smooth-data integrals.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .linalg import LinearSolveConfig, factorize
from .space import FeSpace, interval_rule, triangle_rule


class SpaceOperators:
    """Precomputed quadrature tables and assembled forms for one space.

    Parameters
    ----------
    space : FeSpace
    exact_degree : int, optional
        Polynomial degree the element quadrature integrates exactly.
        Defaults to 4*degree, the minimum for exact cubic nonlinearity
        and quartic potential terms.
    """

    def __init__(self, space: FeSpace, exact_degree: int | None = None):
        self.space = space
        mesh = space.mesh
        l = space.degree
        self.exact_degree = 4 * l if exact_degree is None else int(exact_degree)
        if self.exact_degree < 4 * l:
            raise ValueError(
                f"spatial quadrature must integrate degree {4 * l} exactly, "
                f"requested {self.exact_degree}"
            )

        if mesh.dimension == 1:
            pts, wts = interval_rule(self.exact_degree)
        else:
            pts, wts = triangle_rule(self.exact_degree)
        self.quad_points = pts          # reference coords, (nq, dim)
        self.quad_weights = wts         # (nq,)
        ref = space.reference
        self.basis_values = ref.values(pts)        # (nq, ldof)
        # w_q phi_a phi_b at each quadrature point, (nq, ldof * ldof)
        self._basis_pairs = (wts[:, None, None] * self.basis_values[:, :, None]
                             * self.basis_values[:, None, :]).reshape(len(wts), -1)
        grad_ref = ref.gradients(pts)              # (nq, ldof, dim)

        # affine element map x = v_0 + B x_hat, B with columns v_i - v_0, (ne, dim, dim)
        verts = mesh.vertices[mesh.elements]       # (ne, dim+1, dim)
        v0 = verts[:, 0, :]
        b = np.swapaxes(verts[:, 1:, :] - v0[:, None, :], 1, 2)
        # |det B| as ad - bc of diag(B, I), exact in 1d: np.linalg.det goes
        # through exp(log|det|) and rounds even a 1 x 1 determinant
        c = np.tile(np.eye(2), (b.shape[0], 1, 1))
        c[:, :b.shape[1], :b.shape[1]] = b
        self.dets = np.abs(c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0])
        inv = np.linalg.inv(b)
        # Defect kept for the recorded 2d results (see ROADMAP): the points sit
        # at v_0 + B^T x_hat, which in 2d mirrors each into the sibling triangle.
        self.phys_points = v0[:, None, :] + pts @ b
        # grad_x phi = B^{-T} grad_ref phi, written in place into one table
        # (ne, ldof, nq, dim) so that eval_grad_free is one GEMV per element;
        # grad_phys is its (ne, nq, ldof, dim) view.  Both maps are batched
        # matmuls, not einsums: 0.5 ms against 25 ms for the elevated rule
        # on 2d P2 16^2, with bit-identical tables.
        ne, ldof = self.dets.size, grad_ref.shape[1]
        self._grad_table = np.empty((ne, ldof) + pts.shape)
        np.matmul(grad_ref.transpose(1, 0, 2).reshape(-1, pts.shape[1]), inv,
                  out=self._grad_table.reshape(ne, -1, pts.shape[1]))
        self.grad_phys = self._grad_table.transpose(0, 2, 1, 3)

        # Fixed free-dof CSR pattern shared by M, A and every W(.): each
        # element entry (e, a, b) has a slot in the pattern's data, or the
        # dropped slot nnz when either dof is constrained.
        nf = space.n_free
        local = space.full_to_free[space.element_dofs]          # (ne, ldof)
        rows = np.broadcast_to(local[:, :, None], local.shape + local.shape[1:]).ravel()
        cols = np.broadcast_to(local[:, None, :], local.shape + local.shape[1:]).ravel()
        keep = (rows >= 0) & (cols >= 0)
        keys, inverse = np.unique(rows[keep] * nf + cols[keep], return_inverse=True)
        self._nnz = keys.size
        self._indices = (keys % nf).astype(np.int32)
        self._indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // nf, minlength=nf))]).astype(np.int32)
        self._indices.flags.writeable = self._indptr.flags.writeable = False  # shared
        self._matrix_slot = np.full(rows.size, self._nnz, dtype=np.int64)
        self._matrix_slot[keep] = inverse
        self._load_slot = np.where(local >= 0, local, nf).ravel()
        self._slab_patterns: dict[int, tuple] = {}
        self._mass = None
        self._stiffness = None
        self._mass_solvers: dict[LinearSolveConfig, object] = {}

    # -- element-array helpers ------------------------------------------------

    def _csr(self, data: np.ndarray) -> sp.csr_array:
        n = self.space.n_free
        return sp.csr_array((data, self._indices, self._indptr), shape=(n, n))

    def _assemble(self, local: np.ndarray) -> np.ndarray:
        """Sum element blocks (..., ne, ldof, ldof) into pattern data (..., nnz)."""
        return _bin_sum(self._matrix_slot, self._nnz, local.reshape(local.shape[:-3] + (-1,)))

    def _gather_load(self, local: np.ndarray) -> np.ndarray:
        """Sum element loads (..., ne, ldof) into free-dof vectors (..., n_free)."""
        return _bin_sum(self._load_slot, self.space.n_free, local.reshape(local.shape[:-2] + (-1,)))

    # -- evaluation -----------------------------------------------------------

    def eval_free(self, u_free: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values of free-dof functions (..., n_free) at all quadrature points,
        (..., ne, nq), written into the C-contiguous array out when given."""
        nodal = self.space.scatter(u_free)[..., self.space.element_dofs]   # (..., ne, ldof)
        return np.matmul(nodal, self.basis_values.T, out=out)

    def eval_grad_free(self, u_free: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradients of free-dof functions (..., n_free) at all quadrature
        points, (..., ne, nq, dim), written into the C-contiguous array out
        when given."""
        nodal = self.space.scatter(u_free)[..., self.space.element_dofs]   # (..., ne, ldof)
        ne, ldof, nq, dim = self._grad_table.shape
        flat = None if out is None else out.reshape(nodal.shape[:-1] + (1, nq * dim))
        grads = np.matmul(nodal[..., None, :], self._grad_table.reshape(ne, ldof, nq * dim),
                          out=flat)
        return grads.reshape(nodal.shape[:-1] + (nq, dim))

    def integrate(self, values: np.ndarray):
        """Integrate quadrature-point fields (..., ne, nq) over the domain; a
        single field gives a scalar."""
        return (values @ self.quad_weights) @ self.dets

    def evaluate_function(self, f) -> np.ndarray:
        """Evaluate a spatial callable f(x) at the quadrature points, (ne, nq)."""
        return np.asarray(f(self.phys_points), dtype=float)

    def time_fields(self, g, times) -> np.ndarray:
        """Values of a callable g(t, x) at the quadrature points for each time,
        (nt, ne, nq[, dim]).  g is called once per time, so it need not
        broadcast in t."""
        return np.stack([np.asarray(g(t, self.phys_points), dtype=float) for t in times])

    # -- assembled forms --------------------------------------------------------

    def mass(self) -> sp.csr_array:
        """Mass matrix (phi_b, phi_a) on free dofs."""
        if self._mass is None:
            ones = np.ones((self.dets.size, self.quad_weights.size))
            self._mass = self._csr(self._assemble(self._weighted_local(ones)))
        return self._mass

    def stiffness(self) -> sp.csr_array:
        """Stiffness matrix (grad phi_b, grad phi_a) on free dofs."""
        if self._stiffness is None:
            kloc = np.einsum(
                "q,eqad,eqbd->eab", self.quad_weights, self.grad_phys, self.grad_phys
            )
            self._stiffness = self._csr(self._assemble(self.dets[:, None, None] * kloc))
        return self._stiffness

    def weighted_mass(self, weight_values: np.ndarray) -> sp.csr_array:
        """Mass matrix weighted by a quadrature-point field (ne, nq)."""
        return self._csr(self._assemble(self._weighted_local(weight_values)))

    def _weighted_local(self, weight_values: np.ndarray) -> np.ndarray:
        """Element blocks of W(r) for fields (..., ne, nq), (..., ne, ldof, ldof)."""
        loc = (self.dets[:, None] * weight_values) @ self._basis_pairs
        ldof = self.basis_values.shape[1]
        return loc.reshape(loc.shape[:-1] + (ldof, ldof))

    def mass_solver(self, config: LinearSolveConfig | None = None):
        """Solve callable for M x = b; M is factored once per config."""
        cfg = config or LinearSolveConfig()
        if cfg not in self._mass_solvers:
            self._mass_solvers[cfg] = factorize(self.mass(), cfg)
        return self._mass_solvers[cfg]

    def slab_operator(self, basis, coupling, tau, reaction=None) -> sp.csr_array:
        """Space-time slab matrix on the fixed kron pattern.

        Returns kron(coupling, M) + tau kron(Theta, A)
        + tau sum_q w_q kron(chi(t_q) chi(t_q)^T, W(r_q)), where coupling is
        basis.G (forward) or its transpose (backward), Theta is basis.Theta
        and reaction holds the fields r_q at the time quadrature points of
        basis, (nq_t, ne, nq), or is None.
        """
        m = basis.k + 1
        indices, indptr, perm = self._slab_pattern(m)
        blocks = (coupling[:, :, None] * self.mass().data
                  + tau * basis.Theta[:, :, None] * self.stiffness().data)
        if reaction is not None:
            c = tau * np.einsum("q,qi,qj->ijq", basis.quad_weights, basis.values, basis.values)
            fields = np.einsum("ijq,qes->ijes", c, reaction)
            blocks += self._assemble(self._weighted_local(fields))
        n = m * self.space.n_free
        return sp.csr_array((blocks.ravel()[perm], indices, indptr), shape=(n, n))

    def _slab_pattern(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR indices and indptr of kron(ones((m, m)), pattern) and the
        permutation taking block data (m, m, nnz) to CSR order."""
        if m not in self._slab_patterns:
            nf, nnz = self.space.n_free, self._nnz
            row_len = np.diff(self._indptr)
            row_of = np.repeat(np.arange(nf), row_len)
            i, j, p = (a.ravel() for a in np.meshgrid(
                np.arange(m), np.arange(m), np.arange(nnz), indexing="ij"))
            perm = np.lexsort((p, j, row_of[p], i))
            indices = (j * nf + self._indices[p])[perm].astype(np.int32)
            indptr = np.concatenate([[0], np.cumsum(np.tile(m * row_len, m))]).astype(np.int32)
            for a in (indices, indptr, perm):
                a.flags.writeable = False
            self._slab_patterns[m] = (indices, indptr, perm)
        return self._slab_patterns[m]

    def load(self, g) -> np.ndarray:
        """Load vector (g, phi_a); g is a callable of x or a (..., ne, nq) field."""
        vals = g if isinstance(g, np.ndarray) else self.evaluate_function(g)
        loc = (self.dets[:, None] * vals) @ (self.quad_weights[:, None] * self.basis_values)
        return self._gather_load(loc)

    def cubic_load(self, u_free: np.ndarray) -> np.ndarray:
        """Nonlinear load (u^3 - u, phi_a) for free-dof functions u (..., n_free)."""
        vals = self.eval_free(u_free)
        return self.load(vals**3 - vals)

    def gradient_load(self, g) -> np.ndarray:
        """Load vector (g, grad phi_a) for a vector field g.

        g is a callable of x returning shape (..., dim), or a (..., ne, nq, dim)
        array of values at the quadrature points.
        """
        vals = g if isinstance(g, np.ndarray) else np.asarray(g(self.phys_points), dtype=float)
        loc = np.einsum("q,...eqd,eqad->...ea", self.quad_weights, vals, self.grad_phys)
        return self._gather_load(self.dets[:, None] * loc)


def quadratic_forms(K, rows: np.ndarray) -> np.ndarray:
    """v^T K v for every row v of rows (r, n), (r,)."""
    return np.einsum("ra,ra->r", rows, (K @ rows.T).T)


def _bin_sum(slots: np.ndarray, n_bins: int, values: np.ndarray) -> np.ndarray:
    """Sum values (..., slots.size) into n_bins bins by slot, per leading index.

    Slot n_bins collects entries that belong to no bin and is dropped.
    """
    lead = values.shape[:-1]
    count = int(np.prod(lead))
    width = n_bins + 1
    flat = (slots + width * np.arange(count)[:, None]).ravel()
    out = np.bincount(flat, weights=values.ravel(), minlength=count * width)
    return out.reshape(lead + (width,))[..., :n_bins]
