"""The package namespace: an explicit, resolvable public API, and source
guards on the kernels that run at every Newton step."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import dgac
from dgac.assembly import SpaceOperators
from dgac.diagnostics import _self_norms
from dgac.forward import _SlabSystem


# The public API, pinned: widening it means editing this list.
PUBLIC_NAMES = [
    "CharacteristicPoly", "ConfigError", "DgSolution", "EigenResult",
    "FeSpace", "IdentityReport", "InitialProfile", "LinearSolveConfig",
    "LinearSolveError", "MANUFACTURED", "ManufacturedSolution", "Mesh",
    "NewtonConfig", "NewtonError", "NormReport", "PROFILES", "ProblemSpec",
    "RatioReport", "RunConfig", "SlabSolution", "SpaceOperators",
    "SpectrumTrace", "TimeBasis", "TimePartition",
    "UnsupportedConfigurationError", "best_approximation_ratio",
    "build_interval_mesh", "build_space", "build_square_mesh",
    "characteristic_transfer_matrix", "compute_norms",
    "config_hash", "discrete_characteristic", "dual_stability_report",
    "duality_identity_report", "energy_trace", "factorize", "instantiate",
    "l2_project", "load_checkpoint", "load_config", "local_projection",
    "make_problem", "make_time_basis", "parse_config", "psi_chain_report",
    "save_checkpoint", "smallest_generalized_eigenvalue",
    "solve_backward_dual", "solve_backward_psi", "solve_forward",
    "solve_parabolic_projection", "solve_slab", "spectrum_along_solution",
    "stability_identity_report", "sup_norm_scan",
]


def test_all_lists_resolvable_public_names():
    names = dgac.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == PUBLIC_NAMES
    for name in names:
        assert not name.startswith("_")
        obj = getattr(dgac, name)
        assert not isinstance(obj, types.ModuleType), name


def test_import_does_not_load_scipy_special():
    # scipy is used for sparse linear algebra only; the quadrature rules
    # come from numpy, so importing the package must not pull in
    # scipy.special (megabytes of memory and tens of milliseconds).
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c",
                    "import dgac, sys; assert 'scipy.special' not in sys.modules"],
                   env=env, check=True)


@pytest.mark.parametrize("kernel", [_SlabSystem.residual, SpaceOperators.cubic_load,
                                    _self_norms], ids=lambda f: f.__qualname__)
def test_kernels_take_no_integer_power_above_two(kernel):
    # numpy has fast paths for x**2 but computes x**3 and x**4 through libm
    # pow, about 40 times slower than products; these kernels run at every
    # Newton step or on every slab, so they write powers as products.
    tree = ast.parse(textwrap.dedent(inspect.getsource(kernel)))
    powers = [node for node in ast.walk(tree)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.Constant) and type(node.right.value) is int
              and node.right.value >= 3]
    assert not powers, [ast.unparse(node) for node in powers]
