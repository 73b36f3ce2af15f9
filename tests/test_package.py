"""The package namespace: an explicit, resolvable public API."""

import os
import subprocess
import sys
import types
from pathlib import Path

import dgac


def test_all_lists_resolvable_public_names():
    names = dgac.__all__
    assert len(names) == len(set(names))
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
