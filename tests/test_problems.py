"""The product-form manufactured solutions against their closed forms, and
the forcing loads built from them."""

import numpy as np
import pytest

from dgac import forward
from dgac.problems import MANUFACTURED

from _helpers import make_run, manufactured_forcing

PI = np.pi


def _expsine(t, x):
    e, sx, cx = np.exp(-t), np.sin(PI * x[..., 0]), np.cos(PI * x[..., 0])
    u = e * sx
    return {"value": u, "dt": -u, "grad": (PI * e * cx)[..., None],
            "laplacian": -(PI**2) * u}


def _expsine2d(t, x):
    e = np.exp(-t)
    sx, sy = np.sin(PI * x[..., 0]), np.sin(PI * x[..., 1])
    cx, cy = np.cos(PI * x[..., 0]), np.cos(PI * x[..., 1])
    u = e * sx * sy
    return {"value": u, "dt": -u,
            "grad": np.stack([PI * e * cx * sy, PI * e * sx * cy], axis=-1),
            "laplacian": -2.0 * PI**2 * u}


CLOSED_FORMS = {"expsine": _expsine, "expsine2d": _expsine2d}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_product_form_matches_closed_form(name):
    exact = MANUFACTURED[name]
    # interior points, away from the zeros of sin and cos
    x = np.random.default_rng(5).uniform(0.05, 0.45, size=(7, 3, exact.dimension))
    times = np.array([0.0, 0.3, 1.7])
    for t in times:
        want = CLOSED_FORMS[name](t, x)
        for key, ref in want.items():
            np.testing.assert_allclose(getattr(exact, key)(t, x), ref, rtol=1e-14, atol=0)
    for eps in (0.5, 0.1):
        run = make_run(dimension=exact.dimension, epsilon=eps, n=8, manufactured=name)
        want = run.ops.load(run.ops.time_fields(manufactured_forcing(exact, eps), times))
        got = forward.forcing_loads(run.problem, run.ops)(times)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
