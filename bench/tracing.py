"""Span tracer that wraps dgac's public functions from the outside.

Each target is wrapped under every name it is bound to: the defining
module, the package namespace and every module that imported it by name
(``cli`` holds its own ``solve_forward``, ``forward`` and ``companions``
hold their own ``solve_linear``).  Methods are wrapped on their class, which
every binding shares.  A target the program no longer defines is listed as
absent and its metrics read 0.

Spans are kept in memory as ``[name, parent, start, end, excluded, info]``.
A hook that inspects a call's result (residual recomputation, nnz) runs
after the span closes; its time is added to ``excluded`` of every open
ancestor so that it does not count as their work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time

import numpy as np

NAME, PARENT, START, END, EXCLUDED, INFO = range(6)


_signature = functools.cache(inspect.signature)


def _bound(fn, args, kwargs, name):
    try:
        return _signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


def _rel_residual(fn, args, kwargs, out):
    A = _bound(fn, args, kwargs, "A")
    b = _bound(fn, args, kwargs, "b")
    if A is None or b is None:
        return None
    b = np.asarray(b, dtype=float)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return 0.0
    return float(np.linalg.norm(b - A @ out)) / norm_b


def _eigen_info(fn, args, kwargs, out):
    return (int(getattr(out, "iterations", 0)),
            bool(getattr(out, "used_dense_fallback", False)))


def _nnz(fn, args, kwargs, out):
    return int(getattr(out, "nnz", 0))


def _has_reference(fn, args, kwargs, out):
    return _bound(fn, args, kwargs, "reference") is not None


def _slab_count(fn, args, kwargs, out):
    return len(getattr(out, "slabs", ()))


# span name -> (module, attribute path, hook)
TARGETS = {
    "linalg.solve_linear": ("dgac.linalg", "solve_linear", _rel_residual),
    "linalg.gmres": ("scipy.sparse.linalg", "gmres", None),
    "linalg.eigen": ("dgac.linalg", "smallest_generalized_eigenvalue", _eigen_info),
    "forward.solve_forward": ("dgac.forward", "solve_forward", _slab_count),
    "forward.solve_slab": ("dgac.forward", "solve_slab", None),
    "forward.save_checkpoint": ("dgac.forward", "save_checkpoint", None),
    "assembly.weighted_mass": ("dgac.assembly", "SpaceOperators.weighted_mass", _nnz),
    "assembly.cubic_load": ("dgac.assembly", "SpaceOperators.cubic_load", None),
    "assembly.load": ("dgac.assembly", "SpaceOperators.load", None),
    "assembly.eval_free": ("dgac.assembly", "SpaceOperators.eval_free", None),
    "companions.solve_backward_dual": ("dgac.companions", "solve_backward_dual", None),
    "companions.solve_backward_psi": ("dgac.companions", "solve_backward_psi", None),
    "companions.duality_identity_report": ("dgac.companions", "duality_identity_report", None),
    "companions.dual_stability_report": ("dgac.companions", "dual_stability_report", None),
    "companions.psi_chain_report": ("dgac.companions", "psi_chain_report", None),
    "companions.solve_parabolic_projection": ("dgac.companions", "solve_parabolic_projection", None),
    "companions.local_projection": ("dgac.companions", "local_projection", None),
    "companions.local_projection_slab": ("dgac.companions", "local_projection_slab", None),
    "diagnostics.compute_norms": ("dgac.diagnostics", "compute_norms", _has_reference),
    "diagnostics.best_approximation_ratio": ("dgac.diagnostics", "best_approximation_ratio", None),
    "diagnostics.stability_identity_report": ("dgac.diagnostics", "stability_identity_report", None),
    "diagnostics.energy_trace": ("dgac.diagnostics", "energy_trace", None),
    "diagnostics.spectrum_along_solution": ("dgac.diagnostics", "spectrum_along_solution", None),
    "config.instantiate": ("dgac.config", "instantiate", None),
}

LINALG = {"linalg.solve_linear", "linalg.gmres", "linalg.eigen"}
ASSEMBLY = {"assembly.weighted_mass", "assembly.cubic_load", "assembly.load", "assembly.eval_free"}


def dgac_modules():
    import dgac
    for info in pkgutil.iter_modules(dgac.__path__, "dgac."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dgac" or name.startswith("dgac."))]


def rebind(orig, replacement, modules) -> None:
    """Replace every module-level binding of ``orig`` in ``modules``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, replacement)


class Tracer:
    """Wraps the targets and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                t0 = clock()
                rec[INFO] = hook(fn, args, kwargs, out)
                spent = clock() - t0
                for i in stack:
                    spans[i][EXCLUDED] += spent
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets=TARGETS) -> None:
        modules = dgac_modules()
        for span, (modname, path, hook) in targets.items():
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn) or isinstance(fn, type):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, fn, hook)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            else:
                rebind(fn, wrapper, modules + [owner])


# ---------------------------------------------------------------------------
# per-layer metrics from a span list


def _duration(rec) -> float:
    return rec[END] - rec[START] - rec[EXCLUDED]


def _has_ancestor(spans, rec, names) -> bool:
    p = rec[PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def _nearest(spans, rec, names) -> int:
    p = rec[PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def _group_seconds(spans, names, select=None) -> float:
    """Time covered by spans of ``names``, nested ones counted once."""
    total = 0.0
    for rec in spans:
        if rec[NAME] in names and (select is None or select(rec)):
            if not _has_ancestor(spans, rec, names):
                total += _duration(rec)
    return total


def _quantile(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# every per-layer metric with its unit; "count" metrics must repeat exactly
UNITS = {
    "linalg.solve_linear.calls": "count", "linalg.solve_linear.s": "s",
    "linalg.rescue.calls": "count", "linalg.rescue.s": "s",
    "linalg.first_pass_ratio": "ratio", "linalg.rel_residual.max": "ratio",
    "linalg.eigen.calls": "count", "linalg.eigen.s": "s",
    "linalg.eigen.iterations": "count", "linalg.eigen.dense_fallbacks": "count",
    "forward.slabs": "count", "forward.newton_iters": "count",
    "forward.newton_iters_per_slab": "ratio", "forward.slab.p50_ms": "ms",
    "forward.slab.p90_ms": "ms", "forward.self_s": "s",
    "assembly.weighted_mass.calls": "count", "assembly.weighted_mass.s": "s",
    "assembly.weighted_mass.nnz": "count",
    "assembly.cubic_load.calls": "count", "assembly.cubic_load.s": "s",
    "assembly.load.calls": "count", "assembly.load.s": "s",
    "assembly.eval_free.calls": "count", "assembly.eval_free.s": "s",
    "companions.backward_dual.s": "s", "companions.backward_psi.s": "s",
    "companions.reports.s": "s", "companions.projections.s": "s",
    "diagnostics.norms.s": "s", "diagnostics.error_norms.s": "s",
    "diagnostics.identities.s": "s", "diagnostics.spectrum.s": "s",
    "config.instantiate.s": "s", "io.save_checkpoint.s": "s",
    "io.bytes_written": "bytes",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (io.bytes_written is added by the caller)."""
    by_name: dict[str, list] = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return _group_seconds(spans, {name})

    out: dict[str, float] = {}
    solve_ids = {i for i, rec in enumerate(spans) if rec[NAME] == "linalg.solve_linear"}
    rescued = {_nearest(spans, rec, {"linalg.solve_linear"})
               for rec in by_name.get("linalg.gmres", ())}
    residuals = [spans[i][INFO] for i in solve_ids if spans[i][INFO] is not None]
    eig = by_name.get("linalg.eigen", [])
    out["linalg.solve_linear.calls"] = len(solve_ids)
    out["linalg.solve_linear.s"] = seconds("linalg.solve_linear")
    out["linalg.rescue.calls"] = calls("linalg.gmres")
    out["linalg.rescue.s"] = seconds("linalg.gmres")
    out["linalg.first_pass_ratio"] = (
        len(solve_ids - rescued) / len(solve_ids) if solve_ids else 0.0)
    out["linalg.rel_residual.max"] = max(residuals, default=0.0)
    out["linalg.eigen.calls"] = len(eig)
    out["linalg.eigen.s"] = seconds("linalg.eigen")
    out["linalg.eigen.iterations"] = sum(rec[INFO][0] for rec in eig if rec[INFO])
    out["linalg.eigen.dense_fallbacks"] = sum(1 for rec in eig if rec[INFO] and rec[INFO][1])

    slab_ids = [i for i, rec in enumerate(spans) if rec[NAME] == "forward.solve_slab"]
    slab_ms = sorted(1e3 * _duration(spans[i]) for i in slab_ids)
    stop = LINALG | ASSEMBLY | {"forward.solve_slab"}
    covered = dict.fromkeys(slab_ids, 0.0)
    newton = 0
    for rec in spans:
        if rec[NAME] in LINALG or rec[NAME] in ASSEMBLY:
            p = _nearest(spans, rec, stop)
            if p in covered:
                covered[p] += _duration(rec)
                newton += rec[NAME] == "linalg.solve_linear"
    out["forward.slabs"] = len(slab_ids)
    out["forward.newton_iters"] = newton
    out["forward.newton_iters_per_slab"] = newton / len(slab_ids) if slab_ids else 0.0
    out["forward.slab.p50_ms"] = _quantile(slab_ms, 50)
    out["forward.slab.p90_ms"] = _quantile(slab_ms, 90)
    out["forward.self_s"] = sum(_duration(spans[i]) - covered[i] for i in slab_ids)

    for short in ("weighted_mass", "cubic_load", "load", "eval_free"):
        out[f"assembly.{short}.calls"] = calls(f"assembly.{short}")
        out[f"assembly.{short}.s"] = seconds(f"assembly.{short}")
    out["assembly.weighted_mass.nnz"] = sum(
        rec[INFO] or 0 for rec in by_name.get("assembly.weighted_mass", ()))

    out["companions.backward_dual.s"] = seconds("companions.solve_backward_dual")
    out["companions.backward_psi.s"] = seconds("companions.solve_backward_psi")
    out["companions.reports.s"] = _group_seconds(spans, {
        "companions.duality_identity_report", "companions.dual_stability_report",
        "companions.psi_chain_report"})
    out["companions.projections.s"] = _group_seconds(spans, {
        "companions.solve_parabolic_projection", "companions.local_projection",
        "companions.local_projection_slab"})

    out["diagnostics.norms.s"] = _group_seconds(
        spans, {"diagnostics.compute_norms"}, lambda rec: not rec[INFO])
    out["diagnostics.error_norms.s"] = _group_seconds(
        spans, {"diagnostics.compute_norms", "diagnostics.best_approximation_ratio"},
        lambda rec: rec[NAME] != "diagnostics.compute_norms" or bool(rec[INFO]))
    out["diagnostics.identities.s"] = _group_seconds(spans, {
        "diagnostics.stability_identity_report", "diagnostics.energy_trace"})
    out["diagnostics.spectrum.s"] = seconds("diagnostics.spectrum_along_solution")

    out["config.instantiate.s"] = seconds("config.instantiate")
    out["io.save_checkpoint.s"] = seconds("forward.save_checkpoint")
    return out
