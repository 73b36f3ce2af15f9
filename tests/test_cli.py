"""Configuration parsing, hashing, and the command line subcommands."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from dgac import (
    ConfigError,
    SpaceOperators,
    config_hash,
    instantiate,
    load_checkpoint,
    load_config,
    local_projection,
    make_time_basis,
    parse_config,
)

from dgac.cli import EXIT_SOLVER

from _helpers import run_cli


def _base_doc(tmp_path, run_id="t1", **overrides):
    doc = {
        "mesh": {"n": 8},
        "time": {"T": 0.25, "N_slabs": 2, "k": 1},
        "epsilon": 0.5,
        "problem": {"manufactured": "expsine"},
        "output": {"directory": str(tmp_path / "out"), "run_id": run_id},
    }
    doc.update(overrides)
    return doc


def _write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _json_line(text):
    for line in text.splitlines():
        if line.startswith("{"):
            return json.loads(line)
    raise AssertionError(f"no JSON line in output:\n{text}")


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults():
    cfg = parse_config({"problem": {"manufactured": "expsine"}})
    assert cfg.dimension == 1
    assert cfg.mesh.n == 32 and cfg.mesh.n_per_side is None
    assert cfg.time.T == 1.0 and cfg.time.N_slabs == 8 and cfg.time.k == 1
    assert cfg.space.degree_l == 1
    assert cfg.epsilon == 0.5
    assert cfg.solver.linear.rel_tolerance == 1e-11
    assert cfg.solver.newton_abs_tol == 1e-12
    assert cfg.solver.newton_rel_tol == 1e-12
    assert cfg.solver.max_iter == 30
    assert cfg.quadrature.time_points is None
    assert cfg.quadrature.space_order is None
    assert cfg.quadrature.allow_inexact is False
    assert cfg.output.directory == "runs" and cfg.output.run_id == "run"


def test_parse_config_2d_defaults():
    cfg = parse_config({"dimension": 2, "problem": {"manufactured": "expsine2d"}})
    assert cfg.mesh.n_per_side == 16 and cfg.mesh.n is None


# Ill-typed values: each is rejected, not coerced, and the message names its
# path.  Coercion would run k 1.7 as k=1 under the default hash and read
# allow_inexact "false" as true.
_ILL_TYPED = [
    ({"time": {"k": 1.7}}, r"'time\.k' must be an integer, got 1\.7"),
    ({"time": {"N_slabs": 8.9}}, r"'time\.N_slabs' must be an integer, got 8\.9"),
    ({"quadrature": {"allow_inexact": "false"}},
     r"'quadrature\.allow_inexact' must be a boolean, got 'false'"),
    ({"epsilon": "0.5"}, r"'epsilon' must be a number, got '0\.5'"),
    ({"epsilon": float("inf")}, r"'epsilon' must be finite, got inf"),
    ({"epsilon": 10**400}, r"'epsilon' must be finite, got inf"),
    ({"mesh": {"n": True}}, r"'mesh\.n' must be an integer, got True"),
    ({"mesh": {"n": 2.5}}, r"'mesh\.n' must be an integer, got 2\.5"),
    ({"dimension": 1.0}, r"'dimension' must be an integer, got 1\.0"),
    ({"dimension": True}, r"'dimension' must be an integer, got True"),
    ({"output": {"directory": None}}, r"'output\.directory' must be a string, got None"),
    ({"solver": {"max_iter": 3.5}}, r"'solver\.max_iter' must be an integer, got 3\.5"),
    ({"solver": {"linear": {"rel_tolerance": "1e-11"}}},
     r"'solver\.linear\.rel_tolerance' must be a number, got '1e-11'"),
]


# Well-typed documents that the constructors cannot build, one or more of each
# kind, as overrides of _base_doc: a problem of the other dimension, an
# element degree above 2, too few time points, too low a spatial order, and
# a final time so small that the slab ends of a uniform partition coincide.
_UNBUILDABLE = [
    ({"dimension": 2, "mesh": {"n_per_side": 2}}, r"'expsine' is 1d but config says 2d"),
    ({"problem": {"initial_profile": "zero2d"}}, r"'zero2d' is 2d but config says 1d"),
    ({"space": {"degree_l": 3}}, r"degree must be 1 or 2, got 3"),
    ({"quadrature": {"time_points": 3}},
     r"time quadrature with 3 points is not exact to degree 6"),
    ({"space": {"degree_l": 2}, "quadrature": {"space_order": 7}},
     r"must integrate degree 8 exactly, requested 7"),
    ({"time": {"T": 5e-323, "N_slabs": 100}}, r"partition points must be strictly increasing"),
]


@pytest.mark.parametrize("doc, match", [
    ({"problem": {"manufactured": "expsine"}, "solver": {"linear": {"xyz": 1}}},
     r"unknown field 'solver\.linear\.xyz'"),
    ({"bogus": 1, "problem": {"manufactured": "expsine"}}, "unknown field 'bogus'"),
    ({}, "exactly one of"),
    ({"problem": {"manufactured": "expsine", "initial_profile": "zero"}},
     "exactly one of"),
    ({"problem": {"manufactured": "nope"}}, "unknown manufactured"),
    ({"problem": {"initial_profile": "nope"}}, "unknown initial profile"),
    ({"problem": {"manufactured": "expsine"}, "mesh": {"n_per_side": 4}},
     "2-d field"),
    ({"dimension": 2, "problem": {"manufactured": "expsine2d"},
      "mesh": {"n": 4}}, "1-d field"),
    ({"dimension": 3, "problem": {"manufactured": "expsine"}}, "must be 1 or 2"),
    ({"problem": {"manufactured": "expsine"}, "time": {"k": -1}}, "must be >= 0"),
    ({"problem": {"manufactured": "expsine"}, "epsilon": 0.0}, "must be positive"),
    ({"problem": {"manufactured": "expsine"}, "time": {"T": -1.0}},
     "must be positive"),
    ({"problem": {"manufactured": "expsine"}, "space": {"degree_l": 0}},
     "must be positive"),
    ({"problem": {"manufactured": "expsine"},
      "solver": {"linear": {"method": "dense_lu"}}},
     r"unknown field 'solver\.linear\.method'"),
    ({"problem": {"manufactured": "expsine"}, "mesh": 7},
     "field 'mesh' must be an object"),
] + [(dict({"problem": {"manufactured": "expsine"}}, **bad), match)
     for bad, match in _ILL_TYPED + _UNBUILDABLE])
def test_parse_config_rejects(doc, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(doc)


def test_parse_config_rejects_non_object():
    with pytest.raises(ConfigError, match="root must be a JSON object"):
        parse_config([1, 2, 3])


def test_config_hash_is_canonical():
    doc_a = {"epsilon": 0.25, "problem": {"manufactured": "expsine"},
             "mesh": {"n": 16}}
    doc_b = {"mesh": {"n": 16}, "problem": {"manufactured": "expsine"},
             "epsilon": 0.25}
    h_a = config_hash(parse_config(doc_a))
    h_b = config_hash(parse_config(doc_b))
    assert h_a == h_b
    assert len(h_a) == 12 and all(c in "0123456789abcdef" for c in h_a)
    doc_c = dict(doc_a, epsilon=0.3)
    assert config_hash(parse_config(doc_c)) != h_a


_INSTANTIATE_DOC = {"mesh": {"n": 8}, "time": {"T": 0.5, "N_slabs": 4, "k": 2},
                    "space": {"degree_l": 2}, "epsilon": 0.3,
                    "problem": {"manufactured": "expsine"},
                    "solver": {"newton_abs_tol": 1e-10, "max_iter": 12,
                               "linear": {"rel_tolerance": 1e-12}}}


# config_hash values recorded before the schema was derived from the
# dataclasses; every valid config keeps its hash.
@pytest.mark.parametrize("doc, expected", [
    ({"problem": {"manufactured": "expsine"}}, "558fee59051b"),
    # the README example
    ({"dimension": 1, "mesh": {"n": 64}, "time": {"T": 1.0, "N_slabs": 8, "k": 1},
      "space": {"degree_l": 1}, "epsilon": 0.5, "problem": {"manufactured": "expsine"},
      "solver": {"newton_abs_tol": 1e-12, "newton_rel_tol": 1e-12, "max_iter": 30,
                 "linear": {"rel_tolerance": 1e-11}},
      "quadrature": {"time_points": None, "space_order": None, "allow_inexact": False},
      "output": {"directory": "runs", "run_id": "run"}}, "eb18f30c6d91"),
    (_base_doc(Path("pinned")), "bdc6e4f0a9db"),
    (_INSTANTIATE_DOC, "45a485281c20"),
    # the recorded inputs of the ladder-1d, sweep-1d and certify-2d benchmarks
    ({"dimension": 1, "mesh": {"n": 64}, "time": {"T": 1.0, "N_slabs": 2, "k": 1},
      "space": {"degree_l": 1}, "epsilon": 0.5, "problem": {"manufactured": "expsine"},
      "output": {"directory": "out", "run_id": "ladder"}}, "ac6c0dfe11ee"),
    ({"dimension": 1, "mesh": {"n": 32}, "time": {"T": 0.0125, "N_slabs": 64, "k": 1},
      "space": {"degree_l": 2}, "epsilon": 0.4, "problem": {"initial_profile": "interface"},
      "output": {"directory": "out", "run_id": "sweep"}}, "7b8bff7d2200"),
    ({"dimension": 2, "mesh": {"n_per_side": 16}, "time": {"T": 1.0, "N_slabs": 8, "k": 1},
      "space": {"degree_l": 2}, "epsilon": 0.5, "problem": {"manufactured": "expsine2d"},
      "output": {"directory": "out", "run_id": "certify"}}, "a071cefaa402"),
    # integer values of float fields hash as their floats
    ({"dimension": 2, "problem": {"initial_profile": "zero2d"}, "time": {"T": 1, "k": 0},
      "epsilon": 1, "quadrature": {"time_points": 3, "space_order": 6, "allow_inexact": True},
      "solver": {"newton_rel_tol": 1e-9, "linear": {"rel_tolerance": 1e-10}}},
     "a4362a37790e"),
])
def test_config_hash_is_pinned(doc, expected):
    assert config_hash(parse_config(doc)) == expected


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


@pytest.mark.parametrize("text, key", [
    ('{"epsilon": 0.5, "epsilon": 0.1, "problem": {"manufactured": "expsine"}}', "epsilon"),
    ('{"time": {"k": 1, "T": 0.5, "k": 2}, "problem": {"manufactured": "expsine"}}', "k"),
], ids=["top-level", "nested"])
def test_duplicate_config_key_is_rejected(tmp_path, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
        load_config(str(path))
    code, out = run_cli(["solve", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 4
    err = _json_line(out)
    assert err["error"] == "config" and f"'{key}'" in err["message"]
    assert not (tmp_path / "out").exists()


def test_instantiate_builds_matching_pieces():
    cfg = parse_config(_INSTANTIATE_DOC)
    disc = instantiate(cfg)
    assert disc.space.mesh.n_elements == 8
    assert disc.space.degree == 2
    assert disc.basis.k == 2
    assert disc.partition.n_slabs == 4
    assert disc.partition.points[-1] == 0.5
    assert disc.problem.epsilon == 0.3
    assert disc.newton.abs_tol == 1e-10
    assert disc.newton.max_iterations == 12
    assert disc.linear.rel_tolerance == 1e-12


# ---------------------------------------------------------------------------
# solve


def test_cli_solve_writes_outputs(tmp_path):
    doc = _base_doc(tmp_path)
    code, out = run_cli(["solve", "--config", _write_cfg(tmp_path, doc)])
    assert code == 0
    assert "norms:" in out and "errors vs exact:" in out
    outdir = tmp_path / "out"
    for suffix in ("checkpoint.json", "norms.csv", "errors.csv", "manifest.json"):
        assert (outdir / f"t1_{suffix}").exists()

    header, rows = _read_csv(outdir / "t1_norms.csv")
    assert header[:6] == ["run_id", "k", "l", "N", "n_cells", "epsilon"]
    assert len(rows) == 1
    row = rows[0]
    assert row["run_id"] == "t1" and row["k"] == "1" and row["n_cells"] == "8"
    assert float(row["L2L2"]) > 0.0
    assert row["config_hash"] == config_hash(parse_config(doc))

    _, err_rows = _read_csv(outdir / "t1_errors.csv")
    assert 0.0 < float(err_rows[0]["L2L2"]) < 1.0

    sol, manifest = load_checkpoint(str(outdir / "t1_checkpoint.json"))
    assert sol.partition.n_slabs == 2
    assert manifest["N_slabs"] == 2

    mdoc = json.loads((outdir / "t1_manifest.json").read_text())
    assert mdoc["command"] == "solve"
    assert mdoc["config_hash"] == config_hash(parse_config(doc))
    assert len(mdoc["outputs"]) == 3


def test_cli_solve_zero_profile_is_exactly_zero(tmp_path):
    doc = _base_doc(tmp_path, run_id="z",
                    problem={"initial_profile": "zero"})
    code, out = run_cli(["solve", "--config", _write_cfg(tmp_path, doc)])
    assert code == 0
    outdir = tmp_path / "out"
    _, rows = _read_csv(outdir / "z_norms.csv")
    for key in ("L2L2", "LinfL2", "L2H1", "L4L4", "jump_sum"):
        assert rows[0][key] == "0.0"
    assert not (outdir / "z_errors.csv").exists()


def test_cli_out_flag_overrides_directory(tmp_path):
    doc = _base_doc(tmp_path)
    other = tmp_path / "elsewhere"
    code, _ = run_cli(["solve", "--config", _write_cfg(tmp_path, doc),
                       "--out", str(other)])
    assert code == 0
    assert (other / "t1_norms.csv").exists()
    assert not (tmp_path / "out").exists()


def test_cli_invalid_config_structured_error(tmp_path):
    doc = _base_doc(tmp_path)
    doc["typo_field"] = 1
    code, out = run_cli(["solve", "--config", _write_cfg(tmp_path, doc)])
    assert code == 4
    err = _json_line(out)
    assert err["error"] == "config"
    assert "typo_field" in err["message"]


@pytest.mark.parametrize("bad, match", _ILL_TYPED)
def test_cli_ill_typed_config_exits_4(tmp_path, bad, match):
    code, out = run_cli(["solve", "--config", _write_cfg(tmp_path, _base_doc(tmp_path, **bad))])
    assert code == 4
    err = _json_line(out)
    assert err["error"] == "config"
    assert re.search(match, err["message"])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("bad, match", _UNBUILDABLE)
def test_cli_unbuildable_config_exits_4_before_writing(tmp_path, command, bad, match):
    code, out = run_cli([command, "--config",
                         _write_cfg(tmp_path, _base_doc(tmp_path, **bad))])
    assert code == 4
    lines = [line for line in out.splitlines() if line.startswith("{")]
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert re.search(match, err["message"])
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file(tmp_path):
    code, out = run_cli(["solve", "--config", str(tmp_path / "nope.json")])
    assert code == 4
    assert _json_line(out)["error"] == "config"


def _failing_doc(tmp_path):
    """An interface config whose first Newton solve cannot converge."""
    return _base_doc(tmp_path, run_id="fail",
                     problem={"initial_profile": "interface"},
                     epsilon=0.01,
                     mesh={"n": 16},
                     time={"T": 0.5, "N_slabs": 2, "k": 1},
                     solver={"max_iter": 1})


def _assert_solver_error(code, out, expected_hash):
    assert code == EXIT_SOLVER
    err = _json_line(out)
    assert err["error"] == "solver"
    assert "slab" in err["message"]
    assert err["config_hash"] == expected_hash
    history = err["history"]
    assert isinstance(history, list) and history
    assert all(isinstance(h, float) for h in history)


def test_cli_solver_failure_exit_code(tmp_path):
    doc = _failing_doc(tmp_path)
    code, out = run_cli(["solve", "--config", _write_cfg(tmp_path, doc)])
    _assert_solver_error(code, out, config_hash(parse_config(doc)))


def test_cli_solve_is_deterministic(tmp_path):
    doc = _base_doc(tmp_path)
    cfg = _write_cfg(tmp_path, doc)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["solve", "--config", cfg, "--out", str(d1)])[0] == 0
    assert run_cli(["solve", "--config", cfg, "--out", str(d2)])[0] == 0
    for name in ("t1_norms.csv", "t1_errors.csv", "t1_checkpoint.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_cli_solve_error_golden(tmp_path):
    # frozen errors for the piecewise-constant-in-time scheme on a fixed grid
    doc = _base_doc(tmp_path, run_id="g",
                    mesh={"n": 32},
                    time={"T": 1.0, "N_slabs": 32, "k": 0})
    code, _ = run_cli(["solve", "--config", _write_cfg(tmp_path, doc)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "out" / "g_errors.csv")
    assert float(rows[0]["L2L2"]) == pytest.approx(GOLDEN_K0_L2L2, rel=1e-9)
    assert float(rows[0]["LinfL2"]) == pytest.approx(GOLDEN_K0_LINFL2, rel=1e-9)
    assert float(rows[0]["L2H1"]) == pytest.approx(GOLDEN_K0_L2H1, rel=1e-9)


GOLDEN_K0_L2L2 = 0.0045816623577718246
GOLDEN_K0_LINFL2 = 0.018501573044639914
GOLDEN_K0_L2H1 = 0.04400295704380092


# ---------------------------------------------------------------------------
# convergence


def test_cli_convergence_rejects_few_levels(tmp_path):
    doc = _base_doc(tmp_path)
    code, out = run_cli(["convergence", "--config", _write_cfg(tmp_path, doc),
                         "--levels", "2"])
    assert code == 4
    assert "levels" in _json_line(out)["message"]
    assert not (tmp_path / "out").exists()


def test_cli_convergence_needs_exact_solution(tmp_path):
    doc = _base_doc(tmp_path, problem={"initial_profile": "interface"})
    code, out = run_cli(["convergence", "--config", _write_cfg(tmp_path, doc)])
    assert code == 4
    assert "manufactured" in _json_line(out)["message"]


def test_cli_convergence_table(tmp_path):
    doc = _base_doc(tmp_path, run_id="c", mesh={"n": 4},
                    time={"T": 0.25, "N_slabs": 2, "k": 1})
    code, out = run_cli(["convergence", "--config", _write_cfg(tmp_path, doc),
                         "--levels", "3", "--refine", "both"])
    assert code == 0
    assert "convergence table written" in out
    header, rows = _read_csv(tmp_path / "out" / "c_convergence.csv")
    assert len(rows) == 3
    assert [r["level"] for r in rows] == ["0", "1", "2"]
    assert [r["n_cells"] for r in rows] == ["4", "8", "16"]
    assert [r["N"] for r in rows] == ["2", "4", "8"]
    assert rows[0]["order_L2L2"] == ""
    assert float(rows[2]["order_L2L2"]) > 0.5
    assert float(rows[2]["h"]) == pytest.approx(1.0 / 16.0)
    assert float(rows[2]["tau"]) == pytest.approx(0.25 / 8.0)
    # each level hashes its own refined configuration
    assert len({r["config_hash"] for r in rows}) == 3


def test_cli_convergence_failure_reports_level_evidence(tmp_path):
    doc = _base_doc(tmp_path, run_id="cf", epsilon=0.01, solver={"max_iter": 1})
    code, out = run_cli(["convergence", "--config", _write_cfg(tmp_path, doc),
                         "--levels", "3", "--refine", "time"])
    assert code == 2
    err = _json_line(out)
    assert err["error"] == "solver"
    assert err["message"].startswith("level 0 failed:")
    assert err["config_hash"] == config_hash(parse_config(doc))
    assert err["history"] and all(isinstance(h, float) for h in err["history"])
    assert err["partial_table"].endswith("cf_convergence.csv")


# ---------------------------------------------------------------------------
# stability sweep


def test_cli_sweep_rejects_bad_epsilons(tmp_path):
    cfg = _write_cfg(tmp_path, _base_doc(tmp_path))
    code, out = run_cli(["stability-sweep", "--config", cfg,
                         "--epsilons", "0.4", "0.5"])
    assert code == 4
    assert "descending" in _json_line(out)["message"]
    code, out = run_cli(["stability-sweep", "--config", cfg,
                         "--epsilons", "0.4", "0.4"])
    assert code == 4
    code, out = run_cli(["stability-sweep", "--config", cfg,
                         "--epsilons", "-0.1"])
    assert code == 4
    assert "positive" in _json_line(out)["message"]


@pytest.mark.parametrize("epsilons", [["nan"], ["inf", "0.5"]])
def test_cli_sweep_rejects_non_finite_epsilons(tmp_path, epsilons):
    cfg = _write_cfg(tmp_path, _base_doc(tmp_path))
    code, out = run_cli(["stability-sweep", "--config", cfg, "--epsilons", *epsilons])
    assert code == 4
    assert "finite" in _json_line(out)["message"]
    assert not (tmp_path / "out" / "t1_sweep.csv").exists()
    assert not (tmp_path / "out").exists()


def test_cli_sweep_single_point_matches_solve(tmp_path):
    doc = _base_doc(tmp_path, run_id="s")
    cfg = _write_cfg(tmp_path, doc)
    code, _ = run_cli(["stability-sweep", "--config", cfg,
                       "--epsilons", "0.4", "--out", str(tmp_path / "sw")])
    assert code == 0
    _, sweep_rows = _read_csv(tmp_path / "sw" / "s_sweep.csv")
    assert len(sweep_rows) == 1
    row = sweep_rows[0]
    assert row["status"] == "ok"

    solve_doc = dict(doc, epsilon=0.4)
    code, _ = run_cli(["solve", "--config", _write_cfg(tmp_path, solve_doc,
                                                       name="solve.json"),
                       "--out", str(tmp_path / "sv")])
    assert code == 0
    _, solve_rows = _read_csv(tmp_path / "sv" / "s_norms.csv")
    for key in ("epsilon", "L2L2", "LinfL2", "L2H1", "L4L4", "jump_sum",
                "config_hash"):
        assert row[key] == solve_rows[0][key]
    scaled = 0.4 * (float(row["LinfL2"]) + float(row["L2H1"]))
    assert float(row["scaled_linf_h1"]) == pytest.approx(scaled, rel=1e-12)


def test_cli_sweep_partial_failure(tmp_path):
    doc = _base_doc(tmp_path, run_id="p",
                    problem={"initial_profile": "interface"},
                    mesh={"n": 16},
                    time={"T": 0.5, "N_slabs": 2, "k": 1},
                    solver={"max_iter": 1})
    code, out = run_cli(["stability-sweep", "--config",
                         _write_cfg(tmp_path, doc), "--epsilons", "0.01"])
    assert code == 2
    _, rows = _read_csv(tmp_path / "out" / "p_sweep.csv")
    assert rows[0]["status"] == "failed"
    assert rows[0]["L2L2"] == ""
    assert _json_line(out)["error"] == "solver"


def test_cli_sweep_failure_reports_point_evidence(tmp_path):
    doc = _base_doc(tmp_path, run_id="pe",
                    problem={"initial_profile": "interface"},
                    solver={"max_iter": 1})
    epsilons = [0.02, 0.01]
    code, out = run_cli(["stability-sweep", "--config", _write_cfg(tmp_path, doc),
                         "--epsilons", *map(str, epsilons)])
    assert code == EXIT_SOLVER
    err = _json_line(out)
    assert err["error"] == "solver"
    assert err["table"].endswith("pe_sweep.csv")
    points = err["failed_points"]
    assert [p["epsilon"] for p in points] == epsilons
    for point in points:
        assert point["config_hash"] == config_hash(
            parse_config(dict(doc, epsilon=point["epsilon"])))
        assert point["message"].startswith("forward solve failed on slab 1: ")
        assert point["message"].count("slab") == 1
        assert point["history"] and all(isinstance(h, float) for h in point["history"])
    assert err["history"] == points[0]["history"]


# ---------------------------------------------------------------------------
# verify


def test_cli_verify_all_pass(tmp_path):
    doc = _base_doc(tmp_path, run_id="v", mesh={"n": 8},
                    time={"T": 0.5, "N_slabs": 4, "k": 1})
    code, out = run_cli(["verify", "--config", _write_cfg(tmp_path, doc)])
    assert code == 0
    assert "all identity checks passed" in out
    entries = json.loads((tmp_path / "out" / "v_identities.json").read_text())
    names = [e["identity"] for e in entries]
    assert names == ["duality", "energy_balance", "projection_moments",
                     "characteristic_moments"]
    for e in entries:
        assert e["status"] == "pass"
    by_name = {e["identity"]: e for e in entries}
    assert by_name["duality"]["threshold"] == 1e-8
    assert by_name["energy_balance"]["threshold"] == 1e-10
    assert by_name["projection_moments"]["threshold"] == 1e-12
    assert by_name["characteristic_moments"]["threshold"] == 1e-12
    expected_hash = config_hash(parse_config(doc))
    assert all(e["config_hash"] == expected_hash for e in entries)


def test_cli_verify_projection_moments_report_the_endpoint_row(tmp_path):
    doc = _base_doc(tmp_path, run_id="pm", mesh={"n": 8},
                    time={"T": 0.5, "N_slabs": 3, "k": 2})
    code, _ = run_cli(["verify", "--config", _write_cfg(tmp_path, doc)])
    assert code == 0
    entries = json.loads((tmp_path / "out" / "pm_identities.json").read_text())
    entry = {e["identity"]: e for e in entries}["projection_moments"]
    # lhs/rhs are the norms of the last slab's endpoint condition
    # M C(t_N) = (w(t_N), phi), whatever row has the largest residual
    disc = instantiate(parse_config(doc))
    ops = SpaceOperators(disc.space)
    proj = local_projection(disc.problem.exact.value, disc.partition, ops, make_time_basis(2))
    end = ops.mass() @ proj.right_trace(disc.partition.n_slabs)
    w_end = ops.load(lambda x: disc.problem.exact.value(disc.partition.T, x))
    assert entry["lhs"] == pytest.approx(float(np.linalg.norm(end)), rel=1e-12)
    assert entry["rhs"] == pytest.approx(float(np.linalg.norm(w_end)), rel=1e-12)
    assert entry["residual"] <= 1e-12


def test_cli_verify_under_integration_fails_duality(tmp_path):
    doc = _base_doc(tmp_path, run_id="u", mesh={"n": 8},
                    time={"T": 0.5, "N_slabs": 4, "k": 1})
    code, out = run_cli(["verify", "--config", _write_cfg(tmp_path, doc),
                         "--under-integrate"])
    assert code == 3
    err = _json_line(out)
    assert err["error"] == "identity"
    assert "duality" in err["identities"]
    entries = json.loads((tmp_path / "out" / "u_identities.json").read_text())
    by_name = {e["identity"]: e for e in entries}
    assert by_name["duality"]["status"] == "fail"
    assert by_name["duality"]["residual"] > 1e-8
    # the projector and characteristic checks use their own exact rules
    assert by_name["projection_moments"]["status"] == "pass"
    assert by_name["characteristic_moments"]["status"] == "pass"


def test_cli_verify_k0_skips_energy(tmp_path):
    doc = _base_doc(tmp_path, run_id="k0", mesh={"n": 8},
                    time={"T": 0.5, "N_slabs": 4, "k": 0})
    code, out = run_cli(["verify", "--config", _write_cfg(tmp_path, doc)])
    assert code == 0
    entries = json.loads((tmp_path / "out" / "k0_identities.json").read_text())
    by_name = {e["identity"]: e for e in entries}
    assert by_name["energy_balance"]["status"] == "skipped (k=0)"
    assert "residual" not in by_name["energy_balance"]
    assert by_name["duality"]["status"] == "pass"


def test_cli_verify_solver_failure(tmp_path):
    doc = _failing_doc(tmp_path)
    code, out = run_cli(["verify", "--config", _write_cfg(tmp_path, doc)])
    _assert_solver_error(code, out, config_hash(parse_config(doc)))
    assert not (tmp_path / "out" / "fail_identities.json").exists()


def test_cli_verify_under_integrate_failure_carries_the_solved_hash(tmp_path):
    doc = _failing_doc(tmp_path)
    code, out = run_cli(["verify", "--config", _write_cfg(tmp_path, doc),
                         "--under-integrate"])
    # the hash is that of the degraded config that was solved
    solved = dict(doc, quadrature={"time_points": 1, "allow_inexact": True})
    assert config_hash(parse_config(solved)) != config_hash(parse_config(doc))
    _assert_solver_error(code, out, config_hash(parse_config(solved)))


# ---------------------------------------------------------------------------
# spectrum


def test_cli_spectrum_solver_failure(tmp_path):
    doc = _failing_doc(tmp_path)
    code, out = run_cli(["spectrum", "--config", _write_cfg(tmp_path, doc),
                         "--samples", "3"])
    _assert_solver_error(code, out, config_hash(parse_config(doc)))
    assert not (tmp_path / "out" / "fail_spectrum.json").exists()


def test_cli_spectrum_zero_state(tmp_path):
    doc = _base_doc(tmp_path, run_id="sp", mesh={"n": 32},
                    time={"T": 0.25, "N_slabs": 2, "k": 1},
                    epsilon=0.3,
                    problem={"initial_profile": "zero"})
    code, out = run_cli(["spectrum", "--config", _write_cfg(tmp_path, doc),
                         "--samples", "3"])
    assert code == 0
    assert "lambda_min in [" in out
    trace = json.loads((tmp_path / "out" / "sp_spectrum.json").read_text())
    assert trace["times"] == [0.0, 0.125, 0.25]
    target = np.pi**2 - 1.0 / 0.3**2
    for lam in trace["lambda_min"]:
        assert lam == pytest.approx(target, rel=1e-2)
    assert trace["implied_constant"] == pytest.approx(-target, rel=1e-2)
    assert "note" in trace and len(trace["config_hash"]) == 12


def test_cli_spectrum_rejects_bad_samples(tmp_path):
    cfg = _write_cfg(tmp_path, _base_doc(tmp_path))
    code, out = run_cli(["spectrum", "--config", cfg, "--samples", "0"])
    assert code == 4
    assert "samples" in _json_line(out)["message"]
    assert not (tmp_path / "out").exists()
