"""Property tests of the typed config schema over drawn valid documents:
the canonical dict round-trips, the hash ignores key order, and a value of
the wrong type is rejected with its path named.  Over drawn well-typed
documents, valid or not, parse_config accepts exactly those that
instantiate."""

import copy
import math
import re

from hypothesis import given, settings, strategies as st

from dgac import ConfigError, config_hash, instantiate, parse_config
from dgac.config import config_to_dict
from dgac.problems import MANUFACTURED, PROFILES
from dgac.timebase import required_quad_points

PROPERTY = settings(derandomize=True, max_examples=100, database=None, deadline=None)

POSITIVE_INT = st.integers(1, 64)
POSITIVE_FLOAT = st.floats(1e-6, 1e3)
NAME = st.text("ab_-./", max_size=8)
PROBLEMS = ([{"manufactured": name} for name in sorted(MANUFACTURED)]
            + [{"initial_profile": name} for name in sorted(PROFILES)])
REGISTRY = {**MANUFACTURED, **PROFILES}

# Values of the wrong type for a leaf, keyed by the type of its drawn value
# (a None leaf is an unset optional integer).
WRONG = {
    bool: ["false", 0, 1.0, None],
    int: [2.5, 2.0, True, "3", []],
    float: ["0.5", True, None, math.inf, math.nan],
    str: [1, True, 0.5, []],
    type(None): [2.5, True, "3"],
}


def _group(**fields):
    """An object holding any subset of the given fields."""
    return st.fixed_dictionaries({}, optional=fields)


def _problems(dim):
    return [p for p in PROBLEMS if REGISTRY[next(iter(p.values()))].dimension == dim]


@st.composite
def documents(draw):
    """Valid documents: each instantiates."""
    dim = draw(st.sampled_from([1, 2]))
    mesh_field = "n" if dim == 1 else "n_per_side"
    doc = draw(st.fixed_dictionaries({"problem": st.sampled_from(_problems(dim))}, optional={
        "mesh": _group(**{mesh_field: st.none() | POSITIVE_INT}),
        "time": _group(T=POSITIVE_FLOAT, N_slabs=POSITIVE_INT, k=st.integers(0, 3)),
        "space": _group(degree_l=st.integers(1, 2)),
        "epsilon": POSITIVE_FLOAT,
        "solver": _group(newton_abs_tol=POSITIVE_FLOAT, newton_rel_tol=POSITIVE_FLOAT,
                         max_iter=POSITIVE_INT, linear=_group(rel_tolerance=POSITIVE_FLOAT)),
        "output": _group(directory=NAME, run_id=NAME),
    }))
    k = doc.get("time", {}).get("k", 1)
    degree = doc.get("space", {}).get("degree_l", 1)
    quadrature = draw(_group(time_points=st.none() | st.integers(2 * k + 2, 64),
                             space_order=st.none() | st.integers(4 * degree, 64),
                             allow_inexact=st.booleans()))
    if quadrature or draw(st.booleans()):
        doc["quadrature"] = quadrature
    if dim == 2 or draw(st.booleans()):
        doc["dimension"] = dim
    return doc


@st.composite
def well_typed_documents(draw):
    """Documents that pass the schema on a small run, whether they build or not."""
    dim = draw(st.sampled_from([1, 2]))
    return {
        "dimension": dim,
        "mesh": {"n" if dim == 1 else "n_per_side": 2},
        "time": {"T": 0.5, "N_slabs": 2, "k": draw(st.integers(0, 3))},
        "space": {"degree_l": draw(st.integers(1, 3))},
        "problem": draw(st.sampled_from(PROBLEMS)),
        "quadrature": {"time_points": draw(st.none() | st.integers(1, 14)),
                       "space_order": draw(st.none() | st.integers(1, 14)),
                       "allow_inexact": draw(st.booleans())},
    }


def _builds(doc):
    """Whether the constructors accept doc: the problem's dimension, the element
    degree, and the exactness of both quadratures."""
    problem = REGISTRY[next(iter(doc["problem"].values()))]
    k, degree, quad = doc["time"]["k"], doc["space"]["degree_l"], doc["quadrature"]
    return (problem.dimension == doc["dimension"] and degree in (1, 2)
            and (quad["time_points"] is None or quad["allow_inexact"]
                 or quad["time_points"] >= required_quad_points(k))
            and (quad["space_order"] is None or quad["space_order"] >= 4 * degree))


def _shuffled(doc, rnd):
    items = list(doc.items())
    rnd.shuffle(items)
    return {key: _shuffled(val, rnd) if isinstance(val, dict) else val for key, val in items}


def _leaves(doc, path=()):
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from _leaves(val, path + (key,))
        else:
            yield path + (key,), val


@PROPERTY
@given(doc=documents(), rnd=st.randoms(use_true_random=False))
def test_canonical_dict_round_trips_and_hash_ignores_key_order(doc, rnd):
    cfg = parse_config(doc)
    assert parse_config(config_to_dict(cfg)) == cfg
    assert config_hash(parse_config(_shuffled(doc, rnd))) == config_hash(cfg)


@PROPERTY
@given(doc=documents(), data=st.data())
def test_wrong_type_leaf_is_rejected_with_its_path(doc, data):
    path, value = data.draw(st.sampled_from(list(_leaves(doc))))
    bad = copy.deepcopy(doc)
    group = bad
    for key in path[:-1]:
        group = group[key]
    group[path[-1]] = data.draw(st.sampled_from(WRONG[type(value)]))
    try:
        parse_config(bad)
    except ConfigError as exc:
        assert re.search(re.escape("'" + ".".join(path) + "'"), str(exc)), str(exc)
    else:
        raise AssertionError(f"accepted {group[path[-1]]!r} at {'.'.join(path)}")


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(doc=well_typed_documents())
def test_parse_config_accepts_exactly_what_instantiates(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        assert not _builds(doc), doc
    else:
        assert _builds(doc), doc
        disc = instantiate(cfg)
        assert disc.problem.dimension == doc["dimension"]
