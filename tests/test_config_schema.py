"""Property tests of the typed config schema over drawn valid documents:
the canonical dict round-trips, the hash ignores key order, and a value of
the wrong type is rejected with its path named."""

import copy
import math
import re

from hypothesis import given, settings, strategies as st

from dgac import ConfigError, config_hash, parse_config
from dgac.config import config_to_dict
from dgac.problems import MANUFACTURED, PROFILES

PROPERTY = settings(derandomize=True, max_examples=100, database=None, deadline=None)

POSITIVE_INT = st.integers(1, 64)
POSITIVE_FLOAT = st.floats(1e-6, 1e3)
NAME = st.text("ab_-./", max_size=8)
PROBLEMS = ([{"manufactured": name} for name in sorted(MANUFACTURED)]
            + [{"initial_profile": name} for name in sorted(PROFILES)])

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


@st.composite
def documents(draw):
    dim = draw(st.sampled_from([1, 2]))
    mesh_field = "n" if dim == 1 else "n_per_side"
    doc = draw(st.fixed_dictionaries({"problem": st.sampled_from(PROBLEMS)}, optional={
        "mesh": _group(**{mesh_field: st.none() | POSITIVE_INT}),
        "time": _group(T=POSITIVE_FLOAT, N_slabs=POSITIVE_INT, k=st.integers(0, 3)),
        "space": _group(degree_l=st.integers(1, 3)),
        "epsilon": POSITIVE_FLOAT,
        "solver": _group(newton_abs_tol=POSITIVE_FLOAT, newton_rel_tol=POSITIVE_FLOAT,
                         max_iter=POSITIVE_INT, linear=_group(rel_tolerance=POSITIVE_FLOAT)),
        "quadrature": _group(time_points=st.none() | POSITIVE_INT,
                             space_order=st.none() | POSITIVE_INT,
                             allow_inexact=st.booleans()),
        "output": _group(directory=NAME, run_id=NAME),
    }))
    if dim == 2 or draw(st.booleans()):
        doc["dimension"] = dim
    return doc


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
