"""Fuzz the CLI exit-code contract with malformed input files.

Every subcommand is called in-process on generated files. No exception may
escape ``main``; ``coarsen``, ``encode`` and ``named-graph`` return 0, 2 or 3,
and only ``gdwl`` may return 1 (a negative verdict). ``coarsen`` and ``gdwl``
run under each coarsening algorithm. A hierarchy file is its base graph and
its maps; a map that empties a cluster, has the wrong length or names a
cluster id past its level's node count is a parse error (2), and so is a
file in the older format that stores the coarse levels, and a graph or
hierarchy with a boolean, NaN or infinity where a number belongs. Node
counts and ids are kept small so that every example runs in milliseconds.
"""

import copy
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hdse.cli import main
from hdse.coarsen import (build_hierarchy, hierarchy_from_json,
                          hierarchy_to_json)
from hdse.graph import make_graph

LIMIT = 300            # largest generated node count or id
FUZZ = settings(max_examples=50, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, LIMIT)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


def valid_graph_dict(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    return make_graph(n, edges, features=rng.standard_normal((n, 2)),
                      labels=rng.integers(0, 2, n)).to_json_dict()


def valid_hierarchy_dict(seed: int) -> dict:
    g = valid_graph_dict(seed)
    del g["labels"]
    h = build_hierarchy(make_graph(g["num_nodes"], g["edges"],
                                   features=g["features"]),
                        "hem", 1 + seed % 2)
    return json.loads(hierarchy_to_json(h))


def paths(obj, prefix=()):
    """Every key/index path into a decoded JSON value."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def entry(obj, path):
    """The value at a key/index path into a decoded JSON value."""
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated(draw, make):
    """A valid document with one entry dropped or replaced by another value."""
    obj = make(draw(st.integers(0, 50)))
    path = draw(st.sampled_from(sorted(paths(obj), key=repr)))
    obj = copy.deepcopy(obj)
    parent = entry(obj, path[:-1])
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return json.dumps(obj).encode()


def files(valid):
    return (st.binary(max_size=64)
            | json_values.map(lambda v: json.dumps(v).encode())
            | mutated(valid))


def run(tmp_path_factory, argv_of, payload: bytes, suffix: str) -> int:
    d = tmp_path_factory.mktemp("fuzz")
    f = d / ("input" + suffix)
    f.write_bytes(payload)
    return main(argv_of(str(f)) + ["-o", str(d / "out")])


algos = st.sampled_from(["louvain", "newman", "hem"])


@FUZZ
@given(payload=files(valid_graph_dict), suffix=st.sampled_from([".txt", ".json"]),
       algo=algos)
def test_coarsen(tmp_path_factory, payload, suffix, algo):
    rc = run(tmp_path_factory, lambda f: ["coarsen", f, "--algo", algo],
             payload, suffix)
    assert rc in (0, 2, 3)


@FUZZ
@given(payload=files(valid_hierarchy_dict))
def test_encode(tmp_path_factory, payload):
    rc = run(tmp_path_factory, lambda f: ["encode", f], payload, ".json")
    assert rc in (0, 2, 3)


@st.composite
def inconsistent_hierarchy(draw):
    """A valid hierarchy with one map broken: a cluster emptied, the length
    changed or an id at or past its level's node count, or the whole
    document written in the older format with its coarse levels."""
    obj = valid_hierarchy_dict(draw(st.integers(0, 50)))
    kind = draw(st.sampled_from(["empty", "length", "range", "old"]))
    if kind == "old":
        h = hierarchy_from_json(json.dumps(obj))
        return json.dumps({"levels": [g.to_json_dict() for g in h.levels],
                           "maps": obj["maps"],
                           "ratios": h.coarsening_ratios,
                           "algo": obj["algo"], "seed": obj["seed"]}).encode()
    k = draw(st.integers(0, len(obj["maps"]) - 1))
    m = obj["maps"][k]
    n, c = len(m), max(m) + 1
    if kind == "empty" and c < n:
        # ids from j up move one higher: cluster j is left empty
        j = draw(st.integers(0, c - 1))
        m[:] = [i + (i >= j) for i in m]
    elif kind == "length":
        if draw(st.booleans()):
            m.pop()
        else:
            m.append(draw(st.integers(0, n - 1)))
    else:
        # also taken for "empty" when the map uses all n ids already
        m[draw(st.integers(0, n - 1))] = draw(st.integers(n, LIMIT))
    return json.dumps(obj).encode()


@FUZZ
@given(payload=inconsistent_hierarchy())
def test_encode_rejects_inconsistent_hierarchy(tmp_path_factory, payload):
    rc = run(tmp_path_factory, lambda f: ["encode", f], payload, ".json")
    assert rc == 2


NUMERIC_FIELDS = {"edges", "labels", "features", "maps"}


@st.composite
def non_number_entry(draw, make):
    """A valid document with one number in its edges, labels, features or
    maps replaced by a JSON boolean, NaN or +-Infinity."""
    obj = make(draw(st.integers(0, 50)))
    leaves = [path for path in paths(obj) if set(path) & NUMERIC_FIELDS
              and not isinstance(entry(obj, path), list)]
    path = draw(st.sampled_from(sorted(leaves, key=repr)))
    entry(obj, path[:-1])[path[-1]] = draw(st.sampled_from(
        [True, False, float("nan"), float("inf"), float("-inf")]))
    return json.dumps(obj).encode()


@FUZZ
@given(payload=non_number_entry(valid_graph_dict))
def test_coarsen_rejects_non_numbers(tmp_path_factory, payload):
    rc = run(tmp_path_factory, lambda f: ["coarsen", f], payload, ".json")
    assert rc == 2


@FUZZ
@given(payload=non_number_entry(valid_hierarchy_dict))
def test_encode_rejects_non_numbers(tmp_path_factory, payload):
    rc = run(tmp_path_factory, lambda f: ["encode", f], payload, ".json")
    assert rc == 2


@FUZZ
@given(payload=files(valid_graph_dict), algo=algos)
def test_gdwl(tmp_path_factory, payload, algo):
    other = json.dumps(valid_graph_dict(0))
    d = tmp_path_factory.mktemp("other")
    (d / "g.json").write_text(other)
    rc = run(tmp_path_factory,
             lambda f: ["gdwl", f, str(d / "g.json"), "--enc", "hdse",
                        "--algo", algo],
             payload, ".json")
    assert rc in (0, 1, 2, 3)


names = st.sampled_from(["cycle", "barbell", "community_pair", "dodecahedron",
                         "desargues", "petersen", ""])
arguments = st.lists(st.integers(-3, 12).map(str) | st.sampled_from(
    ["0.3", "x", "", "1e2", "-0.5"]), max_size=5)


@FUZZ
@given(name=names, args=st.none() | arguments)
def test_named_graph(tmp_path_factory, name, args):
    spec = name if args is None else f"{name}({','.join(args)})"
    d = tmp_path_factory.mktemp("named")
    assert main(["named-graph", spec, "-o", str(d / "out")]) in (0, 3)
