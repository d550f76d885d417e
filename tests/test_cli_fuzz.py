"""Fuzz the CLI exit-code contract with malformed input files.

Every subcommand is called in-process on generated files. No exception may
escape ``main``; ``coarsen``, ``encode`` and ``named-graph`` return 0, 2 or 3,
and only ``gdwl`` may return 1 (a negative verdict). ``coarsen`` and ``gdwl``
run under each coarsening algorithm. A well-formed hierarchy
whose coarse levels are not the quotients of the levels below is a parse
error (2), and so is a graph or hierarchy with a boolean, NaN or infinity
where a number belongs. Node counts and ids are kept small so that every
example runs in milliseconds.
"""

import copy
import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdse.cli import main
from hdse.coarsen import build_hierarchy, hierarchy_to_json
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
    """A valid hierarchy whose level k is no longer the quotient of level
    k - 1 under map k - 1: one coarse edge toggled, coarse features or
    labels added, one node sent to another cluster where that empties a
    cluster or changes the coarse edges, or ratio k - 1 changed to any
    other float."""
    obj = valid_hierarchy_dict(draw(st.integers(0, 50)))
    k = draw(st.integers(1, len(obj["levels"]) - 1))
    level, n = obj["levels"][k], obj["levels"][k]["num_nodes"]
    kinds = ["features", "labels", "ratio"]
    kinds += ["edge", "map"] if n > 1 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "features":
        level["features"] = [[draw(st.floats(allow_nan=False,
                                             allow_infinity=False))]] * n
    elif kind == "labels":
        level["labels"] = [0] * n
    elif kind == "ratio":
        ratio = obj["ratios"][k - 1]
        obj["ratios"][k - 1] = draw(st.floats().filter(lambda r: r != ratio))
    elif kind == "edge":
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                    max_size=2, unique=True)))
        level["edges"] = sorted(set(map(tuple, level["edges"])) ^ {(u, v)})
    else:
        m = obj["maps"][k - 1]
        i = draw(st.integers(0, len(m) - 1))
        m[i] = (m[i] + draw(st.integers(1, n - 1))) % n
        # a moved node may leave every coarse edge as it was: such a map
        # is another valid hierarchy, not an inconsistent one
        quotient = {tuple(sorted((m[u], m[v])))
                    for u, v in obj["levels"][k - 1]["edges"] if m[u] != m[v]}
        assume(set(m) != set(range(n))
               or quotient != set(map(tuple, level["edges"])))
    return json.dumps(obj).encode()


@FUZZ
@given(payload=inconsistent_hierarchy())
def test_encode_rejects_inconsistent_hierarchy(tmp_path_factory, payload):
    rc = run(tmp_path_factory, lambda f: ["encode", f], payload, ".json")
    assert rc == 2


NUMERIC_FIELDS = {"edges", "labels", "features", "maps", "ratios"}


@st.composite
def non_number_entry(draw, make):
    """A valid document with one number in its edges, labels, features,
    maps or ratios replaced by a JSON boolean, NaN or +-Infinity."""
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
