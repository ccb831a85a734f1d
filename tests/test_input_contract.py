"""Fuzz of the input contract.

Any JSON input ends in a result or a documented error: the loaders raise
only FormatError (or StructuralError for a graph that passes the schema but
breaks an axiom), and ``logcone`` exits 0, 1 or 2 with no traceback, an
empty stdout on exit 1, and ``--json`` output that parses as strict JSON.
Inputs are hypothesis-generated JSON and mutated corpus graphs, contexts
and eta files.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcone.cli import main
from logcone.corpus import corpus_load
from logcone.graph import StructuralError
from logcone.serialize import FormatError, context_from_dict, eta_from_dict, graph_from_dict, witness_from_dict

from test_schema import corpus_docs, json_values, load_doc, mutate, nodes

GRAPHS = [name for name, kind in corpus_docs() if kind == "graph"]
CONTEXTS = [name for name, kind in corpus_docs() if kind == "context"]
# eta files keyed by a corpus graph's own edges and labels, so entries reach the value checks
ETA_GRAPH = corpus_load("toricex").graph
eta_values = json_values | st.lists(st.integers(-10**20, 10**20) | st.floats(), min_size=2, max_size=2)
eta_docs = st.fixed_dictionaries(
    {
        "schema": st.just("logcone/1"),
        "eta": st.dictionaries(
            st.sampled_from([e.id for e in ETA_GRAPH.edges]) | st.text(max_size=2),
            st.dictionaries(st.sampled_from(sorted(ETA_GRAPH.divisors)) | st.text(max_size=2), eta_values, max_size=3)
            | json_values,
            max_size=4,
        ),
    }
)


@st.composite
def corpus_variants(draw, names):
    """A corpus document as it is, with up to three seeded mutations, or with
    one subtree replaced by generated JSON."""
    doc = load_doc(draw(st.sampled_from(names)))
    how = draw(st.sampled_from(["as is", "mutate", "subtree"]))
    if how == "mutate":
        return mutate(doc, random.Random(draw(st.integers(0, 2**32))))
    if how == "subtree":
        path = draw(st.sampled_from(list(nodes(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(json_values)
    return doc


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def loads_or_rejects(load, *args, errors=(FormatError,)):
    try:
        load(*args)
    except errors:
        pass


@settings(max_examples=200, deadline=None)
@given(corpus_variants(GRAPHS) | json_values, corpus_variants(CONTEXTS) | json_values, eta_docs | json_values)
def test_loaders_raise_only_documented_errors(graph, ctx, eta):
    loads_or_rejects(graph_from_dict, graph, errors=(FormatError, StructuralError))
    loads_or_rejects(context_from_dict, ctx)
    loads_or_rejects(eta_from_dict, eta, ETA_GRAPH)


def test_loader_errors_show_huge_ints_by_bit_length():
    # repr of an int past Python's 4,300-digit str limit raises ValueError
    huge = 10**5000
    graph = load_doc("toricex.json")
    graph["vertices"][0]["id"] = huge
    graph["legs"][0]["index"] = -huge
    graph["edges"] = (huge,)
    with pytest.raises(FormatError) as info:
        graph_from_dict(graph)
    assert str(info.value) == (
        "/edges: <tuple> is not of type 'array'; "
        "/legs/0/index: -<int of 16610 bits> is less than the minimum of 1; "
        "/vertices/0/id: <int of 16610 bits> is not of type 'string'"
    )
    ctx = load_doc("toricex.ctx.json")
    ctx["divisors"] = ["1", [huge], {"a": huge}]
    with pytest.raises(FormatError, match=r"^/divisors/1: \[<int of 16610 bits>\] is not of type 'string'; "):
        context_from_dict(ctx)
    eta = {"schema": "logcone/1", "eta": {"e1": {"1": [huge, 0]}}}
    with pytest.raises(FormatError, match=r"^/eta/e1/1: eta entry \[<int of 16610 bits>, 0\] is not finite$"):
        eta_from_dict(eta, ETA_GRAPH)


def test_loader_errors_on_keys_json_cannot_produce():
    # a library caller's dict can hold keys that json.load never makes:
    # keys of types that do not sort together, and ints too long for str()
    huge = 10**5000
    graph = load_doc("toricex.json")
    graph["vertices"][0].update({"zzz": 1, 5: 2})
    with pytest.raises(FormatError) as info:
        graph_from_dict(graph)
    assert str(info.value) == "/vertices/0: Additional properties are not allowed (5, 'zzz' were unexpected)"
    graph = load_doc("toricex.json")
    graph["edges"][0]["contact"][huge] = "x"
    with pytest.raises(FormatError) as info:
        graph_from_dict(graph)
    assert str(info.value) == "/edges/0/contact/<int of 16610 bits>: 'x' is not of type 'integer'"
    graph["edges"][0]["contact"][huge] = 1
    with pytest.raises(FormatError, match=r"^/edges/0/contact: contact map uses unknown divisor labels \[<int of 16610 bits>\]$"):
        graph_from_dict(graph)
    with pytest.raises(FormatError, match=r"^/eta/<int of 16610 bits>: the graph has no edge <int of 16610 bits>$"):
        eta_from_dict({"schema": "logcone/1", "eta": {huge: {}}}, ETA_GRAPH)


def test_witness_and_eta_files_reject_unknown_keys():
    # an unread key such as "tol" is an error in the graph schema's wording,
    # never silently dropped
    one = "/: Additional properties are not allowed ('tol' was unexpected)"
    two = "/: Additional properties are not allowed ('eps', 'tol' were unexpected)"
    graph = load_doc("toricex.json")
    graph["tol"] = 1e-3
    with pytest.raises(FormatError) as info:
        graph_from_dict(graph)
    assert str(info.value) == one
    for name in ("2lines-case1", "2lines-case2", "2lines-case3", "ex32-corrected"):
        witness = load_doc(f"{name}.witness.json")
        assert sorted(witness) == ["lambda", "s", "schema"]
        witness_from_dict(witness)
        for extra, message in (({"tol": 1e-3}, one), ({"tol": 1e-3, "eps": 0}, two)):
            with pytest.raises(FormatError) as info:
                witness_from_dict({**witness, **extra})
            assert str(info.value) == message
    eta = {"schema": "logcone/1", "eta": {"e1": {"1": 1, "2": 1}, "e2": {"1": 1, "2": 1}}}
    eta_from_dict(eta, ETA_GRAPH)
    for extra, message in (({"tol": 1e-3}, one), ({"tol": 1e-3, "eps": 0}, two)):
        with pytest.raises(FormatError) as info:
            eta_from_dict({**eta, **extra}, ETA_GRAPH)
        assert str(info.value) == message


def test_unknown_contact_labels_name_their_map():
    graph = load_doc("toricex.json")
    graph["legs"][5]["contact"]["9"] = 1
    with pytest.raises(FormatError) as info:
        graph_from_dict(graph)
    assert str(info.value) == "/legs/5/contact: contact map uses unknown divisor labels ['9']"
    graph = load_doc("toricex.json")
    graph["edges"][1]["contact_rev"] = {"1": 2, "2": -2, "a/b": 1, "0": 3}
    with pytest.raises(FormatError) as info:
        graph_from_dict(graph)
    assert str(info.value) == "/edges/1/contact_rev: contact map uses unknown divisor labels ['0', 'a/b']"


COMMANDS = [
    ["report"],
    ["validate"],
    ["genus"],
    ["lattice"],
    ["tropical"],
    ["cone"],
    ["gluing"],
    ["ideal"],
    ["forget", "--keep", "1"],
    ["dims", "--ctx", "{ctx}"],
    ["validate", "--ctx", "{ctx}"],
    ["report", "--ctx", "{ctx}"],
    ["obstruct", "{eta}"],
]


@settings(max_examples=200, deadline=None)
@given(
    corpus_variants(GRAPHS) | json_values,
    corpus_variants(CONTEXTS) | json_values,
    eta_docs | json_values,
    st.sampled_from(COMMANDS),
    st.booleans(),
)
def test_cli_exit_codes_and_strict_json(graph, ctx, eta, command, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"graph": Path(tmp, "g.json"), "ctx": Path(tmp, "c.ctx.json"), "eta": Path(tmp, "e.eta.json")}
        for key, doc in (("graph", graph), ("ctx", ctx), ("eta", eta)):
            files[key].write_text(json.dumps(doc))
        argv = [command[0], str(files["graph"])] + [arg.format(**files) for arg in command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json"] * as_json)
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
    elif as_json or command[0] == "forget":
        strict_json(out.getvalue())
