"""The compiled schema checker against two oracles.

On seeded mutations of every corpus graph and context and on
hypothesis-generated JSON, ``serialize.compile_schema``'s checker must give
the same (path, message) list as the recursive walk in
``reference_schema.py``, and the same error pointers as jsonschema's Draft
2020-12 validator.  jsonschema is a test-only dependency: the package never
imports it.
"""

import copy
import json
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcone import serialize
from logcone.serialize import FormatError

from reference_schema import _walk

SCHEMAS = {"graph": serialize._GRAPH_SCHEMA, "context": serialize._CONTEXT_SCHEMA}
CHECKS = {"graph": serialize._GRAPH_CHECK, "context": serialize._CONTEXT_CHECK}


def corpus_docs():
    docs = []
    for item in sorted(resources.files("logcone.data").iterdir(), key=lambda p: p.name):
        if item.name.endswith(".ctx.json"):
            docs.append((item.name, "context"))
        elif item.name.endswith(".json") and not item.name.endswith(".witness.json"):
            docs.append((item.name, "graph"))
    return docs


def load_doc(name):
    return json.loads(resources.files("logcone.data").joinpath(name).read_text())


def oracle_paths(instance, schema):
    errors = jsonschema.Draft202012Validator(schema).iter_errors(instance)
    return sorted(tuple(e.absolute_path) for e in errors)


def assert_agree(instance, schema, check=None):
    """Return jsonschema's error paths after checking the compiled checker
    (built from ``schema`` unless given) against both oracles."""
    check = check or serialize.compile_schema(schema)
    errors = []
    check(instance, (), errors)
    reference = []
    _walk(instance, schema, (), reference)
    assert errors == reference
    want = oracle_paths(instance, schema)
    assert sorted(path for path, _ in errors) == want
    if errors:
        with pytest.raises(FormatError) as err:
            serialize._check(instance, check)
        # one "<pointer>: <message>" item per error, sorted by path
        items = sorted(errors, key=lambda e: e[0])
        # RFC 6901: "~" is written "~0" and "/" is written "~1" inside a token
        pointers = ["/" + "/".join(str(k).replace("~", "~0").replace("/", "~1") for k in p) for p, _ in items]
        assert str(err.value) == "; ".join(f"{q}: {m}" for q, (_, m) in zip(pointers, items))
    else:
        serialize._check(instance, check)
    return want


POOL = [1.0, True, False, None, 0, -1, -1.5, 3.0, "x", "", [], {}, [1, 1.0], [1, True], ["a", "a"],
        [[1], [1.0]], [{"a": 1}, {"a": 1.0}], [{"a": True}, {"a": 1}], {"a": [1, 2]}]


def nodes(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(doc, rng):
    """Replace a node from POOL, delete a key or item, add an unknown key
    or item, or duplicate an array item; one to three times."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(nodes(doc))[1:])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = rng.randrange(4)
        if kind == 0:
            parent[path[-1]] = copy.deepcopy(rng.choice(POOL))
        elif kind == 1:
            del parent[path[-1]]
        elif kind == 2 and isinstance(parent, dict):
            parent[f"unknown{rng.randrange(2)}"] = copy.deepcopy(rng.choice(POOL))
        elif kind == 2:
            parent.append(copy.deepcopy(rng.choice(POOL)))
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
        else:
            parent[path[-1]] = [parent[path[-1]], copy.deepcopy(parent[path[-1]])]
    return doc


@pytest.mark.parametrize("name, kind", corpus_docs())
def test_checker_matches_jsonschema_on_corpus_mutations(name, kind):
    doc = load_doc(name)
    assert_agree(doc, SCHEMAS[kind], CHECKS[kind])
    rng = random.Random(name)
    invalid = sum(bool(assert_agree(mutate(doc, rng), SCHEMAS[kind], CHECKS[kind])) for _ in range(100))
    assert invalid >= 70


# every string in the schemas, so generated objects often use the property names
KEYS = sorted({key for schema in SCHEMAS.values() for key in json.dumps(schema).split('"')[1::2]})
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.sampled_from([1.0, -1.0, 3.0, "logcone/1", "1"])
    | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=6),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(json_values, st.sampled_from(sorted(SCHEMAS)))
def test_checker_matches_jsonschema_on_generated_json(value, kind):
    assert_agree(value, SCHEMAS[kind], CHECKS[kind])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(corpus_docs()), st.data())
def test_checker_matches_jsonschema_on_generated_subtrees(doc, data):
    name, kind = doc
    instance = load_doc(name)
    path = data.draw(st.sampled_from(list(nodes(instance))[1:]))
    parent = instance
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = data.draw(json_values)
    assert_agree(instance, SCHEMAS[kind], CHECKS[kind])


@pytest.mark.parametrize(
    "schema, value, ok",
    [
        ({"type": "integer"}, 1.0, True),
        ({"type": "integer"}, 1.5, False),
        ({"type": "integer"}, True, False),
        ({"uniqueItems": True}, [1, 1.0], False),
        ({"uniqueItems": True}, [1, True], True),
        ({"uniqueItems": True}, [{"a": [1]}, {"a": [1.0]}], False),
        ({"const": 1}, 1.0, True),
        ({"const": 1}, True, False),
        ({"minimum": 0}, True, True),
        ({"uniqueItems": False}, [1, 1], True),
    ],
)
def test_json_value_semantics(schema, value, ok):
    assert (assert_agree(value, schema) == []) is ok


@pytest.mark.parametrize("schema", [{"type": "array", "maxItems": 1}, {"type": "number"}])
def test_unsupported_schema_keyword_raises(schema):
    with pytest.raises(ValueError, match="unsupported schema"):
        serialize.compile_schema(schema)


def slash_tilde_graph(contact):
    return {
        "schema": "logcone/1",
        "divisors": ["a/b"],
        "vertices": [
            {"id": "v1", "genus": 0, "degree": "d", "depth": ["a/b"]},
            {"id": "v2", "genus": 0, "degree": "d", "depth": ["a/b"]},
        ],
        "edges": [{"id": "e~1", "from": "v1", "to": "v2", "depth": ["a/b"], "contact": {"a/b": contact}}],
        "legs": [],
    }


def test_pointers_escape_slash_and_tilde():
    with pytest.raises(FormatError) as err:
        serialize.graph_from_dict(slash_tilde_graph(1.5))
    assert str(err.value) == "/edges/0/contact/a~1b: 1.5 is not of type 'integer'"

    graph = serialize.graph_from_dict(slash_tilde_graph(1))
    for eta, message in [
        ({"e~1": {"a/b": "x"}}, "/eta/e~01/a~1b: bad rational 'x'"),
        ({"e~1": {"c/~": 1}}, "/eta/e~01/c~1~0: label 'c/~' is not in the depth"),
        ({"e~1": [1]}, "/eta/e~01: eta entry for edge 'e~1' must be"),
        ({"f/g": {}}, "/eta/f~1g: the graph has no edge 'f/g'"),
    ]:
        with pytest.raises(FormatError) as err:
            serialize.eta_from_dict({"schema": "logcone/1", "eta": eta}, graph)
        assert str(err.value).startswith(message)


def test_cli_import_does_not_load_jsonschema():
    src = Path(serialize.__file__).resolve().parents[1]
    code = "import sys, logcone.cli; sys.exit('jsonschema' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
