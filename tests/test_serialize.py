"""``serialize.dump_json`` against the stdlib encoder it replaces.

Every output must equal ``json.dumps(x, indent=2, sort_keys=True,
allow_nan=False) + "\\n"``, and every input the stdlib rejects must raise the
same exception type with the same message.
"""

import collections
import enum
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcone import cli, report
from logcone.corpus import corpus_list, corpus_load
from logcone.serialize import dump_json

from test_cli import corpus_dir  # noqa: F401  (fixture)
from test_schema import json_values as schema_json_values


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


def assert_same(value):
    try:
        want = stdlib(value)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as err:
            dump_json(value)
        assert str(err.value) == str(exc)
    else:
        assert dump_json(value) == want


def test_every_json_subcommand_on_the_corpus(corpus_dir, tmp_path, capsys, monkeypatch):  # noqa: F811
    seen = []

    def checked(data):
        seen.append(data)
        assert_same(data)
        return dump_json(data)

    monkeypatch.setattr(cli, "dump_json", checked)
    for name in corpus_list():
        graph = corpus_load(name).graph
        path = str(corpus_dir / f"{name}.json")
        eta = tmp_path / f"{name}.eta.json"
        eta.write_text(json.dumps({"schema": "logcone/1", "eta": {e.id: {lab: 1 for lab in e.depth} for e in graph.edges}}))
        argvs = [[cmd, path] for cmd in ("validate", "genus", "lattice", "tropical", "cone", "gluing", "ideal", "report")]
        argvs += [["obstruct", path, str(eta)], ["forget", path, "--keep", graph.divisors[0]], ["corpus", name]]
        ctx = corpus_dir / f"{name}.ctx.json"
        if ctx.exists():
            argvs += [["dims", path, "--ctx", str(ctx)], ["validate", path, "--ctx", str(ctx)]]
        for argv in argvs:
            assert cli.main(argv + ["--json"]) in (0, 2), argv
    assert cli.main(["report", str(corpus_dir), "--json"]) == 2
    assert cli.main(["corpus", "--json"]) == 0
    capsys.readouterr()
    assert len(seen) > 12 * len(corpus_list())


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_reports(seed):
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    count = 0
    for name in ("report-witness", "report-free"):
        for item in workloads.WORKLOADS[name].build(seed):
            workloads.prepare(item)
            assert_same(report.build_report(item.graph, item.graph_bytes, item.ctx))
            count += 1
    assert count == 45 + 34


class Small(enum.IntEnum):
    TWO = 2


class Colour(str, enum.Enum):
    RED = "red"


class Real(float):
    def __repr__(self):
        return "Real()"


class Items(list):
    pass


DEEP_LIST, DEEP_DICT = [], {}
for _ in range(100):
    DEEP_LIST, DEEP_DICT = [DEEP_LIST, 1], {"k": DEEP_DICT, "n": [DEEP_LIST]}


@pytest.mark.parametrize(
    "value",
    [
        [True, 1, False, 0, 1.0],
        [1, True],
        [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1],
        [2**64, -(2**64) - 1, 10**300],
        "é☃\U0001f600\x00\x1f\x7f\n\t\"\\/\ud800",
        ["é", "\x00", "plain"],
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        {1: "a", 2.5: "b", -3: "c"},
        {True: 1, False: 0},
        {None: 1},
        {Small.TWO: Small.TWO, 3: [Small.TWO, 3]},
        {Colour.RED: [Colour.RED, "red"]},
        [Real(1.5), Real(-0.0)],
        Items([1, Items(["a"])]),
        collections.OrderedDict([("b", 1), ("a", collections.OrderedDict(c=Real(2.0)))]),
        (1, (2, "a"), [3]),
        {"t": (), "u": (None,)},
        DEEP_LIST,
        DEEP_DICT,
        None,
        "top",
        7,
        2.5,
        True,
    ],
)
def test_hand_cases(value):
    assert_same(value)


@pytest.mark.parametrize(
    "value, error",
    [
        (math.nan, ValueError),
        (math.inf, ValueError),
        (-math.inf, ValueError),
        ([1.0, math.nan], ValueError),
        ({"a": [math.inf]}, ValueError),
        ({math.nan: 1}, ValueError),
        ({math.inf: 1}, ValueError),
        ({-math.inf: 1}, ValueError),
        ([Real("nan")], ValueError),
        (object(), TypeError),
        ({1, 2}, TypeError),
        ([1, {1, 2}], TypeError),
        ({"a": object()}, TypeError),
        ({(1, 2): 1}, TypeError),
        ({1: "a", "b": 2}, TypeError),
    ],
)
def test_rejections_match_the_stdlib(value, error):
    with pytest.raises(error):
        stdlib(value)
    assert_same(value)


keys = st.text(max_size=3) | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False) | st.booleans()
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([-0.0, 1e16, 5e-324, 2**70])
)
json_values = st.recursive(
    scalars | schema_json_values,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=5)
    | st.dictionaries(keys, inner, max_size=3),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_generated_json(value):
    assert_same(value)
