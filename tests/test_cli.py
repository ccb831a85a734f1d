import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from logcone.cli import main
from logcone.corpus import corpus_list, corpus_load
from logcone.lattice import target_basis
from logcone.serialize import (
    FormatError,
    dump_json,
    graph_from_dict,
    graph_to_dict,
    load_witness,
    rational_from_str,
    witness_from_dict,
    witness_to_dict,
)
from logcone.tropical import InfeasibilityCertificate, verify_certificate

from helpers import no_double_description, random_witness_graph, replace_extreme_rays


@pytest.fixture
def corpus_dir(tmp_path):
    from importlib import resources

    for item in resources.files("logcone.data").iterdir():
        if item.name.endswith(".json"):
            (tmp_path / item.name).write_text(item.read_text())
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_graph_round_trip_corpus():
    for name in corpus_list():
        g = corpus_load(name).graph
        assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_round_trip_random():
    rng = random.Random(61)
    for _ in range(25):
        g = random_witness_graph(rng)
        assert graph_from_dict(graph_to_dict(g)) == g


def test_witness_round_trip():
    w = corpus_load("ex32-corrected").witness
    assert witness_from_dict(witness_to_dict(w)) == w


@pytest.mark.parametrize(
    "body, pointer",
    [
        ({"s": []}, "/s"),
        ({"s": {"v1": 3}}, "/s/v1"),
        ({"s": {"v1": {"1": True}}}, "/s/v1/1"),
        ({"s": {"v1": {"1": "1/0"}}}, "/s/v1/1"),
        ({"lambda": ["e1"]}, "/lambda"),
        ({"lambda": {"e1": True}}, "/lambda/e1"),
        ({"lambda": {"e1": 1.5}}, "/lambda/e1"),
    ],
)
def test_bad_witness_is_format_error_with_pointer(tmp_path, body, pointer):
    path = tmp_path / "w.witness.json"
    path.write_text(json.dumps({"schema": "logcone/1", **body}))
    with pytest.raises(FormatError) as err:
        load_witness(path)
    assert str(err.value).startswith(f"{pointer}: ")


def test_rational_from_str_rejects_booleans():
    assert rational_from_str(3) == 3 and rational_from_str("-2/4") == Fraction(-1, 2)
    for value in (True, False):
        with pytest.raises(FormatError):
            rational_from_str(value)


def test_schema_violation_reports_pointer():
    with pytest.raises(FormatError) as err:
        graph_from_dict({"schema": "logcone/1", "divisors": [], "vertices": [{"id": 3}], "edges": [], "legs": []})
    assert "/vertices/0" in str(err.value)


def test_validate_exit_codes(corpus_dir, capsys):
    code, out, _ = run(capsys, "validate", str(corpus_dir / "toricex.json"))
    assert code == 0
    assert "valid" in out

    code, out, _ = run(capsys, "validate", str(corpus_dir / "ex32.json"))
    assert code == 2
    assert "infeasible" in out

    code, _, err = run(capsys, "validate", str(corpus_dir / "missing.json"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["dims", "validate", "report"])
def test_context_with_other_divisors_is_structural_error(corpus_dir, tmp_path, capsys, command):
    ctx = json.loads((corpus_dir / "2lines-case1.ctx.json").read_text())
    ctx["divisors"] = ["1"]
    path = tmp_path / "other.ctx.json"
    path.write_text(json.dumps(ctx))
    code, out, err = run(capsys, command, str(corpus_dir / "2lines-case1.json"), "--ctx", str(path), "--json")
    assert code == 1
    assert out == ""
    assert err == "error: context divisors ['1'] differ from graph divisors ['1', '2']\n"


def test_unknown_corpus_name_prints_the_bare_message(capsys):
    code, out, err = run(capsys, "corpus", "nosuch", "--json")
    assert code == 1
    assert out == ""
    assert err == "error: no corpus entry named 'nosuch'\n"


@pytest.mark.parametrize("name", ["toricex.ctx", "2lines-case1.witness", "../schemas/graph.schema", "../data/toricex"])
def test_corpus_names_only_its_entries(capsys, name):
    # each name reaches a JSON file in the package, but none is an entry
    code, out, err = run(capsys, "corpus", name, "--json")
    assert (code, out) == (1, "")
    assert err == f"error: no corpus entry named {name!r}\n"


@pytest.mark.parametrize("command", ["dims", "report"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ("c1", "no c1 pairing for degree tag 'ghost'"),
        ("pairing", "no divisor pairing for degree tag 'ghost' against '1'"),
    ],
)
def test_context_missing_a_degree_tag_prints_the_bare_message(
    corpus_dir, tmp_path, capsys, command, entry, message
):
    ctx = json.loads((corpus_dir / "2lines-case1.ctx.json").read_text())
    del ctx[entry]["ghost"]
    path = tmp_path / "partial.ctx.json"
    path.write_text(json.dumps(ctx))
    code, out, err = run(capsys, command, str(corpus_dir / "2lines-case1.json"), "--ctx", str(path), "--json")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_text_flag_is_gone(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["genus", str(corpus_dir / "toricex.json"), "--text"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --text" in capsys.readouterr().err


def test_genus_command(tmp_path, capsys):
    doc = {
        "schema": "logcone/1",
        "divisors": [],
        "vertices": [{"id": "v", "genus": 3, "degree": "t", "depth": []}],
        "edges": [],
        "legs": [],
    }
    path = tmp_path / "g.json"
    path.write_text(dump_json(doc))
    code, out, _ = run(capsys, "genus", str(path))
    assert code == 0
    assert out.strip() == "3"


def test_integer_valued_floats_are_read_as_ints(corpus_dir, tmp_path, capsys):
    # JSON Schema counts 3.0 as an integer; it must not leak into the output
    doc = json.loads((corpus_dir / "2lines-case1.json").read_text())
    ctx = json.loads((corpus_dir / "2lines-case1.ctx.json").read_text())
    doc["vertices"][0]["genus"] = 3
    (tmp_path / "int.json").write_text(json.dumps(doc))
    (tmp_path / "int.ctx.json").write_text(json.dumps(ctx))
    for v in doc["vertices"]:
        v["genus"] = float(v["genus"])
    for leg in doc["legs"]:
        leg["index"] = float(leg["index"])
    ctx["dim"] = float(ctx["dim"])
    (tmp_path / "float.json").write_text(json.dumps(doc))
    (tmp_path / "float.ctx.json").write_text(json.dumps(ctx))

    def outputs(stem):
        graph = tmp_path / f"{stem}.json"
        runs = [
            run(capsys, "genus", str(graph)),
            run(capsys, "report", str(graph), "--json"),
            run(capsys, "forget", str(graph), "--keep", "1"),
            run(capsys, "dims", str(graph), "--ctx", str(tmp_path / f"{stem}.ctx.json")),
        ]
        sha = hashlib.sha256(graph.read_bytes()).hexdigest()
        return [(code, out.replace(sha, "<sha>")) for code, out, _ in runs]

    got = outputs("float")
    assert got[0] == (0, "3\n")
    assert got == outputs("int")


def test_deeply_nested_json_is_format_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "genus", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: not valid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "content",
    [
        b'{"schema": "logcone/1", "genus": ' + b"7" * 5000 + b"}",  # past the int-conversion digit limit
        b"\xff\xfe{}",  # a UTF-16 byte-order mark: not UTF-8
    ],
)
def test_undecodable_json_is_format_error_naming_the_file(corpus_dir, tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "genus", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not valid JSON: ")
    assert "set_int_max_str_digits" not in err
    # in a directory report the message is the only sign of which file failed
    (corpus_dir / "bad.json").write_bytes(content)
    code, out, err = run(capsys, "report", str(corpus_dir), "--json")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {corpus_dir / 'bad.json'}: not valid JSON: ")


def test_lattice_and_tropical_json(corpus_dir, capsys):
    code, out, _ = run(capsys, "lattice", str(corpus_dir / "toricex.json"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kernel_basis"] == [[1, 1, 2, 2]]
    assert data["cokernel_torsion"] == [2]
    assert data["component_count"] == 2

    code, out, _ = run(capsys, "tropical", str(corpus_dir / "ex32.json"), "--json")
    assert code == 2
    assert json.loads(out)["feasible"] is False


def test_tropical_exit_codes_and_certificate(corpus_dir, capsys):
    code, out, _ = run(capsys, "tropical", str(corpus_dir / "toricex.json"))
    assert code == 0
    assert out.startswith("feasible")

    code, out, _ = run(capsys, "tropical", str(corpus_dir / "ex32.json"))
    assert code == 2
    assert out.splitlines()[0] == "infeasible"
    assert "  multipliers[e1] = {'1': -1, '2': 1}" in out.splitlines()
    assert "duals" not in out

    code, out, _ = run(capsys, "tropical", str(corpus_dir / "ex32.json"), "--json")
    assert code == 2
    cert = json.loads(out)["certificate"]
    assert set(cert) == {"multipliers"}
    multipliers = {(eid, lab): y for eid, row in cert["multipliers"].items() for lab, y in row.items()}
    ok, problems = verify_certificate(corpus_load("ex32").graph, InfeasibilityCertificate(multipliers))
    assert ok, problems


def test_cone_gluing_ideal_dims(corpus_dir, capsys):
    code, out, _ = run(capsys, "cone", str(corpus_dir / "d1rd22pt.json"), "--json")
    assert code == 0
    assert len(json.loads(out)["extreme_rays"]) == 4

    code, out, _ = run(capsys, "gluing", str(corpus_dir / "toricex.json"), "--json")
    assert code == 0
    assert len(json.loads(out)["exponents"]) == 4

    code, out, _ = run(capsys, "ideal", str(corpus_dir / "toricex.json"), "--json")
    assert code == 0
    assert json.loads(out)["exponents"]

    code, out, _ = run(
        capsys,
        "dims",
        str(corpus_dir / "d1rd22pt.json"),
        "--ctx",
        str(corpus_dir / "d1rd22pt.ctx.json"),
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["main_dim"] == 7
    assert data["stratum_dim"] == 4


def test_forget_command(corpus_dir, capsys):
    code, out, _ = run(capsys, "forget", str(corpus_dir / "toricex.json"), "--keep", "1")
    assert code == 0
    data = json.loads(out)
    assert data["divisors"] == ["1"]
    restricted = graph_from_dict(data)
    assert restricted.vertex("v2").depth == frozenset()


def test_obstruct_command(corpus_dir, tmp_path, capsys):
    eta = {
        "schema": "logcone/1",
        "eta": {
            "e1": {"1": 1, "2": 1},
            "e2": {"1": 1, "2": 1},
        },
    }
    path = tmp_path / "eta.json"
    path.write_text(dump_json(eta))
    code, out, _ = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path), "--json")
    assert code == 0
    assert json.loads(out)["is_identity"] is True

    eta["eta"]["e1"]["1"] = 1.01
    path.write_text(dump_json(eta))
    code, out, _ = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path), "--json")
    assert code == 2
    assert json.loads(out)["is_identity"] is False

    code, out, _ = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path))
    assert code == 2
    assert out.splitlines()[0] == "not identity"


def test_obstruct_rejects_a_tolerance_inside_the_eta_file(corpus_dir, tmp_path, capsys):
    # the tolerance is the --tol option; a "tol" key would be ignored, so it is an error
    eta = {"schema": "logcone/1", "eta": {"e1": {"1": 1.01, "2": 1}, "e2": {"1": 1, "2": 1}}, "tol": 1e-1}
    path = tmp_path / "eta.json"
    path.write_text(dump_json(eta))
    code, out, err = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path), "--json")
    assert code == 1
    assert out == ""
    assert err == "error: /: Additional properties are not allowed ('tol' was unexpected)\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_obstruct_rejects_bad_tolerance(corpus_dir, tmp_path, capsys, tol):
    # e1/1 = 1.01 is not the identity at any usable tolerance
    eta = {"schema": "logcone/1", "eta": {"e1": {"1": 1.01, "2": 1}, "e2": {"1": 1, "2": 1}}}
    path = tmp_path / "eta.json"
    path.write_text(dump_json(eta))
    code, out, err = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path), f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: tolerance must be positive and finite, not ")


def strict_json(text):
    """json.loads that rejects the non-JSON tokens NaN, Infinity and -Infinity."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


EXTREME_ETAS = {
    # every entry equal: eta^m = 1 for the character [1, 1, -1, -1]
    "huge": ({"e1": {"1": 1e200, "2": 1e200}, "e2": {"1": 1e200, "2": 1e200}}, 0),
    "tiny": ({"e1": {"1": 1e-200, "2": 1e-200}, "e2": {"1": 1e-200, "2": 1e-200}}, 0),
    # eta^m = 1e800 overflows a float: a violation with a finite distance
    "overflow": ({"e1": {"1": 1e200, "2": 1e200}, "e2": {"1": 1e-200, "2": 1e-200}}, 2),
}


@pytest.mark.parametrize("name", sorted(EXTREME_ETAS))
def test_obstruct_extreme_eta(corpus_dir, tmp_path, capsys, name):
    eta, want = EXTREME_ETAS[name]
    path = tmp_path / "eta.json"
    path.write_text(dump_json({"schema": "logcone/1", "eta": eta}))
    code, out, _ = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path), "--json")
    assert code == want
    data = strict_json(out)
    assert data["is_identity"] is (want == 0)
    if want:
        assert data["violations"] == [{"character": [1, 1, -1, -1], "distance": sys.float_info.max}]
    code, out, _ = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path))
    assert code == want
    assert out.splitlines()[0] == ("identity" if want == 0 else "not identity")


def json_runs(corpus_dir, tmp_path):
    """argv of every subcommand with --json over the corpus, plus the
    obstruction test on unit, perturbed and extreme etas."""
    for name in corpus_list():
        graph = str(corpus_dir / f"{name}.json")
        ctx = str(corpus_dir / f"{name}.ctx.json")
        for command in ("validate", "genus", "lattice", "tropical", "cone", "gluing", "ideal", "report"):
            yield [command, graph, "--json"]
        yield ["validate", graph, "--ctx", ctx, "--json"]
        yield ["dims", graph, "--ctx", ctx, "--json"]
        yield ["forget", graph, "--keep", ",".join(corpus_load(name).graph.divisors[:1]), "--json"]
        yield ["corpus", name, "--json"]
        labels = target_basis(corpus_load(name).graph).labels
        for value in (1, 1.01, 1e200, 1e-200, 1e300):
            eta = {}
            for i, (_, edge, label) in enumerate(labels):
                eta.setdefault(edge, {})[label] = value if i % 2 else 1
            path = tmp_path / f"{name}-{value}.eta.json"
            path.write_text(dump_json({"schema": "logcone/1", "eta": eta}))
            yield ["obstruct", graph, str(path), "--json"]
    yield ["report", str(corpus_dir), "--json"]
    yield ["corpus", "--json"]
    for name, (eta, _) in sorted(EXTREME_ETAS.items()):
        path = tmp_path / f"toricex-{name}.eta.json"
        path.write_text(dump_json({"schema": "logcone/1", "eta": eta}))
        yield ["obstruct", str(corpus_dir / "toricex.json"), str(path), "--json"]


def test_every_json_output_is_strict_json(corpus_dir, tmp_path, capsys):
    runs = 0
    for argv in json_runs(corpus_dir, tmp_path):
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), (argv, err)
        strict_json(out)
        runs += 1
    assert runs > 150


def test_dump_json_refuses_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dump_json({"distance": value})


def test_report_has_no_tolerance(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", str(corpus_dir / "toricex.json"), "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edge, row, pointer",
    [
        ("e1", {"1": [1e400, 0], "2": 1}, "/eta/e1/1"),
        ("e1", {"1": "1" + "0" * 400, "2": 1}, "/eta/e1/1"),
        ("e9", {"1": 1}, "/eta/e9"),
        ("e1", {"1": 1, "2": 1, "7": 1}, "/eta/e1/7"),
    ],
)
def test_obstruct_rejects_bad_eta(corpus_dir, tmp_path, capsys, edge, row, pointer):
    eta = {"e1": {"1": 1, "2": 1}, "e2": {"1": 1, "2": 1}}
    eta[edge] = row
    path = tmp_path / "eta.json"
    # json.dumps writes the float inf as Infinity; the file carries 1e400
    path.write_text(json.dumps({"schema": "logcone/1", "eta": eta}).replace("Infinity", "1e400"))
    code, out, err = run(capsys, "obstruct", str(corpus_dir / "toricex.json"), str(path), "--json")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {pointer}: ")


def test_report_single_file_deterministic(corpus_dir, capsys):
    code, out1, _ = run(capsys, "report", str(corpus_dir / "toricex.json"), "--json")
    assert code == 0
    code, out2, _ = run(capsys, "report", str(corpus_dir / "toricex.json"), "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["component_count"] == 2
    assert data["lattice"]["kernel_basis"] == [[1, 1, 2, 2]]
    assert len(data["gluing"]["exponents"]) == 4
    assert "input_sha256" in data["provenance"]


# SHA-256 of `logcone report <entry>.json --json` (the entry's context
# paired from its directory), frozen so that any change to the canonical
# report bytes fails here rather than passing unnoticed
REPORT_SHA256 = {
    "2lines-case1": "e23924394463b5728150a6ad5e1f2e5bd145a33a970eac6e16468ecff10dbbf2",
    "2lines-case2": "9b3535d15a5af1cfcebbe53c169373a21197bcd9312ccc4d95eb040b9289aa89",
    "2lines-case3": "d4f36919649075329ca13ed2331f358797376b535c9f689316ca9c7ae44d6932",
    "d1rd22pt": "d45d7bd4084c01a7e642dff0b95b5674cb0bbd1f883cfa52b29ffe9dbe9d5f60",
    "ddecomp-d2": "5ee1a30f2d4f73d599cd340538a7f8c94fed62b44232d562f25afcda250cd8dc",
    "ddecomp-d3": "a2085fae829a7850c5224359c207a4ff25b5490aba9fec7d0afabbf80892644a",
    "ddecomp-d3-figure-genus": "8b07c28645f95286212911078a679ff81cdf3a4fa47bcabddda5cb96116ebd65",
    "ddecomp-d4": "e67392825839532459da7562e76af45c5dbf4507a59564d5e7ebc1353557ccc0",
    "ex32": "56e80d82d8a85ba8543393511a0214af0a38c643a5a93337d14bb3e59db8ecb8",
    "ex32-corrected": "78ad550ad14582adcdba135cf83c11adff262b6efb4ea5b2cf6c61db4158cecf",
    "toricex": "e017950fdfdf33f9dd553fe2fd881dcced907f12e6cd92fc40af03720853192e",
}


def test_report_bytes_are_frozen(corpus_dir, capsys):
    assert sorted(REPORT_SHA256) == corpus_list()
    for name, digest in REPORT_SHA256.items():
        code, out, _ = run(capsys, "report", str(corpus_dir / f"{name}.json"), "--json")
        assert code in (0, 2)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_one_divisor_reports_keep_their_bytes_without_the_double_description(corpus_dir, capsys, monkeypatch):
    replace_extreme_rays(monkeypatch, no_double_description)
    names = [name for name in corpus_list() if len(corpus_load(name).graph.divisors) == 1]
    assert names
    for name in names:
        code, out, _ = run(capsys, "report", str(corpus_dir / f"{name}.json"), "--json")
        assert code in (0, 2)
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[name], name


def test_multi_divisor_reports_take_the_double_description(corpus_dir, capsys, monkeypatch):
    from logcone import dd

    calls = []
    extreme_rays = dd.extreme_rays
    replace_extreme_rays(monkeypatch, lambda halfspaces: calls.append(halfspaces) or extreme_rays(halfspaces))
    assert len(corpus_load("toricex").graph.divisors) == 2
    code, out, _ = run(capsys, "report", str(corpus_dir / "toricex.json"), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256["toricex"]
    assert len(calls) == 1


def test_report_directory(corpus_dir, capsys):
    code, out, _ = run(capsys, "report", str(corpus_dir), "--json")
    assert code == 2  # ex32 is deliberately infeasible
    data = json.loads(out)
    assert "toricex.json" in data
    assert "ex32.json" in data
    assert data["ex32.json"]["validation"]["tropical_feasible"] is False


def test_report_directory_reads_only_graph_files(corpus_dir, tmp_path, capsys):
    target = tmp_path / "in"
    target.mkdir()
    (target / "toricex.json").write_bytes((corpus_dir / "toricex.json").read_bytes())
    (target / "toricex.ctx.json").write_bytes((corpus_dir / "toricex.ctx.json").read_bytes())
    (target / "toricex.eta.json").write_text("not a graph")
    (target / "nested.json").mkdir()
    code, out, err = run(capsys, "report", str(target), "--json")
    assert (code, err) == (0, "")
    assert list(json.loads(out)) == ["toricex.json"]


@pytest.mark.parametrize("name, decoy", [("g1", ".ctx.json"), ("graph.txt", "grap.ctx.json")])
def test_report_pairs_a_context_only_by_the_full_stem(corpus_dir, tmp_path, capsys, name, decoy):
    graph = tmp_path / "in" / name
    graph.parent.mkdir()
    graph.write_bytes((corpus_dir / "toricex.json").read_bytes())
    (graph.parent / decoy).write_text("not a context")
    code, out, err = run(capsys, "report", str(graph), "--json")
    assert (code, err) == (0, "")
    assert "dims" not in json.loads(out)
    # the context named after the whole file name is paired
    (graph.parent / f"{name}.ctx.json").write_bytes((corpus_dir / "toricex.ctx.json").read_bytes())
    code, out, err = run(capsys, "report", str(graph), "--json")
    assert (code, err) == (0, "")
    assert "dims" in json.loads(out)


def test_corpus_commands(capsys):
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "toricex" in out

    code, out, _ = run(capsys, "corpus", "toricex", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["expected"]["component_count"] == 2


def test_color_toggle(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("LOGCONE_COLOR", "1")
    _, out, _ = run(capsys, "validate", str(corpus_dir / "toricex.json"))
    assert "\x1b[32m" in out
    monkeypatch.delenv("LOGCONE_COLOR")
    _, out, _ = run(capsys, "validate", str(corpus_dir / "toricex.json"))
    assert "\x1b[" not in out
