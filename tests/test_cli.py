import hashlib
import json
import random

import pytest

from logcone.cli import main
from logcone.corpus import corpus_list, corpus_load
from logcone.serialize import (
    FormatError,
    dump_json,
    graph_from_dict,
    graph_to_dict,
    witness_from_dict,
    witness_to_dict,
)
from logcone.tropical import InfeasibilityCertificate, verify_certificate

from helpers import random_witness_graph


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


def test_report_directory(corpus_dir, capsys):
    code, out, _ = run(capsys, "report", str(corpus_dir), "--json")
    assert code == 2  # ex32 is deliberately infeasible
    data = json.loads(out)
    assert "toricex.json" in data
    assert "ex32.json" in data
    assert data["ex32.json"]["validation"]["tropical_feasible"] is False


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
