import collections
import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logcone import report, tropical
from logcone.cli import main
from logcone.cone import sigma_cone
from logcone.corpus import corpus_list, corpus_load
from logcone.graph import (
    DecoratedDualGraph,
    EdgeData,
    StructuralError,
    VertexData,
    enumerate_edge_decorations,
    smooth_divisor_partial_order,
    validate_graph,
)
from logcone.lattice import LatticeSummary, build_rho, lattice_summary
from logcone.serialize import graph_to_dict, witness_from_dict
from logcone.tropical import (
    InfeasibilityCertificate,
    TropicalWitness,
    decide,
    integralize_witness,
    ray_sum_witness,
    tropical_certificate,
    tropical_feasibility,
    verify_certificate,
    verify_witness,
)

from helpers import (
    matching_context,
    no_double_description,
    random_free_graph,
    random_layered_graph,
    random_one_divisor_graph,
    random_reorientation,
    random_witness_graph,
    replace_extreme_rays,
    workload_graphs,
    workload_items,
)
from reference_tropical import decide as reference_decide


def toricex_with_e1(depth, contact):
    g = corpus_load("toricex").graph
    e1, e2 = g.edges
    return dataclasses.replace(g, edges=(dataclasses.replace(e1, depth=frozenset(depth), contact=contact), e2))


def axiom_valid_graphs():
    """The corpus, the helper families with reorientations, and every
    graph of the benchmark's workloads: all of them satisfy the axioms."""
    rng = random.Random(77)
    graphs = [corpus_load(name).graph for name in corpus_list()]
    for _ in range(40):
        graphs += [random_witness_graph(rng), random_free_graph(rng, n_divisors=rng.randint(1, 3)), random_layered_graph(rng)]
    graphs += [random_reorientation(g, rng) for g in graphs]
    return graphs + workload_graphs()


def test_equalities_are_the_nonzero_rows_of_minus_rho_on_its_domain():
    # the solve's columns are rho's domain labels, (vertex, label) first and
    # then the edges with a nonzero contact; on a graph that satisfies the
    # axioms its rows are the nonzero rows of -rho, which ray_sum_witness needs
    for g in axiom_valid_graphs():
        assert not validate_graph(g).violations
        dom, tgt, rho = build_rho(g)
        contact = {e.id: any(e.contact) for e in g.edges}
        columns, keys, rows = tropical._equalities(g)
        assert columns == [lab for lab in dom.labels if lab[0] == "vertex"] + [
            lab for lab in dom.labels if lab[0] == "edge" and contact[lab[1]]
        ]
        # a dropped column, an edge of zero contact, is zero in rho
        dropped = [j for j, lab in enumerate(dom.labels) if lab not in columns]
        assert not any(row[j] for row in rho for j in dropped)
        at = [dom.labels.index(col) for col in columns]
        minus = [([-row[j] for j in at], (eid, label)) for row, (_, eid, label) in zip(rho, tgt.labels)]
        assert rows == [row for row, _ in minus if any(row)]
        assert keys == [key for row, key in minus if any(row)]


def assert_decided(g, got, want):
    """``got`` from :func:`decide` against ``want`` from the reference solve:
    equal with several divisors; with one, where the partial order decides,
    the same verdict and an answer that verifies."""
    if len(g.divisors) != 1:
        assert got == want
        return
    witness, cert = got
    assert (witness is None) == (want[0] is None) != (cert is None)
    ok, problems = verify_witness(g, witness) if cert is None else verify_certificate(g, cert)
    assert ok, problems
    if cert is not None:
        assert all(isinstance(y, int) for y in cert.multipliers.values())


def failure_kind(g):
    """The partial order's failure kind, with a nonzero-contact loop told
    apart from two parallel edges that disagree."""
    kind, *ends = smooth_divisor_partial_order(g).failure
    return "loop" if kind == "inconsistent-parallel-edges" and ends[0] == ends[1] else kind


def test_decide_matches_the_solve_over_its_own_labels():
    graphs = axiom_valid_graphs()
    # toricex with e1 redecorated: most of these break an axiom, and the
    # solve still covers every divisor label
    for depth in ((), ("1",), ("2",), ("1", "2")):
        graphs += [toricex_with_e1(depth, contact) for contact in itertools.product(range(-2, 3), repeat=2)]
    rng = random.Random(78)
    graphs += [random_one_divisor_graph(rng) for _ in range(300)]
    assert sum(bool(validate_graph(g).violations) for g in graphs) > 50
    outcomes = set()
    for g in graphs:
        got = decide(g)
        assert_decided(g, got, reference_decide(g))
        outcomes.add((len(g.divisors) == 1, got[0] is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("seed", [0, 1])
def test_decide_on_every_report_input(seed):
    items = workload_items(seed, op="report")
    assert sum(len(item.graph.divisors) == 1 for item in items) > 30
    for item in items:
        assert_decided(item.graph, decide(item.graph), reference_decide(item.graph))


def test_one_divisor_graphs_never_run_the_solve(monkeypatch, tmp_path, capsys):
    # the partial order decides every one-divisor graph, axiom-violating
    # ones included, wherever the package asks for a verdict, and a
    # report's cone needs no double description either
    def no_solve(*args):
        raise AssertionError("the exact solve ran on a one-divisor graph")

    monkeypatch.setattr(tropical, "positive_kernel_point", no_solve)
    replace_extreme_rays(monkeypatch, no_double_description)
    rng = random.Random(79)
    entry = corpus_load("d1rd22pt")
    cases = [(entry.graph, entry.context)]
    for _ in range(1000):
        g = random_one_divisor_graph(rng)
        cases.append((g, matching_context(g, rng)))
    kinds = collections.Counter()
    violations = collections.Counter()
    for n, (g, ctx) in enumerate(cases):
        got = decide(g)
        assert_decided(g, got, reference_decide(g))
        feasible = got[0] is not None
        if not feasible:
            kinds[failure_kind(g)] += 1
        validation = validate_graph(g, ctx)
        violations.update({v.code for v in validation.violations})
        assert validation.tropical_feasible in (None, feasible)
        out = report.build_report(g, b"", ctx)
        assert out.get("tropical", {"feasible": feasible})["feasible"] == feasible
        path = tmp_path / f"g{n}.json"  # a new file each time: rewriting one is slow on some file systems
        path.write_text(json.dumps(graph_to_dict(g)))
        assert main(["tropical", str(path), "--json"]) == (0 if feasible else 2)
        assert json.loads(capsys.readouterr().out) == report.tropical_to_dict(*got)
        enumerate_edge_decorations(g, ctx, bound=1)
    assert set(kinds) == {"loop", "inconsistent-parallel-edges", "depth-level-clash", "cycle", "order-violation"}
    assert min(kinds.values()) >= 10
    assert {"edge-depth", "contact-support", "connectivity"} <= set(violations)


def one_divisor_graph(vertices, edges):
    """A one-divisor graph from (id, depth) vertices and (tail, head, contact)
    edges named e0, e1, ..., every edge at depth {1}."""
    one = frozenset({"1"})
    return DecoratedDualGraph(
        ("1",),
        tuple(VertexData(vid, 0, "t", depth) for vid, depth in vertices),
        tuple(EdgeData(f"e{k}", a, b, one, (c,)) for k, (a, b, c) in enumerate(edges)),
        (),
    )


def test_order_certificates_ignore_hash_seed(tmp_path):
    # each certificate walks zero-contact paths and picks the first failure
    # in graph order; set order, which the hash seed changes, must not enter
    one = frozenset({"1"})
    cases = {
        # classes {a, x, b} and {c, y, d}, each above the other
        "cycle": (
            one_divisor_graph(
                [(vid, one) for vid in "abcdxy"],
                [("a", "x", 0), ("x", "b", 0), ("c", "y", 0), ("d", "y", 0), ("a", "c", 1), ("b", "d", -2)],
            ),
            {"e0": 1, "e1": 1, "e2": -1, "e3": 1, "e4": -1, "e5": 1},
        ),
        # depth-{} z at the level of p through zero contacts
        "depth-level-clash": (
            one_divisor_graph(
                [("p", one), ("q", one), ("r", one), ("z", frozenset())],
                [("p", "q", 0), ("r", "q", 0), ("z", "r", 0), ("p", "z", 1)],
            ),
            {"e0": -1, "e1": 1, "e2": 1},
        ),
        "inconsistent-parallel-edges": (
            one_divisor_graph([("u", one), ("w", one)], [("u", "w", 0), ("w", "u", 2)]),
            {"e0": -1, "e1": -1},
        ),
    }
    src = Path(tropical.__file__).resolve().parents[1]
    for kind, (g, multipliers) in cases.items():
        assert failure_kind(g) == kind
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(graph_to_dict(g)))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            command = [sys.executable, "-m", "logcone.cli", "tropical", str(path), "--json"]
            result = subprocess.run(command, cwd=src, env=env, capture_output=True)
            assert result.returncode == 2, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1], kind
        cert = json.loads(outputs[0])["certificate"]
        assert cert == {"multipliers": {eid: {"1": y} for eid, y in multipliers.items()}}
        assert verify_certificate(g, InfeasibilityCertificate({(eid, "1"): y for eid, y in multipliers.items()})) == (True, [])
    # a feasible layered graph whose upper classes have several predecessors
    # each, {d, x} three of them: the levels come from a topological sorter
    # fed sets, and the witness must not follow their order
    g = one_divisor_graph(
        [("z", frozenset())] + [(vid, one) for vid in "abcdxef"],
        [("z", "a", 1), ("z", "b", 2), ("z", "c", 1), ("a", "d", 1), ("b", "x", 1), ("c", "d", 2), ("d", "x", 0)]
        + [("a", "e", 2), ("c", "e", 1), ("d", "f", 1), ("e", "f", 1), ("a", "f", 3)],
    )
    levels = dict(z=0, a=1, b=1, c=1, d=2, x=2, e=2, f=3)
    assert smooth_divisor_partial_order(g).levels == levels
    path = tmp_path / "layered.json"
    path.write_text(json.dumps(graph_to_dict(g)))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        command = [sys.executable, "-m", "logcone.cli", "tropical", str(path), "--json"]
        result = subprocess.run(command, cwd=src, env=env, capture_output=True)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    witness = witness_from_dict(json.loads(outputs[0])["witness"])
    assert witness.s == {(vid, "1"): level for vid, level in levels.items() if vid != "z"}
    assert verify_witness(g, witness) == (True, [])


def test_tropical_decides_axiom_violating_graphs_over_every_label(tmp_path, capsys):
    # the solve skips the axiom check: an edge's equalities cover every
    # divisor label, its depth set's or not
    g = toricex_with_e1({"1"}, (-2, 0))
    assert [v.code for v in validate_graph(g).violations] == ["edge-depth"]
    witness, cert = decide(g)
    assert witness is None
    assert cert.multipliers == {("e1", "2"): 1, ("e2", "2"): -1}
    assert verify_certificate(g, cert) == (True, [])
    # so ``logcone tropical`` exits 2 on infeasibility alone: an
    # axiom-violating graph that is feasible exits 0
    for graph, code in ((g, 2), (toricex_with_e1({"1"}, (-2, 2)), 0)):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_dict(graph)))
        assert main(["tropical", str(path), "--json"]) == code
        assert json.loads(capsys.readouterr().out)["feasible"] == (code == 0)
        assert main(["validate", str(path)]) == 2
        capsys.readouterr()


def test_ex32_infeasible_with_certificate():
    g = corpus_load("ex32").graph
    assert tropical_feasibility(g) is None
    cert = tropical_certificate(g)
    assert cert is not None
    ok, problems = verify_certificate(g, cert)
    assert ok, problems


@pytest.mark.parametrize("n_divisors", [1, 2])
def test_certificates_verify_on_random_infeasible_graphs(n_divisors):
    rng = random.Random(40 + n_divisors)
    infeasible = 0
    for _ in range(60):
        g = random_free_graph(rng, n_divisors=n_divisors)
        witness, cert = decide(g)
        assert (witness is None) != (cert is None)
        if cert is None:
            continue
        infeasible += 1
        assert all(isinstance(y, int) for y in cert.multipliers.values())
        ok, problems = verify_certificate(g, cert)
        assert ok, problems
    assert infeasible >= 10


def test_verify_certificate_rejects_tampering():
    g = corpus_load("ex32").graph
    cert = tropical_certificate(g)
    negated = InfeasibilityCertificate({k: -y for k, y in cert.multipliers.items()})
    ok, problems = verify_certificate(g, negated)
    assert not ok
    assert any("negative" in p for p in problems)
    ok, problems = verify_certificate(g, InfeasibilityCertificate({}))
    assert not ok
    assert problems == ["y^T A vanishes on every position and length"]


def test_verify_certificate_rejects_unknown_indices():
    g = corpus_load("ex32").graph
    with pytest.raises(StructuralError):
        verify_certificate(g, InfeasibilityCertificate({("e9", "1"): 1}))
    with pytest.raises(StructuralError):
        verify_certificate(g, InfeasibilityCertificate({("e1", "7"): 1}))


@pytest.mark.parametrize("name", corpus_list())
def test_build_report_solves_once(name, monkeypatch):
    # the gluing cone decides every feasible report; only an infeasible one
    # runs the exact solve, once, for its certificate
    calls = []
    solve = tropical.positive_kernel_point

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(tropical, "positive_kernel_point", counted)
    entry = corpus_load(name)
    out = report.build_report(entry.graph, b"", entry.context)
    assert len(calls) == (1 if name == "ex32" else 0)
    assert out["validation"]["tropical_feasible"] == (name != "ex32")


def test_build_report_never_reads_the_characters(monkeypatch):
    def unread(summary):
        raise AssertionError("build_report read LatticeSummary.characters")

    monkeypatch.setattr(LatticeSummary, "characters", property(unread))
    rng = random.Random(73)
    for name in corpus_list():
        entry = corpus_load(name)
        report.build_report(entry.graph, b"", entry.context)
    for family in (random_witness_graph, random_free_graph, random_layered_graph):
        for _ in range(20):
            g = family(rng)
            report.build_report(g, b"", matching_context(g, rng))


def test_corrected_ex32_feasible_and_stored_witness_verifies():
    entry = corpus_load("ex32-corrected")
    assert tropical_feasibility(entry.graph) is not None
    ok, violations = verify_witness(entry.graph, entry.witness)
    assert ok, violations


def test_2lines_witnesses_verify():
    for name in ("2lines-case1", "2lines-case2", "2lines-case3"):
        entry = corpus_load(name)
        ok, violations = verify_witness(entry.graph, entry.witness)
        assert ok, violations


def test_ddecomp_feasible():
    entry = corpus_load("ddecomp-d2")
    witness = tropical_feasibility(entry.graph)
    assert witness is not None
    ok, violations = verify_witness(entry.graph, witness)
    assert ok, violations


def test_round_trip_on_random_graphs():
    rng = random.Random(31)
    for _ in range(40):
        g = random_witness_graph(rng, legs=False)
        witness = tropical_feasibility(g)
        assert witness is not None
        ok, violations = verify_witness(g, witness)
        assert ok, violations


def test_feasibility_orientation_invariant():
    rng = random.Random(32)
    for _ in range(30):
        g = random_free_graph(rng)
        a = tropical_feasibility(g) is not None
        b = tropical_feasibility(random_reorientation(g, rng)) is not None
        assert a == b


def test_witness_homogeneity():
    entry = corpus_load("2lines-case2")
    w = entry.witness
    scaled = TropicalWitness(
        {k: v * Fraction(7, 3) for k, v in w.s.items()},
        {k: v * Fraction(7, 3) for k, v in w.lam.items()},
    )
    ok, violations = verify_witness(entry.graph, scaled)
    assert ok, violations


def test_verify_rejects_zero_positions():
    entry = corpus_load("2lines-case1")
    bad = TropicalWitness({}, {"e": Fraction(1)})
    ok, violations = verify_witness(entry.graph, bad)
    assert not ok
    assert violations


def test_verify_rejects_unknown_indices():
    entry = corpus_load("2lines-case1")
    with pytest.raises(StructuralError):
        verify_witness(entry.graph, TropicalWitness({("nope", "1"): Fraction(1)}, {}))
    with pytest.raises(StructuralError):
        verify_witness(entry.graph, TropicalWitness({}, {"nope": Fraction(1)}))


def test_verify_rejects_loop_with_nonzero_contact():
    import dataclasses

    entry = corpus_load("2lines-case1")
    g = entry.graph
    loop = dataclasses.replace(g.edges[0], id="loop", v1="v2", v2="v2")
    g2 = dataclasses.replace(g, edges=g.edges + (loop,))
    w = TropicalWitness(dict(entry.witness.s), dict(entry.witness.lam))
    w.lam["loop"] = Fraction(1)
    ok, violations = verify_witness(g2, w)
    assert not ok
    assert any("loop" in v for v in violations)


def test_integralize():
    w = TropicalWitness(
        {("v", "1"): Fraction(1, 2)},
        {"e": Fraction(1, 3)},
    )
    scaled = integralize_witness(w)
    assert scaled.s[("v", "1")] == 3
    assert scaled.lam["e"] == 2
    again = integralize_witness(scaled)
    assert again == scaled


def test_integral_witness_obtainable_for_ddecomp():
    entry = corpus_load("ddecomp-d3")
    witness = tropical_feasibility(entry.graph)
    integral = integralize_witness(witness)
    ok, violations = verify_witness(entry.graph, integral)
    assert ok, violations
    for value in list(integral.s.values()) + list(integral.lam.values()):
        assert value.denominator == 1


def test_feasible_exactly_when_the_gluing_cone_covers_every_coordinate():
    # ker rho meets the open positive orthant exactly when every domain
    # coordinate is positive on some extreme ray of sigma, and then the sum
    # of the rays is such a point: a witness with the vertex coordinates as
    # positions and the edge coordinates as lengths
    rng = random.Random(71)
    draws = [corpus_load(name).graph for name in corpus_list()]
    for n in range(1000):
        if n % 3 == 0:
            draws.append(random_witness_graph(rng))
        elif n % 3 == 1:
            draws.append(random_free_graph(rng, n_divisors=rng.randint(1, 3)))
        else:
            draws.append(random_layered_graph(rng))
    feasible = infeasible = 0
    for g in draws + [random_reorientation(g, rng) for g in draws]:
        labels = lattice_summary(g).domain.labels
        rays = sigma_cone(g).extreme_rays
        covered = all(any(r[j] for r in rays) for j in range(len(labels)))
        witness = ray_sum_witness(labels, rays)
        assert (witness is not None) == covered == (decide(g)[0] is not None)
        if not covered:
            infeasible += 1
            continue
        feasible += 1
        ok, violations = verify_witness(g, witness)
        assert ok, violations
    assert feasible > 1000 and infeasible > 300
