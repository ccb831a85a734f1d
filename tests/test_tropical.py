import random
from fractions import Fraction

import pytest

from logcone import report, tropical
from logcone.corpus import corpus_load
from logcone.graph import StructuralError
from logcone.tropical import (
    InfeasibilityCertificate,
    TropicalWitness,
    decide,
    integralize_witness,
    tropical_certificate,
    tropical_feasibility,
    verify_certificate,
    verify_witness,
)

from helpers import random_free_graph, random_reorientation, random_witness_graph


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


@pytest.mark.parametrize("name", ["d1rd22pt", "ex32"])
def test_build_report_solves_once(name, monkeypatch):
    calls = []
    solve = tropical.positive_kernel_point

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(tropical, "positive_kernel_point", counted)
    entry = corpus_load(name)
    out = report.build_report(entry.graph, b"", entry.context)
    assert len(calls) == 1
    assert out["validation"]["tropical_feasible"] == (name != "ex32")


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
