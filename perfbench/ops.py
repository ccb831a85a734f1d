"""The two benchmark operations and the checks on their outputs.

Report op: canonical graph and context bytes go through ``json.loads``,
``serialize.graph_from_dict`` / ``context_from_dict``, ``report.build_report``
and ``serialize.dump_json``; this is ``logcone report --json`` without the
process start.

Library op: the README library path on a prepared graph (lattice summary,
component count, gluing cone, gluing equations, toric ideal with unit-entry
elimination), then the obstruction test on an eta planted in the image torus.

Every call goes through a module attribute, so a Tracer sees it.  Checks
run outside the timed region and call no traced function; each returns a
list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass

from logcone import cone, lattice, report, serialize
from logcone import intlinalg as il
from logcone.dims import expected_dim_smooth_depth
from logcone.graph import smooth_divisor_partial_order
from logcone.lattice import build_rho
from logcone.tropical import verify_witness

import gen

# Characters with entries this large make the float evaluation of eta^m
# lose the 1e-9 tolerance (relative error ~ |m| * 2^-52 per factor).  An
# obstruction test that rejects an in-image eta, or overflows, because the
# character basis has such entries is the known character-basis defect: it
# is counted as a failed op but does not make the run incorrect.  Any other
# failure does.
HUGE_CHARACTER = 10**6
FALSE_NEGATIVE = "known defect: obstruction test rejects an in-image eta (huge character entries)"
OVERFLOW = "known defect: obstruction test overflows on an in-image eta (huge character entries)"
KNOWN_DEFECTS = (FALSE_NEGATIVE, OVERFLOW)


def report_op(item) -> str:
    graph = serialize.graph_from_dict(json.loads(item.graph_bytes))
    ctx = serialize.context_from_dict(json.loads(item.ctx_bytes))
    return serialize.dump_json(report.build_report(graph, item.graph_bytes, ctx))


@dataclass(frozen=True)
class LibraryResult:
    summary: object
    cone: object
    ideal: object
    verdict: object


def library_op(item) -> LibraryResult:
    g = item.graph
    summary = lattice.lattice_summary(g)
    lattice.component_count(g)
    sigma = cone.sigma_cone(g)
    cone.gluing_equations(g)
    ideal = cone.toric_ideal_generators(g)
    cone.eliminate_unit_entries(ideal)
    verdict = cone.obstruction_test(g, item.eta)
    return LibraryResult(summary, sigma, ideal, verdict)


def _expected_value(key, rep, item):
    """The report's value for a corpus ``expected`` key, or the key's own
    value when it is an annotation nothing computes."""
    trop = rep.get("tropical", {})
    dims = rep.get("dims", {})
    if key == "valid":
        return rep["validation"]["valid"]
    if key == "structurally_valid":
        return not rep["validation"]["violations"]
    if key == "tropical":
        return "feasible" if trop.get("feasible") else "infeasible"
    if key in ("genus", "component_count"):
        return rep.get(key)
    if key in ("kernel_dim", "cokernel_torsion", "obstruction_dim"):
        return rep["lattice"][key]
    if key == "kernel_generator":
        basis = rep["lattice"]["kernel_basis"]
        return basis[0] if len(basis) == 1 else basis
    if key == "extreme_rays":
        return rep["cone"]["extreme_rays"]
    if key == "extreme_ray_count":
        return len(rep["cone"]["extreme_rays"])
    if key == "gluing_equation_count":
        return len(rep["gluing"]["equations"])
    if key in ("main_dim", "stratum_dim", "prelog_dim"):
        return dims.get(key)
    if key == "smooth_depth_dims":
        g = item.graph
        tags = [v.degree for v in g.vertices]
        return {
            lab: expected_dim_smooth_depth(item.ctx, rep["genus"], len(g.legs), tags, [lab])
            for lab in item.expected[key]
        }
    if key == "partial_order_levels":
        return smooth_divisor_partial_order(item.graph).levels
    if key == "witness_file":
        ok, violations = verify_witness(item.graph, item.corpus_witness)
        return item.expected[key] if ok else f"shipped witness fails: {violations}"
    if key == "flagged":
        return item.expected[key]
    return f"unknown expected key {key!r}"


def check_report(item, text: str) -> list[str]:
    rep = json.loads(text)
    problems = []
    if item.expected is not None:
        for key, want in sorted(item.expected.items()):
            got = _expected_value(key, rep, item)
            if got != want:
                problems.append(f"expected {key} = {want!r}, report has {got!r}")
    elif rep["validation"]["violations"]:
        problems.append(f"generated graph has violations {rep['validation']['violations']}")
    trop = rep.get("tropical")
    if trop is None:
        return problems
    if trop["feasible"]:
        ok, violations = verify_witness(item.graph, serialize.witness_from_dict(trop["witness"]))
        if not ok:
            problems.append(f"witness fails verification: {violations[:3]}")
    elif item.planted_feasible:
        problems.append("planted-feasible graph reported infeasible")
    if len(item.graph.divisors) == 1:
        order = smooth_divisor_partial_order(item.graph)
        if order.ok != trop["feasible"]:
            problems.append(f"partial order ok={order.ok} disagrees with feasible={trop['feasible']}")
    return problems


def check_library(item, result: LibraryResult) -> list[str]:
    problems = []
    labels = result.summary.domain.labels
    index = {lab: i for i, lab in enumerate(labels)}
    rows = gen.rho_entries(item.graph_dict)
    missing = {lab for row in rows.values() for lab in row} - set(index)
    if missing:
        return [f"domain basis lacks {sorted(missing)}"]
    rays = result.cone.extreme_rays
    for r in rays:
        if any(x < 0 for x in r) or not any(r):
            problems.append(f"ray {list(r)} is not a nonzero vector in the orthant")
        for node, row in rows.items():
            if sum(c * r[index[lab]] for lab, c in row.items()) != 0:
                problems.append(f"ray {list(r)} is not in the kernel at node {node}")
                break
    for m in result.ideal.exponents:
        for r in rays:
            if sum(a * b for a, b in zip(m, r)) != 0:
                problems.append(f"ideal row {list(m)} is not orthogonal to ray {list(r)}")
                break
    if not result.verdict.is_identity:
        if all(max(abs(x) for x in m) > HUGE_CHARACTER for m, _ in result.verdict.violations):
            problems.append(FALSE_NEGATIVE)
        else:
            problems.append(f"in-image eta rejected: {result.verdict.violations[:2]}")
    return problems


def classify_error(item, error: Exception) -> list[str]:
    """An op that raised.  An OverflowError inside the obstruction test on a
    graph whose character basis has huge entries is the known defect (the
    float evaluation of eta^m overflows instead of drifting); anything else
    is an unexpected failure."""
    frames = {frame.name for frame in traceback.extract_tb(error.__traceback__)}
    if isinstance(error, OverflowError) and "obstruction_test" in frames:
        characters = il.left_kernel_basis(build_rho(item.graph)[2])
        if max(abs(x) for m in characters for x in m) > HUGE_CHARACTER:
            return [OVERFLOW]
    return [f"raised {type(error).__name__}: {error}"]
