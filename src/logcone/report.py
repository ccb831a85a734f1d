"""Consolidated analysis report for a single graph file.

The report is a pure function of the input bytes plus flags: every list is
canonically ordered and the input hash is embedded, so reruns are
byte-identical and diffable.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .cone import gluing_equations, sigma_cone, toric_ideal_generators
from .dims import expected_dim_stratum
from .graph import DecoratedDualGraph, GeometryContext, ValidationReport, _axiom_check, arithmetic_genus
from .lattice import component_count, lattice_summary
from .serialize import SCHEMA_TAG, certificate_to_dict, witness_to_dict
from .tropical import decide, ray_sum_witness


def _label_str(label: tuple) -> str:
    return ":".join(str(p) for p in label)


def validation_to_dict(report) -> dict:
    return {
        "valid": report.valid,
        "violations": [{"code": v.code, "message": v.message} for v in report.violations],
        "warnings": list(report.warnings),
        "tropical_feasible": report.tropical_feasible,
    }


def lattice_to_dict(summary) -> dict:
    return {
        "domain": [_label_str(lab) for lab in summary.domain.labels],
        "target": [_label_str(lab) for lab in summary.target.labels],
        "rho": [list(row) for row in summary.rho],
        "kernel_basis": [list(row) for row in summary.kernel_basis],
        "kernel_dim": len(summary.kernel_basis),
        "image_rank": summary.image_rank,
        "cokernel_free_rank": summary.obstruction_dim,
        "cokernel_torsion": list(summary.cokernel_torsion),
        "obstruction_dim": summary.obstruction_dim,
    }


def tropical_to_dict(witness, cert) -> dict:
    """The ``tropical`` block of a report from one :func:`decide` result."""
    if witness is not None:
        return {"feasible": True, "witness": witness_to_dict(witness)}
    return {"feasible": False, "certificate": certificate_to_dict(cert)}


def cone_to_dict(cone) -> dict:
    return {
        "ambient_dim": cone.ambient_dim,
        "kernel_dim": cone.kernel_dim,
        "extreme_rays": [list(r) for r in cone.extreme_rays],
        "is_strictly_convex": True,  # every gluing cone is pointed, see sigma_cone
        "is_top_dimensional_in_kernel": cone.is_top_dimensional_in_kernel,
    }


def binomials_to_dict(system) -> dict:
    names = system.variable_names()
    return {
        "variables": names,
        "exponents": [list(m) for m in system.exponents],
        "equations": system.rendered(names),
    }


def dims_to_dict(report) -> dict:
    return {**vars(report), "inter_total": dict(sorted(report.inter_total.items()))}


def build_report(
    graph: DecoratedDualGraph,
    raw_bytes: bytes,
    ctx: GeometryContext | None = None,
) -> dict:
    # the axiom checks and tropical decision of validate_graph; the gluing
    # cone decides feasibility when its rays cover every domain coordinate,
    # and the one exact solve runs only when they do not
    violations, warnings = _axiom_check(graph, ctx)
    feasible = None
    if not violations:
        sigma = sigma_cone(graph)
        witness = ray_sum_witness(lattice_summary(graph).domain.labels, sigma.extreme_rays)
        decision = decide(graph) if witness is None else (witness, None)
        feasible = decision[0] is not None
    out = {
        "schema": SCHEMA_TAG,
        "provenance": {
            "input_sha256": hashlib.sha256(raw_bytes).hexdigest(),
            "library_version": __version__,
        },
        "validation": validation_to_dict(ValidationReport(violations, warnings, feasible)),
    }
    if violations:
        return out
    out["genus"] = arithmetic_genus(graph)
    out["lattice"] = lattice_to_dict(lattice_summary(graph))
    out["component_count"] = component_count(graph)
    out["tropical"] = tropical_to_dict(*decision)
    out["cone"] = cone_to_dict(sigma)
    out["gluing"] = binomials_to_dict(gluing_equations(graph))
    out["toric_ideal"] = binomials_to_dict(toric_ideal_generators(graph))
    if ctx is not None:
        out["dims"] = dims_to_dict(expected_dim_stratum(graph, ctx))
    return out
