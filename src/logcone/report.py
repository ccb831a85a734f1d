"""Consolidated analysis report for a single graph file.

The report is a pure function of the input bytes plus flags: every list is
canonically ordered and the input hash is embedded, so reruns are
byte-identical and diffable.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .cone import _sigma_cone, _toric_ideal_generators, gluing_equations
from .dims import _expected_dim_stratum
from .graph import DecoratedDualGraph, GeometryContext, ValidationReport, _axiom_check, arithmetic_genus
from .lattice import _component_count, lattice_summary
from .serialize import SCHEMA_TAG, certificate_to_dict, witness_to_dict
from .tropical import decide


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
        "cokernel_free_rank": summary.cokernel_free_rank,
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
        "is_strictly_convex": cone.is_strictly_convex,
        "is_top_dimensional_in_kernel": cone.is_top_dimensional_in_kernel,
    }


def binomials_to_dict(system) -> dict:
    return {
        "variables": system.variable_names(),
        "exponents": [list(m) for m in system.exponents],
        "equations": system.rendered(),
    }


def dims_to_dict(report) -> dict:
    return {
        "main_dim": report.main_dim,
        "stratum_dim": report.stratum_dim,
        "prelog_dim": report.prelog_dim,
        "kernel_dim": report.kernel_dim,
        "obstruction_dim": report.obstruction_dim,
        "codim": report.codim,
        "genus": report.genus,
        "marked_points": report.marked_points,
        "c1_total": report.c1_total,
        "inter_total": dict(sorted(report.inter_total.items())),
    }


def build_report(
    graph: DecoratedDualGraph,
    raw_bytes: bytes,
    ctx: GeometryContext | None = None,
) -> dict:
    # the axiom checks and tropical decision of validate_graph, with the one
    # tropical solve shared by the validation and tropical blocks
    violations, warnings = _axiom_check(graph, ctx)
    decision = None if violations else decide(graph)
    feasible = None if decision is None else decision[0] is not None
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
    # one lattice summary (one Smith form of rho) feeds every lattice block
    summary = lattice_summary(graph)
    out["genus"] = arithmetic_genus(graph)
    out["lattice"] = lattice_to_dict(summary)
    out["component_count"] = _component_count(summary)
    out["tropical"] = tropical_to_dict(*decision)
    out["cone"] = cone_to_dict(_sigma_cone(summary))
    out["gluing"] = binomials_to_dict(gluing_equations(graph))
    out["toric_ideal"] = binomials_to_dict(_toric_ideal_generators(summary))
    if ctx is not None:
        out["dims"] = dims_to_dict(_expected_dim_stratum(graph, ctx, summary))
    return out
