"""Command-line front end.

Exit codes: 0 success, 2 a negative verdict (axiom violations from
validate and report, tropical infeasibility, or eta off the image torus;
the output is still printed), 1 structural or IO errors.  Output is plain text
by default, JSON with --json; setting LOGCONE_COLOR enables ANSI
highlighting of verdicts in text mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cone import DEFAULT_TOL, gluing_equations, obstruction_test, sigma_cone, toric_ideal_generators
from .corpus import _is_graph_file, corpus_list, corpus_load
from .dims import expected_dim_stratum
from .graph import StructuralError, arithmetic_genus, restrict_graph, validate_graph
from .lattice import component_count, lattice_summary
from .report import (
    binomials_to_dict,
    build_report,
    cone_to_dict,
    dims_to_dict,
    lattice_to_dict,
    tropical_to_dict,
    validation_to_dict,
)
from .serialize import (
    FormatError,
    dump_json,
    graph_to_dict,
    load_context,
    load_eta,
    load_graph,
)
from .tropical import decide


def _color_enabled() -> bool:
    value = os.environ.get("LOGCONE_COLOR", "")
    return value not in ("", "0", "never")


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _good(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def _emit(data: dict, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(dump_json(data))
    else:
        for line in text_lines:
            print(line)


def _table(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(k) for k, _ in rows)
    return [f"{k.ljust(width)}  {v}" for k, v in rows]


def _cmd_validate(args) -> int:
    graph = load_graph(args.input)
    ctx = load_context(args.ctx) if args.ctx else None
    report = validate_graph(graph, ctx)
    data = validation_to_dict(report)
    lines = []
    if report.valid:
        lines.append(_good("valid"))
    else:
        lines.append(_bad("invalid"))
    for v in report.violations:
        lines.append(_bad(f"  [{v.code}] {v.message}"))
    if report.tropical_feasible is not None:
        word = "feasible" if report.tropical_feasible else "infeasible"
        lines.append(f"  tropical: {word}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    _emit(data, args.json, lines)
    return 0 if report.valid else 2


def _cmd_genus(args) -> int:
    graph = load_graph(args.input)
    g = arithmetic_genus(graph)
    _emit({"genus": g}, args.json, [str(g)])
    return 0


def _cmd_lattice(args) -> int:
    graph = load_graph(args.input)
    summary = lattice_summary(graph)
    data = lattice_to_dict(summary)
    data["component_count"] = component_count(graph)
    rows = [
        ("domain dim", str(len(summary.domain))),
        ("target dim", str(len(summary.target))),
        ("kernel dim", str(len(summary.kernel_basis))),
        ("image rank", str(summary.image_rank)),
        ("cokernel free rank", str(summary.obstruction_dim)),
        ("cokernel torsion", str(list(summary.cokernel_torsion))),
        ("obstruction dim", str(summary.obstruction_dim)),
        ("component count", str(data["component_count"])),
    ]
    lines = _table(rows)
    for row in summary.kernel_basis:
        lines.append(f"kernel vector {list(row)}")
    _emit(data, args.json, lines)
    return 0


def _cmd_tropical(args) -> int:
    graph = load_graph(args.input)
    data = tropical_to_dict(*decide(graph))
    if data["feasible"]:
        lines = [_good("feasible")]
        for vid, row in data["witness"]["s"].items():
            lines.append(f"  s[{vid}] = {row}")
        for eid, value in data["witness"]["lambda"].items():
            lines.append(f"  lambda[{eid}] = {value}")
    else:
        lines = [_bad("infeasible")]
        for eid, row in data["certificate"]["multipliers"].items():
            lines.append(f"  multipliers[{eid}] = {row}")
    _emit(data, args.json, lines)
    return 0 if data["feasible"] else 2


def _cmd_cone(args) -> int:
    graph = load_graph(args.input)
    data = cone_to_dict(sigma_cone(graph))
    lines = _table(
        [
            ("ambient dim", str(data["ambient_dim"])),
            ("kernel dim", str(data["kernel_dim"])),
            ("strictly convex", str(data["is_strictly_convex"])),
            ("top-dimensional", str(data["is_top_dimensional_in_kernel"])),
        ]
    )
    for ray in data["extreme_rays"]:
        lines.append(f"ray {ray}")
    _emit(data, args.json, lines)
    return 0


def _cmd_gluing(args) -> int:
    graph = load_graph(args.input)
    system = gluing_equations(graph)
    _emit(binomials_to_dict(system), args.json, system.dumped())
    return 0


def _cmd_ideal(args) -> int:
    graph = load_graph(args.input)
    system = toric_ideal_generators(graph)
    _emit(binomials_to_dict(system), args.json, system.dumped())
    return 0


def _cmd_dims(args) -> int:
    graph = load_graph(args.input)
    ctx = load_context(args.ctx)
    data = dims_to_dict(expected_dim_stratum(graph, ctx))
    lines = _table([(k.replace("_", " "), str(v)) for k, v in data.items()])
    _emit(data, args.json, lines)
    return 0


def _cmd_forget(args) -> int:
    graph = load_graph(args.input)
    keep = [x for x in args.keep.split(",") if x]
    restricted = restrict_graph(graph, keep)
    data = graph_to_dict(restricted)
    _emit(data, True, [])  # the restricted graph is always JSON
    return 0


def _cmd_obstruct(args) -> int:
    graph = load_graph(args.input)
    eta = load_eta(args.eta, graph)
    verdict = obstruction_test(graph, eta, args.tol)
    data = {
        "is_identity": verdict.is_identity,
        "violations": [
            {"character": list(m), "distance": dist} for m, dist in verdict.violations
        ],
    }
    lines = [_good("identity") if verdict.is_identity else _bad("not identity")]
    for m, dist in verdict.violations:
        lines.append(f"  character {list(m)}: |eta^m - 1| = {dist:.3e}")
    _emit(data, args.json, lines)
    return 0 if verdict.is_identity else 2


def _report_one(path: Path, args) -> dict:
    raw = path.read_bytes()
    graph = load_graph(path)
    ctx = None
    candidate = path.parent / (path.name.removesuffix(".json") + ".ctx.json")
    if args.ctx:
        ctx = load_context(args.ctx)
    elif candidate.exists():
        ctx = load_context(candidate)
    return build_report(graph, raw, ctx)


def _cmd_report(args) -> int:
    target = Path(args.input)
    if target.is_dir():
        files = sorted(p for p in target.iterdir() if _is_graph_file(p))
        data = {name.name: _report_one(name, args) for name in files}
        reports = data.values()
    else:
        data = _report_one(target, args)
        reports = [data]
    lines = []
    for rep in reports:
        lines.append(f"input sha256 {rep['provenance']['input_sha256']}")
        ok = rep["validation"]["valid"]
        lines.append(_good("valid") if ok else _bad("invalid"))
        if "lattice" in rep:
            lines.append(
                "kernel dim {kernel_dim}, torsion {cokernel_torsion}, "
                "obstruction dim {obstruction_dim}".format(**rep["lattice"])
            )
            lines.append(f"components {rep['component_count']}")
            lines.append(f"tropical {'feasible' if rep['tropical']['feasible'] else 'infeasible'}")
            lines.append(f"rays {rep['cone']['extreme_rays']}")
            if "dims" in rep:
                lines.append(
                    "main {main_dim}, stratum {stratum_dim}, prelog {prelog_dim}".format(**rep["dims"])
                )
        lines.append("")
    _emit(data, args.json, lines)
    any_invalid = any(not rep["validation"]["valid"] for rep in reports)
    return 2 if any_invalid else 0


def _cmd_corpus(args) -> int:
    if args.name is not None:
        entry = corpus_load(args.name)
        data = {
            "name": entry.name,
            "notes": entry.notes,
            "expected": entry.expected,
            "graph": graph_to_dict(entry.graph),
        }
        lines = [entry.name, entry.notes, json.dumps(entry.expected, indent=2, sort_keys=True)]
    else:
        names = corpus_list()
        data = {"entries": names}
        lines = names
    _emit(data, args.json, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcone",
        description="Combinatorial analysis of decorated dual graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("input", help="graph JSON file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, "check all graph axioms")
    p.add_argument("--ctx", help="geometry context JSON file (enables degree balance)")

    add("genus", _cmd_genus, "arithmetic genus of the graph")
    add("lattice", _cmd_lattice, "kernel, torsion and obstruction dimension")
    add("tropical", _cmd_tropical, "tropical feasibility with witness or certificate")
    add("cone", _cmd_cone, "extreme rays of the gluing cone")
    add("gluing", _cmd_gluing, "binomial gluing equations")
    add("ideal", _cmd_ideal, "lattice-basis generators of the toric ideal")

    p = add("dims", _cmd_dims, "expected dimension report")
    p.add_argument("--ctx", required=True, help="geometry context JSON file")

    p = add("forget", _cmd_forget, "restrict the graph to a subset of divisors")
    p.add_argument("--keep", required=True, help="comma-separated divisor labels to keep")

    p = add("obstruct", _cmd_obstruct, "numerical obstruction test")
    p.add_argument("eta", help="eta JSON file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="comparison tolerance")

    p = add("report", _cmd_report, "full analysis report for a file or directory")
    p.add_argument("--ctx", help="geometry context JSON file")

    p = add("corpus", _cmd_corpus, "list or show embedded examples", needs_input=False)
    p.add_argument("name", nargs="?", help="entry name; omit to list all")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (StructuralError, FormatError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
