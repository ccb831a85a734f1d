"""JSON serialization for graphs, contexts, witnesses and eta tuples.

Every format carries a "schema": "logcone/1" marker.  Rationals are stored
as strings "p/q" so no float ever enters an exact computation; complex eta
entries are numbers, "p/q" strings, or [re, im] pairs.  Schema violations
are reported with JSON-pointer paths.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from importlib import resources

from .cone import ObstructionInput
from .graph import (
    DecoratedDualGraph,
    EdgeData,
    GeometryContext,
    LegData,
    StructuralError,
    VertexData,
)
from .tropical import InfeasibilityCertificate, TropicalWitness

SCHEMA_TAG = "logcone/1"


class FormatError(ValueError):
    """Input file does not match the expected JSON shape."""


def _schema(name: str) -> dict:
    text = resources.files("logcone.schemas").joinpath(name).read_text()
    return json.loads(text)


_GRAPH_SCHEMA = _schema("graph.schema.json")
_CONTEXT_SCHEMA = _schema("context.schema.json")


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON Schema counts 1.0 as an integer and true as not a number
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}
_ANNOTATIONS = ("$schema", "$id", "title")


def _key(value):
    """Hashable form of a JSON value under JSON equality: 1 == 1.0, 1 != true."""
    if isinstance(value, list):
        return ("array", tuple(map(_key, value)))
    if isinstance(value, dict):
        return ("object", frozenset((k, _key(v)) for k, v in value.items()))
    return (isinstance(value, bool), value)


def _walk(value, schema, path, errors):
    """Append (path, message) for each violation of a Draft 2020-12 schema
    built from the keywords below; descend only into subschemas."""
    is_object = isinstance(value, dict)
    for keyword, arg in schema.items():
        if keyword == "type":
            if arg not in _TYPES:
                raise ValueError(f"unsupported schema type {arg!r}")
            if not _TYPES[arg](value):
                errors.append((path, f"{value!r} is not of type {arg!r}"))
        elif keyword == "required":
            if is_object:
                errors.extend((path, f"{name!r} is a required property") for name in arg if name not in value)
        elif keyword == "properties":
            if is_object:
                for name, sub in arg.items():
                    if name in value:
                        _walk(value[name], sub, path + (name,), errors)
        elif keyword == "additionalProperties":
            if is_object:
                extra = [name for name in value if name not in schema.get("properties", ())]
                if arg is False:
                    if extra:
                        names = ", ".join(map(repr, sorted(extra)))
                        verb = "was" if len(extra) == 1 else "were"
                        errors.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
                else:
                    for name in extra:
                        _walk(value[name], arg, path + (name,), errors)
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    _walk(item, arg, path + (i,), errors)
        elif keyword == "uniqueItems":
            if arg and isinstance(value, list) and len(set(map(_key, value))) < len(value):
                errors.append((path, f"{value!r} has non-unique elements"))
        elif keyword == "const":
            if _key(value) != _key(arg):
                errors.append((path, f"{arg!r} was expected"))
        elif keyword == "minimum":
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value < arg:
                errors.append((path, f"{value!r} is less than the minimum of {arg!r}"))
        elif keyword not in _ANNOTATIONS:
            raise ValueError(f"unsupported schema keyword {keyword!r}")


def _pointer(path) -> str:
    """JSON pointer to ``path`` (keys and indices), escaped per RFC 6901.

    ``~`` becomes ``~0`` and ``/`` becomes ``~1``, so a key ``a/b`` stays one
    reference token; the empty path is written ``/``.
    """
    return "/" + "/".join(str(key).replace("~", "~0").replace("/", "~1") for key in path)


def _check(instance, schema):
    errors = []
    try:
        _walk(instance, schema, (), errors)
    except RecursionError:  # from _key or repr on a value nested near the parser's limit
        raise FormatError("input is nested too deeply") from None
    if errors:
        errors.sort(key=lambda e: e[0])
        raise FormatError("; ".join(f"{_pointer(path)}: {msg}" for path, msg in errors))


def _contact_tuple(mapping: dict, divisors) -> tuple[int, ...]:
    unknown = set(mapping) - set(divisors)
    if unknown:
        raise FormatError(f"contact map uses unknown divisor labels {sorted(unknown)}")
    return tuple(int(mapping.get(d, 0)) for d in divisors)


def _contact_map(vec, divisors) -> dict:
    return {d: int(x) for d, x in zip(divisors, vec) if x != 0}


def graph_from_dict(data: dict) -> DecoratedDualGraph:
    _check(data, _GRAPH_SCHEMA)
    divisors = tuple(data["divisors"])
    vertices = tuple(
        VertexData(v["id"], int(v["genus"]), v["degree"], frozenset(v["depth"]))
        for v in data["vertices"]
    )
    edges = []
    for e in data["edges"]:
        rev = e.get("contact_rev")
        edges.append(
            EdgeData(
                e["id"],
                e["from"],
                e["to"],
                frozenset(e["depth"]),
                _contact_tuple(e["contact"], divisors),
                None if rev is None else _contact_tuple(rev, divisors),
            )
        )
    legs = tuple(
        LegData(l["id"], l["at"], int(l["index"]), _contact_tuple(l["contact"], divisors))
        for l in data["legs"]
    )
    return DecoratedDualGraph(divisors, vertices, tuple(edges), legs)


def graph_to_dict(graph: DecoratedDualGraph) -> dict:
    out = {
        "schema": SCHEMA_TAG,
        "divisors": list(graph.divisors),
        "vertices": [
            {
                "id": v.id,
                "genus": v.genus,
                "degree": v.degree,
                "depth": sorted(v.depth, key=graph.divisors.index),
            }
            for v in graph.vertices
        ],
        "edges": [],
        "legs": [
            {
                "id": l.id,
                "at": l.at,
                "index": l.index,
                "contact": _contact_map(l.contact, graph.divisors),
            }
            for l in graph.legs
        ],
    }
    for e in graph.edges:
        entry = {
            "id": e.id,
            "from": e.v1,
            "to": e.v2,
            "depth": sorted(e.depth, key=graph.divisors.index),
            "contact": _contact_map(e.contact, graph.divisors),
        }
        if e.contact_rev is not None:
            entry["contact_rev"] = _contact_map(e.contact_rev, graph.divisors)
        out["edges"].append(entry)
    return out


def context_from_dict(data: dict) -> GeometryContext:
    _check(data, _CONTEXT_SCHEMA)
    return GeometryContext(
        dim_x=int(data["dim"]),
        divisors=tuple(data["divisors"]),
        c1_pairing={k: int(v) for k, v in data["c1"].items()},
        divisor_pairing={
            tag: {lab: int(v) for lab, v in row.items()}
            for tag, row in data["pairing"].items()
        },
    )


def context_to_dict(ctx: GeometryContext) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "dim": ctx.dim_x,
        "divisors": list(ctx.divisors),
        "c1": dict(ctx.c1_pairing),
        "pairing": {tag: dict(row) for tag, row in ctx.divisor_pairing.items()},
    }


def rational_from_str(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(f"rational values must be integers or 'p/q' strings, got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from exc


def rational_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def witness_from_dict(data: dict) -> TropicalWitness:
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_TAG:
        raise FormatError('witness file must be an object with "schema": "logcone/1"')
    s = {}
    for vid, row in data.get("s", {}).items():
        for label, value in row.items():
            s[(vid, label)] = rational_from_str(value)
    lam = {eid: rational_from_str(value) for eid, value in data.get("lambda", {}).items()}
    return TropicalWitness(s, lam)


def witness_to_dict(witness: TropicalWitness) -> dict:
    s: dict[str, dict[str, str]] = {}
    for (vid, label), value in sorted(witness.s.items()):
        s.setdefault(vid, {})[label] = rational_to_str(value)
    return {
        "schema": SCHEMA_TAG,
        "s": s,
        "lambda": {eid: rational_to_str(v) for eid, v in sorted(witness.lam.items())},
    }


def certificate_to_dict(cert: InfeasibilityCertificate) -> dict:
    multipliers: dict[str, dict[str, int]] = {}
    for (eid, label), y in sorted(cert.multipliers.items()):
        multipliers.setdefault(eid, {})[label] = y
    return {"multipliers": multipliers}


def _complex_from_json(value, pointer: str) -> complex:
    def real(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    pair = isinstance(value, list) and len(value) == 2 and all(real(x) for x in value)
    if not (real(value) or isinstance(value, str) or pair):
        raise FormatError(
            f"{pointer}: eta entries must be numbers, 'p/q' strings, or [re, im] pairs, got {value!r}"
        )
    try:
        if isinstance(value, str):
            z = complex(Fraction(value))
        elif pair:
            z = complex(value[0], value[1])
        else:
            z = complex(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{pointer}: bad rational {value!r}: {exc}") from None
    except OverflowError:
        z = complex("inf")
    if not cmath.isfinite(z):
        raise FormatError(f"{pointer}: eta entry {value!r} is not finite")
    return z


def eta_from_dict(data: dict, graph: DecoratedDualGraph) -> ObstructionInput:
    """Eta values keyed by the graph's (edge id, label in edge depth) nodes;
    an entry for any other edge or label is an error, not ignored."""
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_TAG:
        raise FormatError('eta file must be an object with "schema": "logcone/1"')
    if "eta" not in data or not isinstance(data["eta"], dict):
        raise FormatError('eta file must carry an "eta" object keyed by edge id')
    depth = {e.id: e.depth for e in graph.edges}
    eta = {}
    for eid, row in data["eta"].items():
        if eid not in depth:
            raise FormatError(f"{_pointer(('eta', eid))}: the graph has no edge {eid!r}")
        if not isinstance(row, dict):
            raise FormatError(f"{_pointer(('eta', eid))}: eta entry for edge {eid!r} must be a label->value object")
        for label, value in row.items():
            pointer = _pointer(("eta", eid, label))
            if label not in depth[eid]:
                raise FormatError(f"{pointer}: label {label!r} is not in the depth of edge {eid!r}")
            eta[(eid, label)] = _complex_from_json(value, pointer)
    return ObstructionInput(eta)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        except RecursionError:
            raise FormatError(f"{path}: not valid JSON: nested too deeply") from None


def load_graph(path) -> DecoratedDualGraph:
    return graph_from_dict(load_json(path))


def load_context(path) -> GeometryContext:
    return context_from_dict(load_json(path))


def load_witness(path) -> TropicalWitness:
    return witness_from_dict(load_json(path))


def load_eta(path, graph: DecoratedDualGraph) -> ObstructionInput:
    return eta_from_dict(load_json(path), graph)


def dump_json(data: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline end."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
