"""JSON serialization for graphs, contexts, witnesses and eta tuples.

Every format carries a "schema": "logcone/1" marker.  Rationals are stored
as strings "p/q" so no float ever enters an exact computation; complex eta
entries are numbers, "p/q" strings, or [re, im] pairs.  Schema violations
are reported with JSON-pointer paths.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii

from .cone import ObstructionInput
from .graph import (
    DecoratedDualGraph,
    EdgeData,
    GeometryContext,
    LegData,
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


def _show(value) -> str:
    """repr(value), with any int too long for str() shown by its bit length."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits(), maybe nested
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"
        if isinstance(value, list):
            return f"[{', '.join(map(_show, value))}]"
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_show(k)}: {_show(v)}" for k, v in value.items()) + "}"
        return f"<{type(value).__name__}>"


def _order(value):
    """Sort key for dict keys and paths of keys: ints, floats and strings
    sort as ``sorted`` sorts them, and keys of other types, or of types that
    do not compare with each other, by type name and :func:`_show`."""
    if isinstance(value, tuple):
        return tuple(map(_order, value))
    if isinstance(value, (int, float)):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    return (2, type(value).__name__, _show(value))


def compile_schema(schema):
    """Checker ``check(value, path, errors)`` that appends (path, message) for
    each violation of a Draft 2020-12 schema built from the keywords below.
    Each keyword is one step, run in the schema's key order; an unknown
    keyword or type name raises ValueError here, not when checking."""
    steps = []
    known = frozenset(schema.get("properties", ()))
    for keyword, arg in schema.items():
        if keyword in _ANNOTATIONS:
            continue
        if keyword == "type":
            if arg not in _TYPES:
                raise ValueError(f"unsupported schema type {arg!r}")
            def step(value, path, errors, ok=_TYPES[arg], name=arg):
                if not ok(value):
                    errors.append((path, f"{_show(value)} is not of type {name!r}"))
        elif keyword == "required":
            def step(value, path, errors, names=tuple(arg)):
                if isinstance(value, dict):
                    errors.extend((path, f"{name!r} is a required property") for name in names if name not in value)
        elif keyword == "properties":
            def step(value, path, errors, subs=[(name, compile_schema(sub)) for name, sub in arg.items()]):
                if isinstance(value, dict):
                    for name, check in subs:
                        if name in value:
                            check(value[name], path + (name,), errors)
        elif keyword == "additionalProperties" and arg is False:
            def step(value, path, errors):
                extra = [name for name in value if name not in known] if isinstance(value, dict) else None
                if extra:
                    names = ", ".join(map(_show, sorted(extra, key=_order)))
                    verb = "was" if len(extra) == 1 else "were"
                    errors.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
        elif keyword == "additionalProperties":
            def step(value, path, errors, check=compile_schema(arg)):
                if isinstance(value, dict):
                    for name, item in value.items():
                        if name not in known:
                            check(item, path + (name,), errors)
        elif keyword == "items":
            def step(value, path, errors, check=compile_schema(arg)):
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        check(item, path + (i,), errors)
        elif keyword == "uniqueItems":
            def step(value, path, errors, unique=arg):
                if unique and isinstance(value, list) and len(set(map(_key, value))) < len(value):
                    errors.append((path, f"{_show(value)} has non-unique elements"))
        elif keyword == "const":
            def step(value, path, errors, want=_key(arg), message=f"{arg!r} was expected"):
                if _key(value) != want:
                    errors.append((path, message))
        elif keyword == "minimum":
            def step(value, path, errors, low=arg):
                if isinstance(value, (int, float)) and not isinstance(value, bool) and value < low:
                    errors.append((path, f"{_show(value)} is less than the minimum of {low!r}"))
        else:
            raise ValueError(f"unsupported schema keyword {keyword!r}")
        steps.append(step)
    if len(steps) == 1:
        return steps[0]

    def check(value, path, errors):
        for step in steps:
            step(value, path, errors)

    return check


_GRAPH_CHECK = compile_schema(_GRAPH_SCHEMA)
_CONTEXT_CHECK = compile_schema(_CONTEXT_SCHEMA)
# witness and eta files: any top-level key but these is an error
_WITNESS_KEYS, _ETA_KEYS = (
    compile_schema({"properties": dict.fromkeys(names, {}), "additionalProperties": False})
    for names in (("schema", "s", "lambda"), ("schema", "eta"))
)


def _pointer(path) -> str:
    """JSON pointer to ``path`` (keys and indices), escaped per RFC 6901.

    ``~`` becomes ``~0`` and ``/`` becomes ``~1``, so a key ``a/b`` stays one
    reference token; the empty path is written ``/``.
    """
    tokens = (key if isinstance(key, str) else _show(key) for key in path)
    return "/" + "/".join(token.replace("~", "~0").replace("/", "~1") for token in tokens)


def _check(instance, check):
    errors = []
    try:
        check(instance, (), errors)
    except RecursionError:  # from _key or repr on a value nested near the parser's limit
        raise FormatError("input is nested too deeply") from None
    if errors:
        errors.sort(key=lambda e: _order(e[0]))
        raise FormatError("; ".join(f"{_pointer(path)}: {msg}" for path, msg in errors))


def _contact_tuple(mapping: dict, divisors, path) -> tuple[int, ...]:
    unknown = set(mapping) - set(divisors)
    if unknown:
        labels = ", ".join(map(_show, sorted(unknown, key=_order)))
        raise FormatError(f"{_pointer(path)}: contact map uses unknown divisor labels [{labels}]")
    return tuple(int(mapping.get(d, 0)) for d in divisors)


def _contact_map(vec, divisors) -> dict:
    return {d: int(x) for d, x in zip(divisors, vec) if x != 0}


def graph_from_dict(data: dict) -> DecoratedDualGraph:
    _check(data, _GRAPH_CHECK)
    divisors = tuple(data["divisors"])
    vertices = tuple(
        VertexData(v["id"], int(v["genus"]), v["degree"], frozenset(v["depth"]))
        for v in data["vertices"]
    )
    edges = []
    for i, e in enumerate(data["edges"]):
        rev = e.get("contact_rev")
        edges.append(
            EdgeData(
                e["id"],
                e["from"],
                e["to"],
                frozenset(e["depth"]),
                _contact_tuple(e["contact"], divisors, ("edges", i, "contact")),
                None if rev is None else _contact_tuple(rev, divisors, ("edges", i, "contact_rev")),
            )
        )
    legs = tuple(
        LegData(l["id"], l["at"], int(l["index"]), _contact_tuple(l["contact"], divisors, ("legs", i, "contact")))
        for i, l in enumerate(data["legs"])
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
    _check(data, _CONTEXT_CHECK)
    return GeometryContext(
        dim_x=int(data["dim"]),
        divisors=tuple(data["divisors"]),
        c1_pairing={k: int(v) for k, v in data["c1"].items()},
        divisor_pairing={
            tag: {lab: int(v) for lab, v in row.items()}
            for tag, row in data["pairing"].items()
        },
    )


def rational_from_str(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(f"rational values must be integers or 'p/q' strings, got {_show(text)}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}: {exc}") from exc


def rational_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _witness_object(value, path) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{_pointer(path)}: must be an object, got {_show(value)}")
    return value


def _witness_rational(value, path) -> Fraction:
    try:
        return rational_from_str(value)
    except FormatError as exc:
        raise FormatError(f"{_pointer(path)}: {exc}") from None


def witness_from_dict(data: dict) -> TropicalWitness:
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_TAG:
        raise FormatError('witness file must be an object with "schema": "logcone/1"')
    _check(data, _WITNESS_KEYS)
    s = {}
    for vid, row in _witness_object(data.get("s", {}), ("s",)).items():
        for label, value in _witness_object(row, ("s", vid)).items():
            s[(vid, label)] = _witness_rational(value, ("s", vid, label))
    lam = {
        eid: _witness_rational(value, ("lambda", eid))
        for eid, value in _witness_object(data.get("lambda", {}), ("lambda",)).items()
    }
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
            f"{pointer}: eta entries must be numbers, 'p/q' strings, or [re, im] pairs, got {_show(value)}"
        )
    try:
        if isinstance(value, str):
            z = complex(Fraction(value))
        elif pair:
            z = complex(value[0], value[1])
        else:
            z = complex(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{pointer}: bad rational {_show(value)}: {exc}") from None
    except OverflowError:
        z = complex("inf")
    if not cmath.isfinite(z):
        raise FormatError(f"{pointer}: eta entry {_show(value)} is not finite")
    return z


def eta_from_dict(data: dict, graph: DecoratedDualGraph) -> ObstructionInput:
    """Eta values keyed by the graph's (edge id, label in edge depth) nodes;
    an entry for any other edge or label is an error, not ignored."""
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_TAG:
        raise FormatError('eta file must be an object with "schema": "logcone/1"')
    _check(data, _ETA_KEYS)
    if "eta" not in data or not isinstance(data["eta"], dict):
        raise FormatError('eta file must carry an "eta" object keyed by edge id')
    depth = {e.id: e.depth for e in graph.edges}
    eta = {}
    for eid, row in data["eta"].items():
        if eid not in depth:
            raise FormatError(f"{_pointer(('eta', eid))}: the graph has no edge {_show(eid)}")
        if not isinstance(row, dict):
            raise FormatError(f"{_pointer(('eta', eid))}: eta entry for edge {eid!r} must be a label->value object")
        for label, value in row.items():
            pointer = _pointer(("eta", eid, label))
            if label not in depth[eid]:
                raise FormatError(f"{pointer}: label {_show(label)} is not in the depth of edge {eid!r}")
            eta[(eid, label)] = _complex_from_json(value, pointer)
    return ObstructionInput(eta)


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        except ValueError:  # an integer literal past sys.get_int_max_str_digits()
            raise FormatError(f"{path}: not valid JSON: an integer literal is too long") from None
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


def _float(x) -> str:
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _encode(value, newline: str) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``
    writes it, with ``newline`` ending each line above it.  Dispatch is on the
    exact type; subclasses go through the stdlib's ``isinstance`` order and
    tuples are arrays.  No cycle check: every dumped object is a fresh tree."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is not dict and kind is not list and kind is not tuple:
        base = next((t for t in (str, int, float, dict, list, tuple) if isinstance(value, t)), None)
        if base is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return _SCALARS[base](value) if base in _SCALARS else _encode(base(value), newline)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is dict:
        parts = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not isinstance(key, (int, float)) and key is not None:
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                key = _encode(key, newline)
            scalar = _SCALARS.get(type(item))
            parts.append(f"{encode_basestring_ascii(key)}: {_encode(item, inner) if scalar is None else scalar(item)}")
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    kinds = set(map(type, value))
    scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    parts = map(scalar, value) if scalar is not None else [_encode(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(parts) + newline + "]"


def dump_json(data: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline end;
    a NaN or infinite float raises ValueError, so the output is always JSON.
    Same bytes as ``json.dumps(indent=2, sort_keys=True, allow_nan=False)``."""
    return _encode(data, "\n") + "\n"
