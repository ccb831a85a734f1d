"""Embedded example corpus: small graphs with frozen expected results.

Each entry ships a graph file, usually a context file, and sometimes a
tropical witness, all in the package data directory.  The "expected"
block inside each graph file is consumed by the acceptance suite and by
humans diffing reports; the library itself never reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .graph import DecoratedDualGraph, GeometryContext
from .serialize import context_from_dict, graph_from_dict, witness_from_dict
from .tropical import TropicalWitness


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    notes: str
    expected: dict
    graph: DecoratedDualGraph
    context: GeometryContext | None
    witness: TropicalWitness | None


def _data_dir():
    return resources.files("logcone.data")


def _is_graph_file(item) -> bool:
    """A regular ``*.json`` file (Path or package resource) that is not a context, witness or eta."""
    return (
        item.is_file()
        and item.name.endswith(".json")
        and not item.name.endswith((".ctx.json", ".witness.json", ".eta.json"))
    )


def corpus_list() -> list[str]:
    return sorted(item.name[: -len(".json")] for item in _data_dir().iterdir() if _is_graph_file(item))


def corpus_load(name: str) -> CorpusEntry:
    if name not in corpus_list():
        raise KeyError(f"no corpus entry named {name!r}")
    base = _data_dir()
    data = json.loads(base.joinpath(f"{name}.json").read_text())
    graph = graph_from_dict(data)
    expected = data.get("expected", {})

    ctx_path = base.joinpath(f"{name}.ctx.json")
    context = context_from_dict(json.loads(ctx_path.read_text())) if ctx_path.is_file() else None
    wfile = expected.get("witness_file")
    witness = witness_from_dict(json.loads(base.joinpath(wfile).read_text())) if wfile else None

    return CorpusEntry(
        name=name,
        notes=data.get("notes", ""),
        expected=expected,
        graph=graph,
        context=context,
        witness=witness,
    )
