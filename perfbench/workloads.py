"""The four benchmark workloads and their seeded inputs.

Why these workloads:

- report-witness: the corpus plus planted-feasible graphs through the
  report pipeline.  The exact LP is about 97% of each op, so a faster LP
  shows here.
- report-free: one-divisor graphs with independent contacts, mostly
  infeasible.  Same simplex layer used differently: 3 LP solves per
  infeasible graph plus the certificate read-out.
- cone-diamond: layered diamonds with high kernel dimension and
  non-simplicial cones, so the double description dominates; no LP call.
- lattice-multidiv: 4-6 divisors, where Smith/Hermite forms dominate; no LP
  call.  It also carries the known obstruction defect.

Each workload runs a fixed graph family in whole passes.  The part of each
graph that the lattice map, the LP and the cone see is drawn from a
per-workload family seed; the run seed draws the rest: genera, legs and
contexts for the report workloads, the planted eta for the library ones.
Cost per graph is so heavy-tailed (2 ms to 5 s per report at these sizes,
on a 2-vCPU x86-64 host) that fresh graphs per run seed moved graphs_per_s
and latency_p90_ms by 15-30% between seeds, more than any usable bound.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources

from logcone import corpus, serialize
from logcone.cone import ObstructionInput

import gen

GRAPH_KEYS = ("schema", "divisors", "vertices", "edges", "legs")
REPORT_FAMILY = 34  # generated graphs per report workload: a pass takes about 7 s
DIAMOND_FAMILY = 90  # a pass takes about 6 s
MULTIDIV_FAMILY = 300  # a pass takes about 7 s


def canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Item:
    label: str
    graph_dict: dict
    ctx_dict: dict | None = None
    xi: dict | None = None
    expected: dict | None = None
    planted_feasible: bool = False
    witness_dict: dict | None = None
    # filled by prepare(); not part of the input digest
    graph_bytes: bytes = b""
    ctx_bytes: bytes = b""
    graph: object = None
    ctx: object = None
    eta: object = None
    corpus_witness: object = None

    def canonical_input(self) -> bytes:
        xi = None if self.xi is None else sorted([list(k), re, im] for k, (re, im) in self.xi.items())
        return canonical({"label": self.label, "graph": self.graph_dict, "ctx": self.ctx_dict, "xi": xi})


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "report" or "library"
    build: Callable[[int], list[Item]]  # run seed -> inputs


def corpus_items() -> list[Item]:
    data = resources.files("logcone.data")
    items = []
    for name in corpus.corpus_list():
        raw = json.loads(data.joinpath(f"{name}.json").read_text())
        expected = raw.get("expected", {})
        ctx_file = data.joinpath(f"{name}.ctx.json")
        witness = expected.get("witness_file")
        items.append(
            Item(
                label=f"corpus:{name}",
                graph_dict={k: raw[k] for k in GRAPH_KEYS},
                ctx_dict=json.loads(ctx_file.read_text()) if ctx_file.is_file() else None,
                expected=expected,
                witness_dict=json.loads(data.joinpath(witness).read_text()) if witness else None,
            )
        )
    return items


def _report_witness(seed: int) -> list[Item]:
    rng = random.Random(seed)
    family = random.Random("report-witness")
    items = corpus_items()
    for i in range(REPORT_FAMILY):
        cap = 4 + i % 7
        n_div = family.randint(1, 3)
        n_v = family.randint(1, cap)
        n_extra = family.randint(0, max(0, cap + 2 - (n_v - 1)))
        g = gen.witness_graph(family, rng, n_div, n_v, n_extra)
        items.append(Item(f"g{i}", g, gen.matching_context(g, rng), planted_feasible=True))
    return items


def _report_free(seed: int) -> list[Item]:
    rng = random.Random(seed)
    family = random.Random("report-free")
    items = []
    for i in range(REPORT_FAMILY):
        cap = 4 + i % 7
        n_v = family.randint(1, cap)
        n_extra = family.randint(0, max(0, cap + 2 - (n_v - 1)))
        g = gen.free_graph(family, n_v, n_extra)
        items.append(Item(f"g{i}", g, gen.matching_context(g, rng)))
    return items


def _cone_diamond(seed: int) -> list[Item]:
    rng = random.Random(seed)
    family = random.Random("cone-diamond")
    items = []
    for i in range(DIAMOND_FAMILY):
        widths = [family.randint(2, 4) for _ in range(family.randint(3, 5))]
        g = gen.diamond_graph(family, widths)
        items.append(Item(f"g{i}", g, xi=gen.planted_xi(g, rng)))
    return items


def _lattice_multidiv(seed: int) -> list[Item]:
    rng = random.Random(seed)
    family = random.Random("lattice-multidiv")
    items = []
    for i in range(MULTIDIV_FAMILY):
        n_div = family.randint(4, 6)
        n_v = family.randint(1, 12)
        n_extra = family.randint(0, max(0, 8 - (n_v - 1)))
        g = gen.witness_graph(family, family, n_div, n_v, n_extra, legs=False, allow_loops=False)
        items.append(Item(f"g{i}", g, xi=gen.planted_xi(g, rng)))
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-witness", "report", _report_witness),
        Workload("report-free", "report", _report_free),
        Workload("cone-diamond", "library", _cone_diamond),
        Workload("lattice-multidiv", "library", _lattice_multidiv),
    )
}


def digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.canonical_input())
        h.update(b"\n")
    return h.hexdigest()


def planted_eta(item: Item) -> ObstructionInput:
    """eta = exp(rho . xi): a point of the image torus by construction."""
    eta = {}
    for node, row in gen.rho_entries(item.graph_dict).items():
        eta[node] = cmath.exp(sum(c * complex(*item.xi[lab]) for lab, c in row.items()))
    return ObstructionInput(eta)


def prepare(item: Item) -> None:
    """Library objects and bytes the ops and checks start from (untimed)."""
    item.graph_bytes = canonical(item.graph_dict)
    item.graph = serialize.graph_from_dict(item.graph_dict)
    if item.ctx_dict is not None:
        item.ctx_bytes = canonical(item.ctx_dict)
        item.ctx = serialize.context_from_dict(item.ctx_dict)
    if item.xi is not None:
        item.eta = planted_eta(item)
    if item.witness_dict is not None:
        item.corpus_witness = serialize.witness_from_dict(item.witness_dict)
