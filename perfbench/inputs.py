"""Seeded input generators for the perfbench workloads.

Every input is a pure function of ``--seed``: the same seed gives the
same graphs, request bodies and op streams, byte for byte.  String
seeds go through :class:`random.Random`'s SHA-512 path, so they do not
depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random

from repro.graphs import build_family
from repro.graphs.generators import random_regular_graph
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import graph_to_json

#: solve-congest: distinct random 4-regular graphs, cycled.
CONGEST_GRAPHS = 8
CONGEST_N = 64

#: serve-warm: distinct gnp graphs behind pre-encoded /solve bodies.
WARM_GRAPHS = 200
WARM_N = 60

#: serve-mutate: gnp graph, k reweight ops per request, pre-generated
#: far past what one run can send.
MUTATE_N = 64
MUTATE_OPS_PER_REQUEST = 4
MUTATE_REQUESTS = 3000
MUTATE_WARMUP_REQUESTS = 20
#: Every op lowers the weight of a random edge.  Only a decrease on an
#: edge crossing the current witness cut certifies, so nearly every
#: request with four ops re-solves: one latency mode, not two.
MUTATE_FACTORS = (0.5, 0.6, 0.7, 0.8, 0.9)
MUTATE_FLOOR = 0.05

#: sweep-cold: graphs per sweep, drawn as relabelled copies of a
#: seeded pool so that every sweep is new to the workers' caches while
#: its expected values stay known.  Ten graphs keep a sweep on one CPU
#: short enough that a 15 s run holds the 100 sweeps its p90 needs.
SWEEP_GRAPHS = 10
SWEEP_FAMILIES = ("gnp", "grid", "regular")
SWEEP_N_RANGE = (40, 80)

SOLVER = "stoer_wagner"


def _compact(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def congest_graphs(seed: int) -> list[WeightedGraph]:
    rng = random.Random(f"solve-congest:{seed}")
    graphs, seen = [], set()
    while len(graphs) < CONGEST_GRAPHS:
        graph = random_regular_graph(CONGEST_N, 4, seed=rng.randrange(2**31))
        if graph.content_hash() not in seen:
            seen.add(graph.content_hash())
            graphs.append(graph)
    return graphs


def warm_bodies(seed: int) -> list[bytes]:
    """Distinct ``POST /solve`` bodies (full JSON graph form)."""
    rng = random.Random(f"serve-warm:{seed}")
    bodies, seen = [], set()
    while len(bodies) < WARM_GRAPHS:
        graph = build_family("gnp", WARM_N, seed=rng.randrange(2**31))
        if graph.content_hash() in seen:
            continue
        seen.add(graph.content_hash())
        bodies.append(_compact({"graph": graph_to_json(graph), "solver": SOLVER}))
    return bodies


def warm_draws(seed: int):
    """The endless uniform draw of body indices for the timed loop."""
    rng = random.Random(f"serve-warm-draw:{seed}")
    while True:
        yield rng.randrange(WARM_GRAPHS)


def reweight_stream(graph: WeightedGraph, rng: random.Random, requests: int) -> list[list]:
    """``requests`` lists of ``[u, v, new_weight]`` reweight ops on ``graph``.

    Weights are tracked locally so each op is a decrease of the edge's
    weight at that point of the stream (ops never adapt to responses).
    """
    weights = {(u, v): w for u, v, w in graph.edges()}
    edges = sorted(weights)
    stream = []
    for _ in range(requests):
        ops = []
        for _ in range(MUTATE_OPS_PER_REQUEST):
            edge = edges[rng.randrange(len(edges))]
            old = weights[edge]
            new = round(old * rng.choice(MUTATE_FACTORS), 6)
            if new < MUTATE_FLOOR:
                new = round(rng.uniform(1.0, 2.0), 6)
            weights[edge] = new
            ops.append([edge[0], edge[1], new])
        stream.append(ops)
    return stream


def mutate_inputs(seed: int) -> dict:
    """The session graph, its op stream, and a separate warm-up stream."""
    rng = random.Random(f"serve-mutate:{seed}")
    graph = build_family("gnp", MUTATE_N, seed=rng.randrange(2**31))
    warm_graph = build_family("gnp", MUTATE_N, seed=rng.randrange(2**31))
    return {
        "graph": graph,
        "ops": reweight_stream(graph, rng, MUTATE_REQUESTS),
        "warm_graph": warm_graph,
        "warm_ops": reweight_stream(warm_graph, rng, MUTATE_WARMUP_REQUESTS),
    }


def open_body(graph: WeightedGraph) -> bytes:
    return _compact({"open": {"graph": graph_to_json(graph), "solver": SOLVER}})


def ops_json(ops: list) -> bytes:
    return _compact([{"op": "reweight", "u": u, "v": v, "weight": w} for u, v, w in ops])


def mutate_body(session: str, encoded_ops: bytes) -> bytes:
    """A ``/mutate`` body around already-encoded ops (spliced, not re-encoded)."""
    prefix = b'{"session":' + json.dumps(session).encode() + b',"solve":true,"ops":'
    return prefix + encoded_ops + b"}"


def sweep_pool(seed: int) -> list[WeightedGraph]:
    """Families and sizes are fixed per slot (sizes spread evenly over the
    range), so every seed gives a sweep of the same shape and cost."""
    rng = random.Random(f"sweep-cold:{seed}")
    lo, hi = SWEEP_N_RANGE
    pool = []
    for index in range(SWEEP_GRAPHS):
        family = SWEEP_FAMILIES[index % len(SWEEP_FAMILIES)]
        n = lo + round((hi - lo) * index / (SWEEP_GRAPHS - 1))
        pool.append(build_family(family, n, seed=rng.randrange(2**31)))
    return pool


def relabel(graph: WeightedGraph, mapping: dict) -> WeightedGraph:
    out = WeightedGraph()
    for node in sorted(graph.nodes, key=mapping.__getitem__):
        out.add_node(mapping[node])
    for u, v, w in graph.edges():
        out.add_edge(mapping[u], mapping[v], w)
    return out


def sweep_graphs(pool: list[WeightedGraph], seed: int, sweep: int) -> list[WeightedGraph]:
    """Sweep ``sweep``: each pool graph under a fresh random node relabelling.

    A relabelled graph has a new content hash (so it misses every
    cache) and the same minimum cut value as its pool original.
    """
    rng = random.Random(f"sweep-cold:{seed}:{sweep}")
    out = []
    for graph in pool:
        nodes = sorted(graph.nodes)
        image = list(range(len(nodes)))
        rng.shuffle(image)
        out.append(relabel(graph, dict(zip(nodes, image))))
    return out
