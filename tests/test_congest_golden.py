"""Golden fixtures pinning the CONGEST delivery loop bit for bit.

Every protocol below runs on :class:`CongestNetwork` and is compared
against ``congest_golden.json``: the per-phase :class:`PhaseMetrics`
tuples (rounds, messages, words, max message words, max edge backlog),
the charged rounds, and a sha256 of a canonical encoding of every
node's persistent memory and of the driver's outputs.  The matrix is
BFS, convergecast, pipelined keyed sums, gossip and Borůvka MST on four
graphs, the 1-respecting min-cut sweep on two seeds, its simulated
partition variant, and a randomized fuzzer on a fixed seed list, plus
the same protocols on graphs with tuple and large negative node ids.
The multi-tree cases run the sweep over several greedy packing trees
on one reused network, as the exact solver does, so state that a
network or a node context keeps across ``reset_memory`` shows up in
them.

The digests are as strict as comparing values directly, and stricter
where equality is loose: floats are encoded by ``repr`` (so ``0.0`` and
``-0.0``, or ``1`` and ``1.0``, differ), containers carry their type,
and the fuzzer's per-node RNG streams turn any change in delivery or
dispatch order into different sends, metrics and memory.  Sets and
dict keys are sorted by their encoding, since their iteration order is
not part of a protocol's result.  A value whose ``repr`` carries a
memory address has no stable encoding and raises instead.

The fixture was frozen while three interchangeable delivery loops still
existed, and all three agreed on every case.  Regenerate it only when a
change means to alter protocol behaviour::

    PYTHONPATH=src python tests/test_congest_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.congest import CongestNetwork, NodeProgram
from repro.core import one_respecting_min_cut_congest
from repro.graphs import (
    WeightedGraph,
    build_family,
    grid_graph,
    planted_cut_graph,
    random_regular_graph,
    random_spanning_tree,
    weighted_ring_of_cliques,
)
from repro.mst import boruvka_mst
from repro.packing import GreedyTreePacking
from repro.primitives import (
    BFS_TREE,
    Convergecast,
    PipelinedKeyedSum,
    build_bfs_tree,
    gossip_items,
)

GOLDEN_PATH = Path(__file__).with_name("congest_golden.json")

#: Seeds for the randomized fuzzer, run on each of the first three graphs.
FUZZ_SEEDS = (
    0, 1, 2, 3, 7, 11, 42, 99, 256, 1009,
    4242, 31337, 65536, 100003, 271828, 314159, 500000, 777777, 918273, 999999,
)


# -- canonical encoding -------------------------------------------------


def canonical(value) -> str:
    """A deterministic text encoding of ``value`` for hashing."""
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    tag = type(value).__name__
    if isinstance(value, (set, frozenset)):
        return tag + "{" + ",".join(sorted(canonical(x) for x in value)) + "}"
    if isinstance(value, dict):
        items = sorted(f"{canonical(k)}:{canonical(v)}" for k, v in value.items())
        return tag + "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return tag + "[" + ",".join(canonical(x) for x in value) + "]"
    if dataclasses.is_dataclass(value):
        fields = (
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return tag + "(" + ",".join(fields) + ")"
    text = repr(value)
    if " at 0x" in text:
        raise TypeError(
            f"{tag} value has no stable encoding (its repr carries a "
            f"memory address): {text}"
        )
    return tag + ":" + text


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


# -- the protocol matrix ------------------------------------------------


def _graphs():
    return {
        "gnp-49": build_family("gnp", 49, seed=4),
        "grid-36": grid_graph(6, 6),
        "regular-36": build_family("regular", 36, seed=7),
        # Float weights: bit-identical sums need identical delivery *and*
        # processing order.
        "ring-cliques": weighted_ring_of_cliques(5, 4, bridge_weight=0.7),
    }


def _relabel(graph, label):
    """``graph`` with every node ``u`` renamed ``label(u)``, keeping the
    node and edge insertion order."""
    out = WeightedGraph()
    for u in graph.nodes:
        out.add_node(label(u))
    for u, v, w in graph.edges():
        out.add_edge(label(u), label(v), w)
    return out


def _id_graphs():
    """Graphs whose node ids are not ``0..n-1``.

    The ids ``0..n-1`` hash to themselves, so a set of them mostly
    iterates in value order, and a change to how the loop builds its
    dispatch set rarely shows on them.  Tuple ids and large or negative
    ints collide in the set table, and then the table size and the
    insertion order fix the dispatch order: building the set from a
    list instead of a dict fails cases on the two tuple-id graphs.
    Both hashes are unsalted, so the order is the same in every
    process.
    """
    return {
        "grid-rc-6x6": _relabel(grid_graph(6, 6), lambda u: divmod(u, 6)),
        "gnp-rc-49": _relabel(build_family("gnp", 49, seed=4), lambda u: divmod(u, 7)),
        "gnp-bigneg-49": _relabel(
            build_family("gnp", 49, seed=4), lambda u: (u - 24) * 1_000_003
        ),
    }


def _bfs(net):
    return build_bfs_tree(net).outputs


def _convergecast(net):
    build_bfs_tree(net)
    return net.run_phase(
        "cc",
        lambda u: Convergecast(BFS_TREE, initial=lambda ctx: ctx.weighted_degree()),
    ).outputs


def _keyed_sums(net):
    build_bfs_tree(net)
    return net.run_phase(
        "ks",
        lambda u: PipelinedKeyedSum(
            BFS_TREE, lambda ctx: [(ctx.node % 5, 1), (ctx.node % 3, 2)]
        ),
    ).outputs


def _gossip(net):
    gossip_items(
        net,
        lambda ctx: [(ctx.node, ctx.degree)] if ctx.degree >= 3 else [],
        out_key="eq:gossip",
    )
    return net.memory_map("eq:gossip")


def _boruvka(net):
    return sorted(boruvka_mst(net).edges())


PROTOCOLS = {
    "bfs": _bfs,
    "convergecast": _convergecast,
    "keyed-sums": _keyed_sums,
    "gossip": _gossip,
    "boruvka": _boruvka,
}


def _sweep(graph, tree, **kwargs):
    def driver(net):
        result = one_respecting_min_cut_congest(graph, tree, network=net, **kwargs)
        return (result.best_value, result.best_node, result.cut_values)

    return driver


#: Packing trees per multi-tree case (an exact/congest solve packs about 5).
MULTI_TREES = 6


def _multi_tree(graph):
    """The sweep over the first greedy packing trees on one network.

    Each tree's outputs carry a digest of the whole node memory right
    after that tree, so a difference shows at the first tree it
    touches.
    """

    def driver(net):
        per_tree = []
        packing = GreedyTreePacking(graph)
        for _ in range(MULTI_TREES):
            tree = packing.next_tree()
            result = one_respecting_min_cut_congest(graph, tree, network=net)
            per_tree.append((
                result.best_value,
                result.best_node,
                result.cut_values,
                digest([(u, net.memory[u]) for u in net.nodes]),
            ))
        return per_tree

    return driver


class RandomWalkProgram(NodeProgram):
    """A randomized, self-terminating protocol for schedule fuzzing.

    Each node owns a deterministic RNG seeded by ``(seed, node)``; on
    start it emits a few TTL-bounded tokens, and on every delivery it
    logs the arrival (round, sender, payload) and forwards surviving
    tokens to randomly drawn neighbours, sometimes duplicating them.
    Every draw happens in inbox order, so any change in delivery or
    dispatch order snowballs into different sends and memory.  TTLs
    strictly decrease, so the phase reaches quiescence.
    """

    KIND = "tok"

    def __init__(self, node, seed):
        self.rng = random.Random(hash((seed, node)))

    def on_start(self, ctx):
        ctx.memory["fuzz:log"] = log = []
        rng = self.rng
        for _ in range(rng.randint(0, 3)):
            ttl = rng.randint(0, 3)
            token = rng.randint(0, 99)
            target = rng.choice(ctx.neighbors)
            log.append(("start", target, ttl, token))
            ctx.send(target, self.KIND, ttl, token)

    def on_round(self, ctx, inbox):
        log = ctx.memory["fuzz:log"]
        rng = self.rng
        for src, msg in inbox:
            ttl, token = msg.payload
            log.append((ctx.round, src, ttl, token))
            if ttl > 0:
                for _ in range(rng.randint(1, 2)):
                    ctx.send(rng.choice(ctx.neighbors), self.KIND, ttl - 1, token)


def _fuzz(seed):
    def driver(net):
        return net.run_phase(
            "fuzz", lambda u: RandomWalkProgram(u, seed), max_rounds=10_000
        ).outputs

    return driver


def cases() -> dict:
    """``{case id: (graph, driver)}`` for the whole matrix."""
    graphs = _graphs()
    matrix = {
        f"{proto}/{gname}": (graph, driver)
        for proto, driver in PROTOCOLS.items()
        for gname, graph in graphs.items()
    }
    for seed in (0, 1):
        graph = build_family("gnp", 64, seed=seed)
        tree = random_spanning_tree(graph, seed=seed)
        matrix[f"one-respect/gnp-64-seed{seed}"] = (graph, _sweep(graph, tree))
    regular = random_regular_graph(64, 4, seed=5)
    matrix["multi-tree/regular-64"] = (regular, _multi_tree(regular))
    # E2's family at lambda = 2: its fragments hold several fragments
    # below them, so this case pins LowestHolderDowncast's send order.
    planted = planted_cut_graph((24, 24), 2, seed=10)
    matrix["multi-tree/planted-48"] = (planted, _multi_tree(planted))
    grid = grid_graph(7, 7)
    matrix["one-respect-partition/grid-49"] = (
        grid,
        _sweep(grid, random_spanning_tree(grid, seed=2), simulate_partition=True),
    )
    for gname in ("gnp-49", "grid-36", "regular-36"):
        for seed in FUZZ_SEEDS:
            matrix[f"fuzz/{gname}/seed{seed}"] = (graphs[gname], _fuzz(seed))
    # Non-identity node ids.  Keyed sums and the 1-respecting sweep
    # order by id and need int ids, so tuple ids skip them.
    for gname, graph in _id_graphs().items():
        protos = ("bfs", "convergecast", "gossip", "boruvka")
        if gname == "gnp-bigneg-49":
            protos += ("keyed-sums",)
            tree = random_spanning_tree(graph, seed=3)
            matrix[f"one-respect/{gname}"] = (graph, _sweep(graph, tree))
            matrix[f"multi-tree/{gname}"] = (graph, _multi_tree(graph))
        for proto in protos:
            matrix[f"{proto}/{gname}"] = (graph, PROTOCOLS[proto])
        if gname != "gnp-rc-49":
            for seed in FUZZ_SEEDS:
                matrix[f"fuzz/{gname}/seed{seed}"] = (graph, _fuzz(seed))
    return matrix


def record(graph, driver) -> dict:
    """Run ``driver`` on a fresh network; return its golden record."""
    net = CongestNetwork(graph)
    outputs = driver(net)
    return {
        "phases": [
            [p.name, p.rounds, p.messages, p.words, p.max_message_words,
             p.max_edge_backlog]
            for p in net.metrics.phases
        ],
        "charged_rounds": net.metrics.charged_rounds,
        "memory": digest([(u, net.memory[u]) for u in net.nodes]),
        "outputs": digest(outputs),
    }


# -- tests --------------------------------------------------------------

CASES = cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden(case, golden):
    graph, driver = CASES[case]
    assert record(graph, driver) == golden[case]


class TestCanonicalEncoding:
    def test_sets_and_dicts_are_order_free(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})

    def test_stricter_than_equality(self):
        assert 1 == 1.0 and canonical(1) != canonical(1.0)
        assert 0.0 == -0.0 and canonical(0.0) != canonical(-0.0)
        assert canonical((1, 2)) != canonical([1, 2])
        assert canonical(0.1 + 0.2) != canonical(0.3)

    def test_memory_addresses_fail_loudly(self):
        with pytest.raises(TypeError, match="memory address"):
            digest({"x": [object()]})


def main() -> int:
    """Rewrite ``congest_golden.json`` from the current delivery loop,
    sorted by case, one case per line."""
    lines = [
        f" {json.dumps(case)}: {json.dumps(record(*CASES[case]))}"
        for case in sorted(CASES)
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
