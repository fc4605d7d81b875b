"""Incremental GraphIndex + content-hash maintenance under mutation.

The contract under test: after every op absorbed by
:class:`IncrementalIndexer`, ``graph.index()`` and
``graph.content_hash()`` are **bit-identical** to a from-scratch
rebuild of the mutated graph — and after undoing a whole op sequence
they are bit-identical to the *original* graph's (same CSR layout,
same digest), because undo restores adjacency insertion order exactly.
Weight overwrites patch the cached index in place; structural ops
leave ``graph.index()`` to rebuild on next use.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.dynamic import (
    AddEdge,
    AddNode,
    DigestState,
    IncrementalIndexer,
    MutationLog,
    RemoveEdge,
    RemoveNode,
    Reweight,
    index_equal,
)
from repro.exec import ResultCache
from repro.graphs import GraphIndex, WeightedGraph, build_family

DEFAULT_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def base_graph() -> WeightedGraph:
    graph = build_family("grid", 16, seed=0)
    graph.add_edge(0, 15, 2.5)  # a non-grid chord
    return graph


def assert_matches_rebuild(graph: WeightedGraph) -> None:
    """The adopted caches must equal a cold rebuild of the same graph."""
    assert index_equal(graph.index(), GraphIndex(graph))
    assert graph.content_hash() == graph.copy().content_hash()


SINGLE_OPS = [
    Reweight(0, 1, 7.5),
    Reweight(0, 1, 1.0),            # noop
    AddEdge(0, 5, 2.0),             # fresh edge, existing endpoints
    AddEdge(0, 1, 0.5),             # merge
    AddEdge(3, 99, 1.5),            # fresh endpoint
    AddEdge("p", "q", 3.0),         # two fresh endpoints
    RemoveEdge(5, 6),
    AddNode(77),
    RemoveNode(10),
    RemoveNode(15),                 # last-inserted node (pop-last path)
]


class TestSingleOpEquivalence:
    @pytest.mark.parametrize(
        "op", SINGLE_OPS, ids=lambda op: op.to_text().replace(" ", "_")
    )
    def test_apply_then_undo(self, op):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        # Snapshot with a *fresh* build: patches mutate the cached
        # GraphIndex object in place, so graph.index() aliases the live one.
        original_index = GraphIndex(graph)
        original_hash = graph.content_hash()

        indexer.apply(log.apply(op))
        assert_matches_rebuild(graph)

        indexer.unapply(log.undo())
        assert_matches_rebuild(graph)
        assert index_equal(graph.index(), original_index)
        assert graph.content_hash() == original_hash

    def test_structural_op_rebuilds_then_reweight_patches(self):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        assert indexer.apply(log.apply(AddEdge(0, 5, 2.0))) == "rebuilt"
        built = graph.index()  # the lazy rebuild
        assert indexer.apply(log.apply(Reweight(0, 1, 9.0))) == "patched"
        assert graph.index() is built  # patched in place, not rebuilt again
        assert index_equal(built, GraphIndex(graph))
        assert indexer.stats() == {"patched": 1, "rebuilt": 1, "noops": 0}

    def test_reweight_without_current_index_is_rebuilt(self):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        stale = graph.index()
        indexer.apply(log.apply(RemoveEdge(5, 6)))
        # Nothing rebuilt the index since: the reweight has none to patch.
        assert indexer.apply(log.apply(Reweight(0, 1, 9.0))) == "rebuilt"
        assert graph.index() is not stale
        assert_matches_rebuild(graph)

    def test_merge_edge_patches_and_its_undo_patches(self):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        original_index = GraphIndex(graph)
        built = graph.index()
        # (0, 1) exists, so add_edge merges: a weight overwrite.
        assert indexer.apply(log.apply(AddEdge(0, 1, 0.5))) == "patched"
        assert graph.index() is built
        assert_matches_rebuild(graph)
        assert indexer.unapply(log.undo()) == "patched"
        assert graph.index() is built
        assert index_equal(built, original_index)
        assert indexer.stats() == {"patched": 2, "rebuilt": 0, "noops": 0}

    @pytest.mark.parametrize(
        "op", [AddEdge(0, 5, 2.0), RemoveEdge(5, 6), AddNode(77),
               RemoveNode(10)],
        ids=lambda op: op.kind,
    )
    def test_structural_op_adopts_digest_and_builds_no_index(self, op):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        for absorb in (lambda: indexer.apply(log.apply(op)),
                       lambda: indexer.unapply(log.undo())):
            assert absorb() == "rebuilt"
            # Nothing eager: no index for this version until graph.index().
            assert graph._index_at(graph._version) is None
            assert graph._hash_cache == (
                graph._version, indexer.content_hash()
            )
            assert graph.content_hash() == graph.copy().content_hash()

    def test_indexer_has_no_patch_budget_kwarg(self):
        with pytest.raises(TypeError, match="patch_budget"):
            IncrementalIndexer(base_graph(), patch_budget=0)

    def test_noop_verb(self):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        assert indexer.apply(log.apply(Reweight(0, 1, 1.0))) == "noop"
        assert indexer.stats() == {"patched": 0, "rebuilt": 0, "noops": 1}


class TestSequenceRoundTrip:
    def test_mixed_sequence_full_undo_is_bit_identical(self):
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph, validate=True)
        original_index = GraphIndex(graph)
        original_hash = graph.content_hash()
        for op in SINGLE_OPS:
            indexer.apply(log.apply(op))
        assert graph.content_hash() != original_hash
        while len(log):
            indexer.unapply(log.undo())
        assert index_equal(graph.index(), original_index)
        assert graph.content_hash() == original_hash

    def test_adopted_caches_avoid_rebuilds(self):
        """After a patched op, graph.index() must not rebuild."""
        graph = base_graph()
        log = MutationLog(graph)
        indexer = IncrementalIndexer(graph)
        indexer.apply(log.apply(Reweight(0, 1, 9.0)))
        first = graph.index()
        assert graph.index() is first  # cache adopted at current version


class TestDigestState:
    def test_matches_cold_hash_through_mutations(self):
        graph = base_graph()
        state = DigestState(graph)
        assert state.digest() == graph.content_hash()
        log = MutationLog(graph)
        for op in SINGLE_OPS:
            state.apply(log.apply(op))
            assert state.digest() == graph.copy().content_hash()
        while len(log):
            state.unapply(log.undo())
            assert state.digest() == graph.copy().content_hash()


def draw_op(data, graph: WeightedGraph):
    """Draw one valid op against the graph's current state."""
    nodes = graph.nodes
    edges = [(u, v) for u, v, _w in graph.edges()]
    choices = ["add_edge", "add_node"]
    if edges:
        choices += ["reweight", "remove_edge"]
    if len(nodes) > 1:
        choices.append("remove_node")
    kind = data.draw(st.sampled_from(choices))
    if kind == "add_node":
        return AddNode(data.draw(st.integers(0, 40)))
    if kind == "remove_node":
        return RemoveNode(data.draw(st.sampled_from(nodes)))
    if kind in ("reweight", "remove_edge"):
        u, v = data.draw(st.sampled_from(edges))
        if kind == "remove_edge":
            return RemoveEdge(u, v)
        return Reweight(u, v, float(data.draw(st.integers(1, 6))))
    u = data.draw(st.integers(0, 40))
    v = data.draw(st.integers(0, 40))
    if u == v or graph.has_edge(u, v):
        return AddNode(u)  # degrade to something always valid
    return AddEdge(u, v, float(data.draw(st.integers(1, 6))))


class TestPropertyBased:
    @DEFAULT_SETTINGS
    @given(
        st.data(),
        st.integers(min_value=1, max_value=25),
    )
    def test_random_mutation_undo_round_trip(self, data, steps):
        graph = WeightedGraph([(0, 1, 2.0), (1, 2, 1.0), (0, 2, 3.0)])
        log = MutationLog(graph)
        # validate=True cross-checks every op against a rebuild inline.
        indexer = IncrementalIndexer(graph, validate=True)
        original_index = GraphIndex(graph)
        original_hash = graph.content_hash()
        applied = 0
        for _ in range(steps):
            if data.draw(st.booleans(), label="index?"):
                graph.index()  # a lazy rebuild the next reweight patches
            if applied and data.draw(st.booleans(), label="undo?"):
                indexer.unapply(log.undo())
                applied -= 1
            else:
                indexer.apply(log.apply(draw_op(data, graph)))
                applied += 1
        while applied:
            indexer.unapply(log.undo())
            applied -= 1
        assert index_equal(graph.index(), original_index)
        assert graph.content_hash() == original_hash


def _stream_op(rng: random.Random, graph: WeightedGraph, fresh: int):
    """One seeded op that keeps ``graph`` connected (except a bare add_node)."""
    nodes = graph.nodes
    edges = [(u, v) for u, v, _w in graph.edges()]
    kind = rng.choice(
        ["add_edge", "remove_edge", "add_node", "remove_node", "reweight"]
    )
    if kind == "add_node":
        return AddNode(fresh)
    if kind == "remove_node":
        for u in rng.sample(nodes, len(nodes)):
            probe = graph.copy()
            probe.remove_node(u)
            if probe.is_connected():
                return RemoveNode(u)
    if kind == "remove_edge":
        for u, v in rng.sample(edges, len(edges)):
            probe = graph.copy()
            probe.remove_edge(u, v)
            if probe.is_connected():
                return RemoveEdge(u, v)
    if kind == "add_edge":
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            return AddEdge(u, v, rng.choice((0.5, 1.0, 2.5)))
    u, v = rng.choice(edges)
    return Reweight(u, v, rng.choice((0.5, 1.0, 1.5, 3.0)))


class TestStructuralStream:
    """Structural ops through a validating session: every value equals a
    cold solve, and undo restores the original digest and index."""

    @pytest.mark.parametrize("family", ["gnp", "grid"])
    def test_values_match_cold_solves_and_undo_restores(self, family):
        graph = build_family(family, 32, seed=4)
        original_index = GraphIndex(graph)
        original_hash = graph.content_hash()
        engine = Engine(solver="stoer_wagner", seed=0, cache=ResultCache())
        session = engine.dynamic_session(graph, validate=True)
        rng = random.Random(family)
        verbs = []
        fresh = 1000
        for _ in range(30):
            ack = session.apply(_stream_op(rng, session.graph, fresh))
            verbs.append((ack["applied"], ack["index"]))
            if ack["applied"] == "add_node":
                # Wire the new node in so the graph stays solvable.
                anchor = rng.choice(session.graph.nodes[:-1])
                session.apply(AddEdge(fresh, anchor, 1.5))
                fresh += 1
            value = session.solve().value
            assert value == Engine().solve(session.graph.copy()).value
        kinds = {kind for kind, _verb in verbs}
        assert {"add_edge", "remove_edge", "add_node", "remove_node",
                "reweight"} <= kinds
        # A reweight after a structural op and a solve patches the
        # index the solve rebuilt.
        assert ("reweight", "patched") in verbs
        assert session.stats()["index"]["rebuilt"] > 0
        while len(session.log):
            session.undo()
        assert session.graph.content_hash() == original_hash
        assert index_equal(session.graph.index(), original_index)
