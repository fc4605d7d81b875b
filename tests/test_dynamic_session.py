"""DynamicSession: certificate-gated solves must match cold solves.

The acceptance property: whatever mix of certificate skips, cache hits
and real solver runs a session uses, ``solve()`` returns the same
value and the same partition (up to side/complement) as a cold
``Engine.solve`` of the current graph with the same knobs.
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.dynamic import (
    AddEdge,
    AddNode,
    CERTIFICATE_KINDS,
    RemoveEdge,
    Reweight,
    certify_effect,
    apply_op,
)
from repro.errors import DisconnectedGraphError
from repro.exec import ResultCache
from repro.graphs import WeightedGraph, planted_cut_graph


def planted():
    """Two blobs joined by 3 unit edges — λ = 3, unique partition."""
    return planted_cut_graph((8, 8), 3, seed=7)


def same_partition(a, b, graph):
    return a == b or a == frozenset(graph.nodes) - b


def cold_solve(session):
    """A from-scratch solve of the session's current graph."""
    return Engine(solver=session.solver, seed=session.seed).solve(
        session.graph.copy(), epsilon=session.epsilon, mode=session.mode
    )


def crossing_edge(graph, side):
    for u, v, _w in graph.edges():
        if (u in side) != (v in side):
            return u, v
    raise AssertionError("no crossing edge")


def internal_pair(graph, side):
    """An existing edge with both endpoints inside the witness side."""
    for u, v, _w in graph.edges():
        if u in side and v in side:
            return u, v
    raise AssertionError("no internal edge")


@pytest.fixture
def session():
    engine = Engine(solver="stoer_wagner", seed=0, cache=ResultCache())
    return engine.dynamic_session(planted())


class TestCertifyEffect:
    def test_kinds_are_the_documented_ones(self):
        assert CERTIFICATE_KINDS == (
            "no-change", "non-crossing-increase", "crossing-decrease",
        )

    def test_table(self):
        g = WeightedGraph([(0, 1, 2.0), (1, 2, 2.0), (0, 2, 2.0), (2, 3, 1.0)])
        side = frozenset({3})
        cases = [
            (Reweight(0, 1, 2.0), "exact", "no-change"),          # noop
            (Reweight(0, 1, 5.0), "exact", "non-crossing-increase"),
            (AddEdge(0, 1, 1.0), "exact", "non-crossing-increase"),  # merge
            (Reweight(2, 3, 0.5), "exact", "crossing-decrease"),
            (RemoveEdge(2, 3), "exact", "crossing-decrease"),
            (Reweight(2, 3, 0.5), "(1+eps)", None),  # not exact
            (Reweight(2, 3, 9.0), "exact", None),    # crossing increase
            (Reweight(0, 1, 1.0), "exact", None),    # non-crossing decrease
            (AddEdge(0, 9, 1.0), "exact", None),     # fresh endpoint
            (AddNode(9), "exact", None),             # node-set change
        ]
        for op, guarantee, expected in cases:
            probe = g.copy()
            effect = apply_op(probe, op)
            assert certify_effect(effect, side, guarantee) == expected, op


class TestCertifiedSolves:
    def test_non_crossing_increase_skips_solver(self, session):
        base = session.solve()
        u, v = internal_pair(session.graph, base.side)
        session.apply(AddEdge(u, v, 5.0))
        result = session.solve()
        assert session.counters["solver_runs"] == 1
        assert session.counters["certified"] == 1
        cert = result.extras["certificate"]
        assert cert["kinds"] == ["non-crossing-increase"]
        assert cert["base_value"] == base.value
        assert cert["source"] == "witness-monotonicity"
        fresh = cold_solve(session)
        assert result.value == fresh.value
        assert same_partition(result.side, fresh.side, session.graph)
        assert result.solver == fresh.solver
        assert result.seed == fresh.seed
        assert result.matches(session.graph)

    def test_crossing_decrease_skips_solver_for_exact(self, session):
        base = session.solve()
        u, v = crossing_edge(session.graph, base.side)
        session.apply(Reweight(u, v, 0.5))
        result = session.solve()
        assert result.extras["certificate"]["kinds"] == ["crossing-decrease"]
        assert result.value == base.value - 0.5
        fresh = cold_solve(session)
        assert result.value == fresh.value
        assert same_partition(result.side, fresh.side, session.graph)

    def test_noop_certifies_as_no_change_and_hits_cache(self, session):
        base = session.solve()
        weight = session.graph.weight(*internal_pair(session.graph, base.side))
        u, v = internal_pair(session.graph, base.side)
        session.apply(Reweight(u, v, weight))
        result = session.solve()
        cert = result.extras["certificate"]
        assert cert["kinds"] == ["no-change"]
        # Identical graph state => same cache key as the base solve.
        assert cert["cache"] == "revisited-state"
        assert result.extras["cache"]["hit"] is True
        assert result.value == base.value
        assert result.side == base.side

    def test_multi_op_certificate_lists_every_kind(self, session):
        base = session.solve()
        u, v = internal_pair(session.graph, base.side)
        a, b = crossing_edge(session.graph, base.side)
        session.apply(AddEdge(u, v, 2.0))
        session.apply(Reweight(a, b, 0.25))
        result = session.solve()
        cert = result.extras["certificate"]
        assert cert["kinds"] == ["non-crossing-increase", "crossing-decrease"]
        assert cert["ops"] == 2
        fresh = cold_solve(session)
        assert result.value == fresh.value


class TestSolverFallbacks:
    def test_crossing_increase_runs_solver(self, session):
        base = session.solve()
        u, v = crossing_edge(session.graph, base.side)
        session.apply(Reweight(u, v, 50.0))
        result = session.solve()
        assert "certificate" not in result.extras
        assert session.counters["solver_runs"] == 2
        fresh = cold_solve(session)
        assert result.value == fresh.value

    def test_node_addition_runs_solver(self, session):
        base = session.solve()
        some = next(iter(base.side))
        session.apply(AddEdge(some, "fresh", 0.5))
        result = session.solve()
        assert "certificate" not in result.extras
        # The new leaf's pendant cut (0.5) is now the minimum — exactly
        # why edges with created endpoints must never certify.
        assert result.value == 0.5
        assert session.counters["solver_runs"] == 2

    def test_approx_guarantee_blocks_crossing_decrease(self):
        # matula: approximate guarantee, no integer-weight requirement,
        # so the fractional reweight below stays solvable.
        engine = Engine(solver="matula", seed=0, cache=ResultCache())
        session = engine.dynamic_session(planted(), epsilon=0.5)
        base = session.solve()
        assert base.guarantee != "exact"
        u, v = crossing_edge(session.graph, base.side)
        session.apply(Reweight(u, v, 0.5))
        result = session.solve()
        assert "certificate" not in result.extras
        assert session.counters["solver_runs"] == 2
        # ... but a non-crossing increase still certifies for approx.
        a, b = internal_pair(session.graph, result.side)
        session.apply(AddEdge(a, b, 3.0))
        certified = session.solve()
        assert certified.extras["certificate"]["kinds"] == [
            "non-crossing-increase"
        ]

    def test_disconnection_surfaces_the_usual_error(self):
        engine = Engine(solver="stoer_wagner", cache=ResultCache())
        session = engine.dynamic_session(
            WeightedGraph([(0, 1, 1.0), (1, 2, 1.0)])
        )
        session.solve()
        session.apply(RemoveEdge(0, 1))
        with pytest.raises(DisconnectedGraphError):
            session.solve()


class TestConnectivityCheck:
    """A certified solve re-checks connectivity only after a deletion."""

    @pytest.fixture
    def bfs_calls(self, monkeypatch):
        calls = []
        original = WeightedGraph.is_connected

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(WeightedGraph, "is_connected", counting)
        return calls

    def test_removal_free_window_skips_the_bfs(self, session, bfs_calls):
        base = session.solve()
        u, v = internal_pair(session.graph, base.side)
        a, b = crossing_edge(session.graph, base.side)
        session.apply(AddEdge(u, v, 2.0))
        session.apply(Reweight(a, b, 0.5))
        bfs_calls.clear()
        result = session.solve()
        assert result.extras["certificate"]["kinds"] == [
            "non-crossing-increase", "crossing-decrease",
        ]
        assert bfs_calls == []
        assert result.value == cold_solve(session).value

    def test_crossing_deletion_still_checks(self, session, bfs_calls):
        base = session.solve()
        a, b = crossing_edge(session.graph, base.side)
        session.apply(RemoveEdge(a, b))
        bfs_calls.clear()
        result = session.solve()
        assert result.extras["certificate"]["kinds"] == ["crossing-decrease"]
        assert bfs_calls == [session.graph]
        assert result.value == base.value - 1.0 == cold_solve(session).value


class TestUndoAndCache:
    def test_undo_across_solve_point_hits_engine_cache(self, session):
        base = session.solve()
        u, v = internal_pair(session.graph, base.side)
        session.apply(AddEdge(u, v, 5.0))
        session.solve()
        session.undo()  # back to the base graph state
        result = session.solve()
        assert result.extras["cache"]["hit"] is True
        assert session.counters["cache_hits"] >= 1
        assert result.value == base.value
        assert result.side == base.side
        assert result.solver == base.solver
        assert result.seed == base.seed

    def test_undo_before_solve_keeps_witness(self, session):
        base = session.solve()
        u, v = internal_pair(session.graph, base.side)
        session.apply(AddEdge(u, v, 5.0))
        assert session.pending_ops == 1
        session.undo()
        assert session.pending_ops == 0
        assert session.last_result is base

    def test_certified_value_recomputed_not_drifted(self, session):
        """Certified values come from cut_value on the live graph."""
        base = session.solve()
        u, v = crossing_edge(session.graph, base.side)
        for weight in (0.9, 0.8, 0.7):
            session.apply(Reweight(u, v, weight))
            result = session.solve()
            assert result.value == session.graph.cut_value(base.side)


class TestSessionPlumbing:
    def test_knobs_inherit_from_engine(self):
        engine = Engine(solver="stoer_wagner", seed=9, mode="reference")
        session = engine.dynamic_session(planted())
        assert session.solver == "stoer_wagner"
        assert session.seed == 9
        override = engine.dynamic_session(planted(), seed=3)
        assert override.seed == 3

    def test_copy_semantics(self):
        engine = Engine(solver="stoer_wagner")
        mine = planted()
        session = engine.dynamic_session(mine)
        session.apply(AddNode("extra"))
        assert "extra" not in mine
        shared = engine.dynamic_session(mine, copy=False)
        shared.apply(AddNode("extra"))
        assert "extra" in mine

    def test_validate_mode_cross_checks_certificates(self, session):
        session.validate = True
        base = session.solve()
        u, v = internal_pair(session.graph, base.side)
        session.apply(AddEdge(u, v, 2.0))
        result = session.solve()  # would raise on a bad certificate
        assert result.extras["certificate"]["kinds"]

    def test_stats_shape(self, session):
        session.solve()
        session.apply(AddNode("s"))
        session.undo()
        stats = session.stats()
        assert stats["ops"] == 1
        assert stats["undos"] == 1
        assert stats["solves"] == 1
        assert set(stats["index"]) == {"patched", "rebuilt", "noops"}
        assert stats["graph"]["hash"] == session.graph.content_hash()
        assert stats["graph"]["n"] == session.graph.number_of_nodes
