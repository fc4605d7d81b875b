"""Tests for the unified solver API: registry, façade, CutResult."""

import pytest

import repro.baselines
import repro.mincut
from repro.api import (
    CutResult,
    SolverRegistry,
    default_registry,
    has_integer_weights,
    solve,
    solve_all,
    solve_batch,
)
from repro.baselines import stoer_wagner_min_cut
from repro.errors import AlgorithmError
from repro.graphs import WeightedGraph, build_family, complete_graph

FAMILIES = [
    ("gnp", 14),
    ("grid", 9),
    ("complete", 8),
]

#: Global min-cut entry points that deliberately have no registry spec.
UNREGISTERED = {
    # s-t cut, needs source/sink arguments — not a global min-cut solver.
    "max_flow_min_cut",
}


def _family(name, n, seed=0):
    graph = build_family(name, n, seed=seed)
    graph.require_connected()
    return graph


class TestRegistryCompleteness:
    def test_every_public_solver_is_registered(self):
        registry = default_registry()
        implementations = {spec.implementation for spec in registry}
        for module in (repro.baselines, repro.mincut):
            for name in module.__all__:
                if name in UNREGISTERED:
                    continue
                is_global_cut = name.endswith("_min_cut") or name.startswith(
                    "minimum_cut"
                )
                if not is_global_cut:
                    continue
                func = getattr(module, name)
                assert (
                    func in implementations
                ), f"{module.__name__}.{name} has no registered solver"

    def test_expected_names_present(self):
        names = set(default_registry().names())
        assert {
            "exact",
            "exact_congest_full",
            "approx",
            "stoer_wagner",
            "brute_force",
            "karger",
            "karger_stein",
            "matula",
            "su",
            "su_congest",
            "two_respect",
            "nagamochi_ibaraki",
            "bridges",
            "gomory_hu",
        } <= names

    def test_specs_have_valid_metadata(self):
        for spec in default_registry():
            assert spec.kind in ("exact", "approx", "bound")
            assert spec.guarantee
            assert spec.display
            assert spec.summary

    def test_duplicate_registration_rejected(self):
        registry = SolverRegistry()

        @registry.register("x", kind="exact", guarantee="exact")
        def _first(graph, **kw):  # pragma: no cover - never run
            raise AssertionError

        with pytest.raises(AlgorithmError):

            @registry.register("x", kind="exact", guarantee="exact")
            def _second(graph, **kw):  # pragma: no cover - never run
                raise AssertionError

    def test_unknown_solver_raises(self):
        with pytest.raises(AlgorithmError, match="unknown solver"):
            solve(_family("gnp", 10), solver="nope")


class TestAutoSelection:
    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_auto_agrees_with_stoer_wagner(self, family, n):
        graph = _family(family, n)
        auto = solve(graph)
        truth = solve(graph, solver="stoer_wagner")
        assert auto.value == pytest.approx(truth.value)

    def test_auto_without_epsilon_is_exact(self):
        result = solve(_family("gnp", 12))
        spec = default_registry().get(result.solver)
        assert spec.kind == "exact"
        assert result.guarantee == "exact"

    def test_auto_with_epsilon_picks_best_approx(self):
        result = solve(_family("complete", 10), epsilon=0.5, seed=1)
        assert result.solver == "approx"
        assert result.guarantee == "1+eps"

    def test_auto_congest_supports_metrics(self):
        result = solve(_family("cycle", 10), mode="congest")
        spec = default_registry().get(result.solver)
        assert spec.supports_congest
        assert result.metrics is not None
        assert result.metrics.total_rounds > 0

    def test_auto_skips_integer_weight_samplers_on_fractional_graphs(self):
        graph = WeightedGraph([(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5), (2, 3, 1.5)])
        assert not has_integer_weights(graph)
        result = solve(graph, epsilon=0.5)
        assert not default_registry().get(result.solver).requires_integer_weights
        assert result.matches(graph)

    def test_explicit_congest_mismatch_raises(self):
        with pytest.raises(AlgorithmError, match="congest"):
            solve(_family("cycle", 8), solver="stoer_wagner", mode="congest")

    def test_explicit_node_limit_raises(self):
        with pytest.raises(AlgorithmError, match="limited"):
            solve(_family("gnp", 24), solver="brute_force")

    def test_explicit_integer_weight_requirement_fails_fast(self):
        graph = WeightedGraph([(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
        for name in ("approx", "su"):
            with pytest.raises(AlgorithmError, match="integer"):
                solve(graph, solver=name)

    def test_auto_respects_epsilon_domain(self):
        # epsilon > 1 is outside the paper-approx solver's domain; auto
        # must fall through to a solver whose domain covers it.
        graph = _family("complete", 10)
        result = solve(graph, epsilon=2.0, seed=1)
        assert result.solver != "approx"
        assert result.matches(graph)

    def test_explicit_epsilon_domain_fails_fast(self):
        with pytest.raises(AlgorithmError, match="epsilon up to"):
            solve(_family("complete", 10), solver="approx", epsilon=2.0)


class TestBudgetAwareAuto:
    """The expected-cost metadata and the budget ceiling on ``auto``."""

    def test_every_builtin_solver_has_a_cost_model(self):
        graph = _family("gnp", 16)
        for spec in default_registry():
            cost = spec.expected_cost(graph)
            assert cost is not None and cost > 0, spec.name

    def test_costs_grow_with_instance_size(self):
        small, large = _family("gnp", 16), _family("gnp", 64)
        for spec in default_registry():
            assert spec.expected_cost(large) > spec.expected_cost(small)

    def test_no_budget_keeps_default_pick(self):
        graph = _family("gnp", 30, seed=1)
        registry = default_registry()
        assert registry.select_auto(graph).name == "exact"

    def test_budget_degrades_to_cheaper_exact_solver(self):
        graph = _family("gnp", 30, seed=1)
        registry = default_registry()
        pick = registry.select_auto(graph, budget=20_000)
        # "exact" is over this ceiling; the strongest affordable
        # guarantee with highest priority wins instead.
        assert pick.name == "stoer_wagner"
        assert pick.expected_cost(graph) <= 20_000

    def test_budget_below_everything_picks_cheapest(self):
        graph = _family("gnp", 30, seed=1)
        registry = default_registry()
        pick = registry.select_auto(graph, budget=1)
        candidates = registry.applicable(
            graph, kinds=("exact",), include_heavy=False
        )
        cheapest = min(candidates, key=lambda s: s.expected_cost(graph))
        assert pick.name == cheapest.name

    def test_unmodelled_solvers_are_never_skipped(self):
        registry = SolverRegistry()

        @registry.register(
            "modelled", kind="exact", guarantee="exact", summary="s",
            priority=10, cost_model=lambda n, m: 1e12,
        )
        def _modelled(graph, **kw):  # pragma: no cover - never run
            raise AssertionError

        @registry.register(
            "unmodelled", kind="exact", guarantee="exact", summary="s",
            priority=5,
        )
        def _unmodelled(graph, **kw):  # pragma: no cover - never run
            raise AssertionError

        graph = _family("gnp", 10)
        assert registry.select_auto(graph, budget=100).name == "unmodelled"

    def test_facade_budget_steers_auto_and_is_not_forwarded(self):
        graph = _family("gnp", 30, seed=1)
        result = solve(graph, budget=20_000)
        assert result.solver == "stoer_wagner"
        truth = solve(graph, solver="stoer_wagner")
        assert result.value == pytest.approx(truth.value)

    def test_facade_named_solver_budget_is_still_the_effort_cap(self):
        graph = _family("gnp", 14)
        result = solve(graph, solver="karger", budget=7, seed=3)
        assert result.extras["repetitions"] == 7

    def test_solve_batch_budget_with_auto(self):
        graphs = [_family("gnp", 30, seed=s) for s in (1, 2)]
        results = solve_batch(graphs, budget=20_000)
        assert [r.solver for r in results] == ["stoer_wagner", "stoer_wagner"]
        for graph, result in zip(graphs, results):
            assert result.matches(graph)


class TestEverySolverVerifies:
    @pytest.mark.parametrize("family,n", FAMILIES)
    def test_all_results_verify(self, family, n):
        graph = _family(family, n)
        results = solve_all(graph, epsilon=0.5, seed=3)
        assert len(results) >= 10
        truth = solve(graph, solver="stoer_wagner").value
        for result in results:
            assert isinstance(result, CutResult)
            assert result.solver
            assert result.wall_time >= 0.0
            assert result.seed == 3
            assert result.verify(graph) == pytest.approx(result.value)
            assert result.value >= truth - 1e-9  # every cut upper-bounds λ
            assert 0 < len(result.side) < graph.number_of_nodes

    def test_exact_solvers_agree_on_lambda(self):
        graph = _family("gnp", 12, seed=5)
        truth = solve(graph, solver="stoer_wagner").value
        for result in solve_all(graph, kinds=("exact",), include_heavy=True):
            if default_registry().get(result.solver).randomized:
                continue  # Monte Carlo solvers are only w.h.p.-exact
            assert result.value == pytest.approx(truth), result.solver

    def test_heavy_solver_verifies_on_small_instance(self):
        graph = _family("cycle", 8)
        result = solve(graph, solver="exact_congest_full")
        assert result.matches(graph)
        assert result.metrics is not None
        assert result.metrics.charged_rounds == 0  # all-measured pipeline

    def test_two_respect_is_exact(self):
        graph = _family("gnp", 14, seed=2)
        truth = solve(graph, solver="stoer_wagner")
        result = solve(graph, solver="two_respect")
        assert result.value == pytest.approx(truth.value)
        assert result.matches(graph)
        assert result.extras["crossings"] in (1, 2)

    def test_two_respect_budget_caps_trees(self):
        graph = _family("grid", 9)
        result = solve(graph, solver="two_respect", budget=2)
        assert result.matches(graph)

    def test_su_congest_is_registered_heavy_and_valid(self):
        spec = default_registry().get("su_congest")
        assert spec.heavy and spec.randomized and spec.requires_integer_weights
        graph = _family("cycle", 8)
        result = solve(graph, solver="su_congest", seed=1, budget=3)
        assert result.matches(graph)
        assert result.metrics is not None
        assert result.extras["rates_tried"] >= 1


class TestFacade:
    def test_budget_reaches_adapters(self):
        graph = _family("gnp", 12)
        result = solve(graph, solver="karger", budget=5, seed=2)
        assert result.extras["repetitions"] == 5

    def test_monte_carlo_provenance_reports_actual_repetitions(self):
        graph = _family("gnp", 12)
        for name in ("karger", "karger_stein"):
            result = solve(graph, solver=name, seed=2)
            assert isinstance(result.extras["repetitions"], int), name
            assert result.extras["repetitions"] > 0, name

    def test_options_forwarded(self):
        graph = _family("cycle", 8)
        result = solve(graph, solver="exact", tree_count=3)
        assert result.extras["trees_used"] == 3

    def test_unknown_options_rejected_not_dropped(self):
        graph = _family("cycle", 8)
        with pytest.raises(AlgorithmError, match="extra options"):
            solve(graph, solver="stoer_wagner", tree_count=3)
        with pytest.raises(AlgorithmError, match="repetitions"):
            solve(graph, solver="karger", repetitions=10)  # use budget=

    def test_auto_never_picks_heavy_solvers(self):
        registry = SolverRegistry()

        @registry.register("cheap", kind="exact", guarantee="exact", priority=1)
        def _cheap(graph, **kw):
            node = graph.nodes[0]
            return CutResult(
                value=graph.weighted_degree(node), side=frozenset({node})
            )

        @registry.register(
            "expensive", kind="exact", guarantee="exact", priority=99, heavy=True
        )
        def _expensive(graph, **kw):  # pragma: no cover - must not run
            raise AssertionError("heavy solver must not be auto-picked")

        graph = _family("cycle", 6)
        assert registry.select_auto(graph).name == "cheap"
        assert solve(graph, registry=registry).solver == "cheap"

    def test_solve_all_kind_filter(self):
        graph = _family("complete", 8)
        kinds = {
            default_registry().get(r.solver).kind
            for r in solve_all(graph, kinds=("approx",))
        }
        assert kinds == {"approx"}

    def test_solve_all_excludes_heavy_by_default(self):
        names = {r.solver for r in solve_all(_family("cycle", 8))}
        assert "exact_congest_full" not in names
        heavy = {r.solver for r in solve_all(_family("cycle", 8), include_heavy=True)}
        assert "exact_congest_full" in heavy

    def test_solve_all_rejects_unknown_names(self):
        with pytest.raises(AlgorithmError, match="unknown solver"):
            solve_all(_family("cycle", 8), names=["typo"])

    def test_solve_all_explicit_name_bypasses_heavy_filter(self):
        results = solve_all(_family("cycle", 8), names=["exact_congest_full"])
        assert [r.solver for r in results] == ["exact_congest_full"]

    def test_solve_all_explicit_name_still_capability_filtered(self):
        # brute_force cannot run at n=24; the request is skipped, not an error.
        results = solve_all(_family("gnp", 24), names=["brute_force", "stoer_wagner"])
        assert [r.solver for r in results] == ["stoer_wagner"]

    def test_solve_batch_per_graph_seeds(self):
        graphs = [_family("cycle", 8), _family("complete", 6), _family("grid", 9)]
        results = solve_batch(graphs, seed=10)
        assert [r.seed for r in results] == [10, 11, 12]
        for graph, result in zip(graphs, results):
            assert result.matches(graph)

    def test_wall_time_stamped(self):
        result = solve(_family("complete", 8))
        assert result.wall_time > 0.0


class TestCutResult:
    def test_verify_rejects_bad_sides(self):
        graph = _family("cycle", 6)
        nodes = list(graph.nodes)
        with pytest.raises(AlgorithmError, match="empty"):
            CutResult(value=1.0, side=frozenset()).verify(graph)
        with pytest.raises(AlgorithmError, match="whole graph"):
            CutResult(value=1.0, side=frozenset(nodes)).verify(graph)
        with pytest.raises(AlgorithmError, match="foreign"):
            CutResult(value=1.0, side=frozenset({"ghost"})).verify(graph)

    def test_matches_tolerance(self):
        graph = _family("cycle", 6)
        side = frozenset(list(graph.nodes)[:3])
        good = CutResult(value=graph.cut_value(side), side=side)
        assert good.matches(graph)
        assert not CutResult(value=0.0, side=side).matches(graph)

    def test_other_side_partitions(self):
        graph = _family("grid", 9)
        result = solve(graph)
        assert result.side | result.other_side(graph) == set(graph.nodes)
        assert not result.side & result.other_side(graph)

    def test_baselines_return_slotted_cut_result(self):
        graph = _family("gnp", 10)
        result = stoer_wagner_min_cut(graph)
        assert type(result) is CutResult
        assert not hasattr(result, "__dict__")
        assert result.matches(graph)

    def test_results_are_hashable(self):
        graph = _family("cycle", 8)
        a = solve(graph, solver="stoer_wagner")
        b = solve(graph, solver="stoer_wagner")
        assert hash(a) == hash(b)
        assert len({a, b, stoer_wagner_min_cut(graph)}) >= 1  # no TypeError

    def test_top_level_reexports(self):
        import repro

        assert repro.solve is solve
        assert repro.CutResult is CutResult
        g = complete_graph(6)
        assert repro.solve(g).value == pytest.approx(5.0)
