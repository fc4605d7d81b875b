"""Built-in solver adapters — every min-cut entry point behind one signature.

Importing this module registers the paper's algorithms and all
baselines into :data:`repro.api.registry.DEFAULT_REGISTRY`, and
imports none of them: each adapter imports its algorithm on its first
call.  Each adapter has the uniform signature

    adapter(graph, *, epsilon=None, mode="reference", seed=0,
            budget=None, **options) -> CutResult

and maps those knobs onto the underlying algorithm: ``budget`` becomes
the tree cap for the packing solvers, the repetition count for the
contraction solvers and the rate-sweep length for Su.  Extra keyword
``options`` are forwarded to solvers that take them (``exact``'s
``tree_count``, ``su``'s ``trials_per_rate``); solvers without extra
knobs reject unknown options instead of silently dropping them.
Provenance fields (``solver``, ``guarantee``, ``seed``, ``wall_time``)
are stamped by the façade, not here.
"""

from __future__ import annotations

import importlib
import math
from typing import Any, Optional

from ..errors import AlgorithmError
from .registry import register_solver
from .result import CutResult

#: Where each algorithm an adapter calls is defined.  Registering the
#: adapters imports none of them: an adapter fetches its algorithms
#: with :func:`_algorithm` on its first call, which keeps each as an
#: attribute of this module, so ``repro.api.solvers.<name>`` is the
#: function the adapters run.
_ALGORITHMS = {
    "bridge_component": "repro.baselines.bridges",
    "find_bridges": "repro.baselines.bridges",
    "brute_force_min_cut": "repro.baselines.brute_force",
    "karger_min_cut": "repro.baselines.contraction",
    "karger_stein_min_cut": "repro.baselines.contraction",
    "gomory_hu_min_cut": "repro.baselines.gomory_hu",
    "matula_approx_min_cut": "repro.baselines.matula",
    "sparse_certificate": "repro.baselines.nagamochi_ibaraki",
    "stoer_wagner_min_cut": "repro.baselines.stoer_wagner",
    "su_minimum_cut_congest": "repro.baselines.su_congest",
    "su_approx_min_cut": "repro.baselines.su_sampling",
    "minimum_cut_exact_two_respect": "repro.core.two_respect",
    "min_weighted_degree": "repro.graphs.properties",
    "minimum_cut_approx": "repro.mincut.approx",
    "minimum_cut_exact": "repro.mincut.exact",
    "minimum_cut_exact_congest_full": "repro.mincut.exact_distributed",
}

#: ``brute_force``'s node limit: registry metadata, declared here so
#: that registering needs no algorithm; the algorithm enforces it too.
MAX_BRUTE_FORCE_NODES = 18


def __getattr__(name: str) -> Any:
    """PEP 562: an algorithm of :data:`_ALGORITHMS`, imported on first use."""
    module = _ALGORITHMS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def _algorithm(name: str) -> Any:
    """The algorithm ``name`` as this module holds it (see :data:`_ALGORITHMS`)."""
    found = globals().get(name)
    return found if found is not None else __getattr__(name)


def _entry_point(name: str) -> str:
    """``SolverSpec.entry_point`` of the algorithm ``name``."""
    return f"{_ALGORITHMS[name]}:{name}"


DEFAULT_EPSILON = 0.5


def _eps(epsilon: Optional[float]) -> float:
    return DEFAULT_EPSILON if epsilon is None else epsilon


def _lg(n: int) -> float:
    return math.log2(max(2, n))


# ----------------------------------------------------------------------
# Expected-cost models
# ----------------------------------------------------------------------
# Order-of-magnitude elementary-operation estimates for a default-effort
# run on an (n, m) graph — the ``cost_model`` capability metadata.  The
# units are relative (cross-solver comparable), not wall seconds: the
# auto policy compares them against the caller's ``budget`` ceiling to
# skip solvers that are too expensive for an instance *before* running
# anything (see SolverRegistry.select_auto).

def _cost_packing(n: int, m: int) -> float:
    # adaptive schedule: ~(2 lg n + 8) trees, each an MST + subtree scan
    return (2 * _lg(n) + 8) * (m * _lg(n) + n)


def _cost_stoer_wagner(n: int, m: int) -> float:
    return n * (m + n)


def _cost_brute_force(n: int, m: int) -> float:
    return float(2 ** min(n, 40)) * m


def _cost_nagamochi(n: int, m: int) -> float:
    return n * m


def _cost_gomory_hu(n: int, m: int) -> float:
    return n * n * m


def _cost_karger(n: int, m: int) -> float:
    return 4 * n * m  # default repetitions ~4n, O(m) per contraction


def _cost_karger_stein(n: int, m: int) -> float:
    return _lg(n) ** 2 * n * n


def _cost_matula(n: int, m: int) -> float:
    return m * _lg(n)


def _cost_su(n: int, m: int) -> float:
    return 8 * m * _lg(n)


def _cost_approx(n: int, m: int) -> float:
    return m * _lg(n) ** 2 + n * _lg(n)


def _cost_two_respect(n: int, m: int) -> float:
    return 12 * (n * n + m)


def _cost_simulated(n: int, m: int) -> float:
    # full CONGEST simulation: every round touches every busy edge
    return n ** 1.5 * m


def _cost_bridges(n: int, m: int) -> float:
    return n + m


# ----------------------------------------------------------------------
# The paper's algorithms
# ----------------------------------------------------------------------


@register_solver(
    "exact",
    kind="exact",
    guarantee="exact",
    display="this paper, exact",
    entry_point=_entry_point("minimum_cut_exact"),
    summary="Thorup tree packing + per-tree 1-respecting cuts (Theorem 2.1)",
    supports_congest=True,
    cost_model=_cost_packing,
    priority=100,
)
def _solve_exact(graph, *, epsilon=None, mode="reference", seed=0, budget=None,
                 tree_count=None, **options):
    result = _algorithm("minimum_cut_exact")(
        graph, mode=mode, tree_count=tree_count, max_trees=budget, **options
    )
    return _packing_result(result)


@register_solver(
    "exact_congest_full",
    kind="exact",
    guarantee="exact",
    display="this paper, fully distributed",
    entry_point=_entry_point("minimum_cut_exact_congest_full"),
    summary="all-measured pipeline: Boruvka packing + Theorem 2.1, no charged rounds",
    supports_congest=True,
    heavy=True,
    cost_model=_cost_simulated,
    priority=60,
)
def _solve_exact_congest_full(graph, *, epsilon=None, mode="reference", seed=0,
                              budget=None, tree_count=None, **options):
    if budget is not None:
        options.setdefault("max_trees", budget)
    result = _algorithm("minimum_cut_exact_congest_full")(
        graph, tree_count=tree_count, **options
    )
    return _packing_result(result)


@register_solver(
    "approx",
    kind="approx",
    guarantee="1+eps",
    display="this paper, (1+eps)",
    entry_point=_entry_point("minimum_cut_approx"),
    summary="Karger skeleton sampling + exact solve of the skeleton",
    supports_congest=True,
    requires_integer_weights=True,
    randomized=True,
    max_epsilon=1.0,
    cost_model=_cost_approx,
    priority=100,
)
def _solve_approx(graph, *, epsilon=None, mode="reference", seed=0, budget=None,
                  **options):
    _reject_options("approx", options)
    result = _algorithm("minimum_cut_approx")(
        graph, epsilon=_eps(epsilon), seed=seed, mode=mode
    )
    return CutResult(
        value=result.value,
        side=result.side,
        metrics=result.metrics,
        extras={
            "probability": result.probability,
            "skeleton_value": result.skeleton_value,
            "halvings": result.halvings,
            "used_sampling": result.used_sampling,
        },
    )


@register_solver(
    "two_respect",
    kind="exact",
    guarantee="exact",
    display="2-respecting packing (Karger)",
    entry_point=_entry_point("minimum_cut_exact_two_respect"),
    summary="greedy packing + per-tree 2-respecting minimisation; budget = tree cap",
    cost_model=_cost_two_respect,
    priority=70,
)
def _solve_two_respect(graph, *, epsilon=None, mode="reference", seed=0,
                       budget=None, tree_count=None, **options):
    if budget is not None:
        options.setdefault("max_trees", budget)
    result = _algorithm("minimum_cut_exact_two_respect")(
        graph, tree_count=tree_count, **options
    )
    return CutResult(
        value=result.best_value,
        side=result.side,
        extras={
            "respect_nodes": result.nodes,
            "crossings": result.crossings,
        },
    )


# ----------------------------------------------------------------------
# Exact baselines
# ----------------------------------------------------------------------


@register_solver(
    "stoer_wagner",
    kind="exact",
    guarantee="exact",
    display="Stoer-Wagner",
    entry_point=_entry_point("stoer_wagner_min_cut"),
    summary="min-degree bound + MA-scan contraction; the ground-truth oracle",
    ground_truth=True,
    cost_model=_cost_stoer_wagner,
    priority=90,
)
def _solve_stoer_wagner(graph, *, epsilon=None, mode="reference", seed=0,
                        budget=None, **options):
    _reject_options("stoer_wagner", options)
    return CutResult(**_value_side(_algorithm("stoer_wagner_min_cut")(graph)))


@register_solver(
    "brute_force",
    kind="exact",
    guarantee="exact",
    display="brute force",
    entry_point=_entry_point("brute_force_min_cut"),
    summary=f"enumerate every cut (n <= {MAX_BRUTE_FORCE_NODES})",
    max_nodes=MAX_BRUTE_FORCE_NODES,
    cost_model=_cost_brute_force,
    priority=10,
)
def _solve_brute_force(graph, *, epsilon=None, mode="reference", seed=0,
                       budget=None, **options):
    _reject_options("brute_force", options)
    return CutResult(**_value_side(_algorithm("brute_force_min_cut")(graph)))


@register_solver(
    "nagamochi_ibaraki",
    kind="exact",
    guarantee="exact",
    display="Nagamochi-Ibaraki + SW",
    entry_point=_entry_point("sparse_certificate"),
    summary="sparse k-certificate (k = min degree + 1), then Stoer-Wagner on it",
    cost_model=_cost_nagamochi,
    priority=50,
)
def _solve_nagamochi_ibaraki(graph, *, epsilon=None, mode="reference", seed=0,
                             budget=None, **options):
    _reject_options("nagamochi_ibaraki", options)
    # λ ≤ min weighted degree < k, so the certificate preserves every
    # cut of value below k exactly and its minimum cut is a minimum cut
    # of the original graph.
    k = _algorithm("min_weighted_degree")(graph) + 1.0
    certificate = _algorithm("sparse_certificate")(graph, k)
    witness = _algorithm("stoer_wagner_min_cut")(certificate)
    value = graph.cut_value(witness.side)
    return CutResult(
        value=value,
        side=witness.side,
        extras={
            "certificate_k": k,
            "certificate_edges": certificate.number_of_edges,
            "original_edges": graph.number_of_edges,
        },
    )


@register_solver(
    "gomory_hu",
    kind="exact",
    guarantee="exact",
    display="Gomory-Hu tree",
    entry_point=_entry_point("gomory_hu_min_cut"),
    summary="cut tree from n-1 max flows; lightest tree edge is the min cut",
    cost_model=_cost_gomory_hu,
    priority=40,
)
def _solve_gomory_hu(graph, *, epsilon=None, mode="reference", seed=0,
                     budget=None, **options):
    _reject_options("gomory_hu", options)
    return CutResult(**_value_side(_algorithm("gomory_hu_min_cut")(graph)))


# ----------------------------------------------------------------------
# Monte Carlo baselines
# ----------------------------------------------------------------------


@register_solver(
    "karger",
    kind="exact",
    guarantee="exact (whp)",
    display="Karger contraction",
    entry_point=_entry_point("karger_min_cut"),
    summary="random contraction; budget = repetitions (default capped for speed)",
    randomized=True,
    cost_model=_cost_karger,
    priority=20,
)
def _solve_karger(graph, *, epsilon=None, mode="reference", seed=0, budget=None,
                  **options):
    _reject_options("karger", options)
    n = graph.number_of_nodes
    # The theoretical O(n^2 log n) repetition default is far too slow for
    # interactive use; cap it and let ``budget`` override.
    repetitions = budget if budget is not None else max(32, min(256, 4 * n))
    result = _algorithm("karger_min_cut")(graph, repetitions=repetitions, seed=seed)
    return CutResult(
        **_value_side(result), extras={"repetitions": repetitions}
    )


@register_solver(
    "karger_stein",
    kind="exact",
    guarantee="exact (whp)",
    display="Karger-Stein",
    entry_point=_entry_point("karger_stein_min_cut"),
    summary="recursive contraction; budget = repetitions",
    randomized=True,
    cost_model=_cost_karger_stein,
    priority=30,
)
def _solve_karger_stein(graph, *, epsilon=None, mode="reference", seed=0,
                        budget=None, **options):
    _reject_options("karger_stein", options)
    n = graph.number_of_nodes
    repetitions = (
        budget
        if budget is not None
        else max(1, int(math.ceil(math.log2(max(2, n)) ** 2)))
    )
    result = _algorithm("karger_stein_min_cut")(graph, repetitions=repetitions, seed=seed)
    return CutResult(**_value_side(result), extras={"repetitions": repetitions})


# ----------------------------------------------------------------------
# Approximate / bound baselines
# ----------------------------------------------------------------------


@register_solver(
    "matula",
    kind="approx",
    guarantee="2+eps",
    display="Matula (2+eps) [GK13 analog]",
    entry_point=_entry_point("matula_approx_min_cut"),
    summary="NI-certificate contraction; centralized Ghaffari-Kuhn analog",
    cost_model=_cost_matula,
    priority=50,
)
def _solve_matula(graph, *, epsilon=None, mode="reference", seed=0, budget=None,
                  **options):
    _reject_options("matula", options)
    result = _algorithm("matula_approx_min_cut")(graph, epsilon=_eps(epsilon))
    return CutResult(**_value_side(result))


@register_solver(
    "su",
    kind="approx",
    guarantee="1+eps (whp)",
    display="Su (sampling+bridges)",
    entry_point=_entry_point("su_approx_min_cut"),
    summary="sampling + bridge finding (SPAA 2014 concurrent result); budget = rate steps",
    requires_integer_weights=True,
    randomized=True,
    cost_model=_cost_su,
    priority=30,
)
def _solve_su(graph, *, epsilon=None, mode="reference", seed=0, budget=None,
              **options):
    if budget is not None:
        options.setdefault("rate_steps", budget)
    result = _algorithm("su_approx_min_cut")(graph, seed=seed, **options)
    return CutResult(**_value_side(result))


@register_solver(
    "su_congest",
    kind="approx",
    guarantee="1+eps (whp)",
    display="Su, fully distributed",
    entry_point=_entry_point("su_minimum_cut_congest"),
    summary="distributed Su pipeline: sampling + skeleton BFS + Theorem 2.1; budget = rate steps",
    supports_congest=True,
    requires_integer_weights=True,
    randomized=True,
    heavy=True,
    cost_model=_cost_simulated,
    priority=10,
)
def _solve_su_congest(graph, *, epsilon=None, mode="reference", seed=0,
                      budget=None, **options):
    if budget is not None:
        options.setdefault("rate_steps", budget)
    result = _algorithm("su_minimum_cut_congest")(graph, seed=seed, **options)
    return CutResult(
        value=result.value,
        side=result.side,
        metrics=result.metrics,
        extras={
            "best_rate": result.best_rate,
            "rates_tried": result.rates_tried,
        },
    )


@register_solver(
    "bridges",
    kind="bound",
    guarantee="upper bound",
    display="bridges (upper bound)",
    entry_point=_entry_point("find_bridges"),
    summary="best bridge cut if any, else lightest singleton — a certified upper bound",
    cost_model=_cost_bridges,
    priority=0,
)
def _solve_bridges(graph, *, epsilon=None, mode="reference", seed=0, budget=None,
                   **options):
    _reject_options("bridges", options)
    node = min(graph.nodes, key=lambda u: (graph.weighted_degree(u), repr(u)))
    best_value = graph.weighted_degree(node)
    best_side = frozenset({node})
    bridge_count = 0
    bridge_component = _algorithm("bridge_component")
    for bridge in _algorithm("find_bridges")(graph):
        bridge_count += 1
        side = frozenset(bridge_component(graph, bridge))
        value = graph.cut_value(side)
        if value < best_value:
            best_value, best_side = value, side
    return CutResult(
        value=best_value, side=best_side, extras={"bridges_found": bridge_count}
    )


def _value_side(result) -> dict:
    """Pull the canonical (value, side) pair out of a legacy result."""
    return {"value": result.value, "side": result.side}


def _packing_result(result) -> CutResult:
    """Canonical CutResult for the two tree-packing pipelines."""
    return CutResult(
        value=result.value,
        side=result.side,
        metrics=result.metrics,
        extras={
            "tree_index": result.tree_index,
            "trees_used": result.trees_used,
            "per_tree_values": result.per_tree_values,
        },
    )


def _reject_options(name: str, options: dict) -> None:
    """Solvers without extra knobs fail fast on unknown options, so a
    typo'd or inapplicable keyword is never silently dropped."""
    if options:
        raise AlgorithmError(
            f"solver {name!r} does not accept extra options: "
            f"{', '.join(sorted(options))}"
        )


__all__ = ["DEFAULT_EPSILON", "MAX_BRUTE_FORCE_NODES"]
