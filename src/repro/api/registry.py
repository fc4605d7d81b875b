"""Solver registry: capability metadata + lookup for every min-cut solver.

Each solver enters the registry as a :class:`SolverSpec` — an adapter
callable with a uniform keyword signature plus capability metadata
(kind, guarantee class, CONGEST support, integer-weight requirement,
randomization, node limits).  The façade (:mod:`repro.api.facade`), the
CLI and the comparison tables all iterate the registry instead of
hard-coding algorithm lists, so registering a new solver is the single
step needed to surface it everywhere.

Registration is cheap: a spec names its algorithm by ``entry_point``
(``"module:function"``) and the built-in adapters in
:mod:`repro.api.solvers` import their algorithm on first call, so
populating the registry imports no algorithm module — a process pays
for the solvers it runs, not for all fourteen.  Call
:func:`default_registry` (the façade does) to get the fully populated
instance.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph

SOLVER_KINDS = ("exact", "approx", "bound")

#: Ordering of guarantee classes for auto-selection (lower is stronger).
GUARANTEE_RANK = {
    "exact": 0,
    "exact (whp)": 1,
    "1+eps": 2,
    "1+eps (whp)": 3,
    "2+eps": 4,
    "upper bound": 5,
}


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver: adapter callable + capability metadata.

    ``run`` has the uniform adapter signature
    ``run(graph, *, epsilon, mode, seed, budget, **options)`` and
    returns a :class:`~repro.api.result.CutResult` (provenance fields
    are stamped by the façade).  ``entry_point`` (``"module:function"``)
    names the underlying algorithm, which :attr:`implementation`
    imports when read, so completeness can be audited.
    """

    name: str
    run: Callable[..., Any]
    kind: str
    guarantee: str
    display: str
    entry_point: Optional[str] = None
    summary: str = ""
    supports_congest: bool = False
    requires_integer_weights: bool = False
    randomized: bool = False
    max_nodes: Optional[int] = None
    max_epsilon: Optional[float] = None
    heavy: bool = False
    ground_truth: bool = False
    priority: int = 0
    #: Optional ``(n, m) -> float`` estimating the solver's cost on an
    #: n-node, m-edge graph in **cost units** (order-of-magnitude
    #: elementary-operation counts for a default-effort run).  Units are
    #: only meaningful relative to other registered models; the auto
    #: policy compares them against the caller's ``budget`` ceiling.
    cost_model: Optional[Callable[[int, int], float]] = None

    @property
    def implementation(self) -> Optional[Callable[..., Any]]:
        """The algorithm :attr:`entry_point` names, imported when read."""
        if self.entry_point is None:
            return None
        module, _, function = self.entry_point.partition(":")
        return getattr(importlib.import_module(module), function)

    def expected_cost(self, graph: WeightedGraph) -> Optional[float]:
        """Estimated cost of running this solver on ``graph`` (in cost
        units), or ``None`` when no model is registered."""
        if self.cost_model is None:
            return None
        return self.cost_model(graph.number_of_nodes, graph.number_of_edges)

    def inapplicable_reason(
        self,
        graph: WeightedGraph,
        mode: str = "reference",
        epsilon: Optional[float] = None,
    ) -> Optional[str]:
        """Why this solver cannot run on ``graph`` (``None`` when it can).

        The single source of truth for capability checks: the auto
        policy and ``solve_all`` filter on it, and explicitly named
        solvers fail fast with the returned message.
        """
        if mode == "congest" and not self.supports_congest:
            return f"solver {self.name!r} does not support congest mode"
        if self.max_nodes is not None and graph.number_of_nodes > self.max_nodes:
            return (
                f"solver {self.name!r} is limited to {self.max_nodes} nodes, "
                f"got {graph.number_of_nodes}"
            )
        if self.requires_integer_weights and not has_integer_weights(graph):
            return (
                f"solver {self.name!r} requires integer edge weights; "
                "rescale the graph first"
            )
        if (
            epsilon is not None
            and self.max_epsilon is not None
            and epsilon > self.max_epsilon
        ):
            return (
                f"solver {self.name!r} accepts epsilon up to "
                f"{self.max_epsilon}, got {epsilon}"
            )
        return None

    def applicable(
        self,
        graph: WeightedGraph,
        mode: str = "reference",
        epsilon: Optional[float] = None,
    ) -> bool:
        """Can this solver run on ``graph`` under ``mode``/``epsilon``?"""
        return self.inapplicable_reason(graph, mode=mode, epsilon=epsilon) is None

    @property
    def guarantee_rank(self) -> int:
        return GUARANTEE_RANK.get(self.guarantee, len(GUARANTEE_RANK))


def has_integer_weights(graph: WeightedGraph) -> bool:
    """True when every edge weight is integral (sampling solvers need it)."""
    return all(float(w).is_integer() for _u, _v, w in graph.edges())


class SolverRegistry:
    """Ordered name → :class:`SolverSpec` mapping with capability queries."""

    def __init__(self) -> None:
        self._specs: dict[str, SolverSpec] = {}

    # -- registration -------------------------------------------------

    def register_spec(self, spec: SolverSpec) -> SolverSpec:
        if spec.kind not in SOLVER_KINDS:
            raise AlgorithmError(
                f"solver kind must be one of {SOLVER_KINDS}, got {spec.kind!r}"
            )
        if spec.name in self._specs:
            raise AlgorithmError(f"solver {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def register(self, name: str, **metadata: Any) -> Callable:
        """Decorator: register the decorated adapter under ``name``.

        ``metadata`` holds the remaining :class:`SolverSpec` fields
        (``kind`` and ``guarantee`` are required; ``display`` defaults
        to the name).
        """

        def decorate(run: Callable[..., Any]) -> Callable[..., Any]:
            metadata.setdefault("display", name)
            self.register_spec(SolverSpec(name=name, run=run, **metadata))
            return run

        return decorate

    # -- lookup -------------------------------------------------------

    def get(self, name: str) -> SolverSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise AlgorithmError(
                f"unknown solver {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return list(self._specs)

    def specs(self) -> list[SolverSpec]:
        return list(self._specs.values())

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    # -- capability queries -------------------------------------------

    def applicable(
        self,
        graph: WeightedGraph,
        mode: str = "reference",
        epsilon: Optional[float] = None,
        kinds: Optional[tuple[str, ...]] = None,
        include_heavy: bool = True,
    ) -> list[SolverSpec]:
        """Specs that can run on ``graph``, in registration order."""
        out = []
        for spec in self:
            if kinds is not None and spec.kind not in kinds:
                continue
            if not include_heavy and spec.heavy:
                continue
            if spec.applicable(graph, mode=mode, epsilon=epsilon):
                out.append(spec)
        return out

    def ground_truth(self) -> SolverSpec:
        """The designated ground-truth solver (exact, deterministic)."""
        for spec in self:
            if spec.ground_truth:
                return spec
        raise AlgorithmError("no ground-truth solver registered")

    def select_auto(
        self,
        graph: WeightedGraph,
        mode: str = "reference",
        epsilon: Optional[float] = None,
        budget: Optional[float] = None,
    ) -> SolverSpec:
        """The ``solver="auto"`` policy: pick by capability and budget.

        With ``epsilon`` set, approximate solvers are preferred (the
        caller asked for a quality/speed trade-off); otherwise exact
        solvers only.  Among candidates the strongest guarantee class
        wins, ties broken by descending ``priority``.  Heavy solvers
        (full simulated pipelines) are never auto-picked — name them
        explicitly.

        ``budget`` is an expected-cost ceiling in the registry's cost
        units (see :attr:`SolverSpec.cost_model`): candidates whose
        estimated cost on ``graph`` exceeds it are skipped *before*
        running anything; candidates without a cost model are never
        skipped.  When every modelled candidate is over budget, the
        cheapest applicable one is chosen — the policy degrades quality,
        it never refuses.
        """
        preferred = ("approx",) if epsilon is not None else ("exact",)
        candidates = self.applicable(
            graph, mode=mode, epsilon=epsilon, kinds=preferred, include_heavy=False
        )
        if not candidates and epsilon is not None:
            candidates = self.applicable(
                graph, mode=mode, epsilon=epsilon, kinds=("exact",),
                include_heavy=False,
            )
        if not candidates:
            raise AlgorithmError(
                f"no applicable solver for n={graph.number_of_nodes}, "
                f"mode={mode!r}, epsilon={epsilon!r}"
            )
        if budget is not None:
            costs = {spec.name: spec.expected_cost(graph) for spec in candidates}
            affordable = [
                spec
                for spec in candidates
                if costs[spec.name] is None or costs[spec.name] <= budget
            ]
            if affordable:
                candidates = affordable
            else:
                # Everything modelled is over budget (and unmodelled
                # specs would have been affordable): best effort.
                return min(candidates, key=lambda s: costs[s.name])
        return min(candidates, key=lambda s: (s.guarantee_rank, -s.priority))


#: The process-wide registry the façade and CLI use.
DEFAULT_REGISTRY = SolverRegistry()


def register_solver(name: str, **metadata: Any) -> Callable:
    """Decorator registering into :data:`DEFAULT_REGISTRY`."""
    return DEFAULT_REGISTRY.register(name, **metadata)


def default_registry() -> SolverRegistry:
    """The default registry with all built-in solvers registered."""
    from . import solvers  # noqa: F401  (import side effect: registration)

    return DEFAULT_REGISTRY


__all__ = [
    "GUARANTEE_RANK",
    "SOLVER_KINDS",
    "SolverRegistry",
    "SolverSpec",
    "DEFAULT_REGISTRY",
    "default_registry",
    "has_integer_weights",
    "register_solver",
]
