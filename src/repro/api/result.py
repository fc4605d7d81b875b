"""Canonical cut result — the one dataclass every solver adapter returns.

Historically each algorithm family grew its own result type
(:class:`repro.mincut.ExactMinCut`, :class:`repro.mincut.ApproxMinCut`,
the baselines' own ``(value, side)`` class …) with overlapping but
incompatible fields.  :class:`CutResult` is the canonical shape: a value, a witness
side, provenance (solver name, guarantee, seed), optional CONGEST
metrics, wall time, and an ``extras`` dict for solver-specific detail
(packing-tree indices, sampling rates, repetition counts).

``verify(graph)`` recomputes the witness side's cut value directly from
the graph, so any consumer can check a result without trusting the
solver that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..congest.metrics import RunMetrics
from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph


@dataclass(frozen=True, slots=True)
class CutResult:
    """A global minimum-cut answer with provenance.

    ``value``
        The reported cut value (for ``kind="exact"`` solvers this is λ;
        for approximate/bound solvers an upper bound on λ).
    ``side``
        One witness side of the cut (a proper nonempty subset of the
        graph's nodes).
    ``solver`` / ``guarantee`` / ``seed``
        Provenance stamped by the :mod:`repro.api` façade: the registry
        name of the solver, its guarantee class (``"exact"``,
        ``"1+eps"``, ``"2+eps"``, …) and the seed it ran with.
    ``metrics``
        :class:`repro.congest.metrics.RunMetrics` when the solver ran on
        the CONGEST simulator, else ``None``.
    ``wall_time``
        Wall-clock seconds spent inside the solver (stamped by the
        façade; 0.0 when constructed directly).
    ``extras``
        Solver-specific detail that does not fit the canonical fields.
    """

    value: float
    side: frozenset
    solver: str = ""
    guarantee: str = "exact"
    seed: Optional[int] = None
    metrics: Optional[RunMetrics] = None
    wall_time: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would include the
        # (unhashable) extras dict; hash on the identity-bearing subset
        # instead so results can live in sets and dict keys.
        return hash((self.value, self.side, self.solver, self.guarantee, self.seed))

    def verify(self, graph: WeightedGraph) -> float:
        """Recompute the witness side's cut value in ``graph``.

        Raises :class:`~repro.errors.AlgorithmError` if the side is not
        a proper nonempty subset of the graph's nodes; otherwise returns
        the recomputed value (compare it against :attr:`value`).
        """
        nodes = set(graph.nodes)
        if not self.side:
            raise AlgorithmError("cut witness side is empty")
        if not self.side <= nodes:
            foreign = sorted(map(repr, self.side - nodes))[:3]
            raise AlgorithmError(f"cut witness contains foreign nodes: {foreign}")
        if len(self.side) == len(nodes):
            raise AlgorithmError("cut witness side covers the whole graph")
        return graph.cut_value(self.side)

    def matches(self, graph: WeightedGraph, tolerance: float = 1e-9) -> bool:
        """True when :meth:`verify` agrees with :attr:`value`."""
        return abs(self.verify(graph) - self.value) <= tolerance

    def other_side(self, graph: WeightedGraph) -> frozenset:
        """The complementary witness side."""
        return frozenset(set(graph.nodes) - self.side)
