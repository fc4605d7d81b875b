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

``to_json()`` / ``from_json()`` are the one JSON codec of a result,
shared by the cache's disk tier (:mod:`repro.exec.cache`, which
persists only what the codec's *strict* mode returns) and the wire
(:mod:`repro.service.protocol`, which adds a CONGEST metrics summary).
Tuples in ``extras`` travel under a tagged encoding and come back as
tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..errors import AlgorithmError
from ..graphs.graph import WeightedGraph

if TYPE_CHECKING:
    from ..congest.metrics import RunMetrics


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

    def to_json(self, *, strict: bool = False) -> Optional[dict]:
        """The JSON form of every field but ``metrics``.

        With ``strict``, ``None`` unless :meth:`from_json` of the
        payload's JSON round trip gives this exact result back: no
        CONGEST metrics, JSON-native nodes, and no NaN, non-string key
        or reserved tag in ``extras``.  The cache persists only these.
        """
        payload = {
            "value": self.value,
            "side": sorted(self.side, key=repr),
            "solver": self.solver,
            "guarantee": self.guarantee,
            "seed": self.seed,
            "wall_time": self.wall_time,
            "extras": _encode_extras(self.extras),
        }
        if strict:
            try:
                again = CutResult.from_json(json.loads(json.dumps(payload)))
            except (TypeError, ValueError):
                return None
            if again != self:
                return None
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "CutResult":
        """Rebuild a result from :meth:`to_json` output (``metrics=None``).

        Raises ``KeyError``/``TypeError``/``ValueError`` on a malformed
        payload; a missing ``extras`` reads as empty.
        """
        return cls(
            value=float(payload["value"]),
            side=frozenset(payload["side"]),
            solver=str(payload["solver"]),
            guarantee=str(payload["guarantee"]),
            seed=payload["seed"],
            wall_time=float(payload["wall_time"]),
            extras=_decode_extras(dict(payload.get("extras", {}))),
        )


#: Marker key for the tagged tuple encoding in serialised extras.
_TUPLE_TAG = "__tuple__"


def _encode_extras(value):
    """JSON-safe form of an extras value; tuples get a tagged wrapper."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_extras(item) for item in value]}
    if isinstance(value, list):
        return [_encode_extras(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode_extras(item) for key, item in value.items()}
    return value


def _decode_extras(value):
    """Inverse of :func:`_encode_extras`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode_extras(item) for item in value[_TUPLE_TAG])
        return {key: _decode_extras(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_extras(item) for item in value]
    return value
