"""Typed mutation ops and the append-only :class:`MutationLog`.

A dynamic-graph session is driven by a stream of small, typed
operations — the pod-style append-only log shape: every op has a
canonical serialized form (JSON for the wire, one-line text for ops
files), applying an op yields an :class:`Effect` record describing
exactly what changed, and every effect can be reverted bit-identically.

"Bit-identically" is load-bearing: :class:`~repro.graphs.index.
GraphIndex` arrays are built from the adjacency maps' *insertion
order*, so undo cannot simply call ``add_edge`` (which appends).  The
effect records capture adjacency positions and the revert path uses
the positional restore seams on :class:`WeightedGraph`, so
``apply(op); undo()`` restores the exact CSR layout and
``content_hash`` of the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from ..errors import AlgorithmError, GraphError
from ..graphs.graph import Node, WeightedGraph

#: Effect kinds an applied op can produce.  ``merge_edge`` is an
#: ``add_edge`` that hit an existing edge (multigraph-merge semantics);
#: ``noop`` is an op that provably changed nothing (reweight to the
#: current value, add of an existing node).
EFFECT_KINDS = (
    "add_edge",
    "merge_edge",
    "reweight",
    "remove_edge",
    "add_node",
    "remove_node",
    "noop",
)


def _check_node(value: Any, *, what: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise AlgorithmError(
            f"mutation op: {what} must be an int or str node label, "
            f"got {value!r}"
        )
    return value


def _check_weight(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AlgorithmError(
            f"mutation op: weight must be a number, got {value!r}"
        )
    if value <= 0:
        raise AlgorithmError(
            f"mutation op: weight must be positive, got {value!r}"
        )
    return float(value)


@dataclass(frozen=True, slots=True)
class MutationOp:
    """Base class for typed mutation operations."""

    kind = "?"

    def to_json(self) -> dict:
        """Canonical JSON-object form (``{"op": kind, ...}``)."""
        raise NotImplementedError

    def to_text(self) -> str:
        """Canonical one-line text form (the ops-file format)."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class AddEdge(MutationOp):
    """Insert edge ``{u, v}``; merges by summing if it already exists."""

    u: Node
    v: Node
    weight: float = 1.0
    kind = "add_edge"

    def to_json(self) -> dict:
        return {"op": "add_edge", "u": self.u, "v": self.v,
                "weight": float(self.weight)}

    def to_text(self) -> str:
        return f"add_edge {self.u} {self.v} {float(self.weight)}"


@dataclass(frozen=True, slots=True)
class RemoveEdge(MutationOp):
    """Delete edge ``{u, v}``; raises if absent."""

    u: Node
    v: Node
    kind = "remove_edge"

    def to_json(self) -> dict:
        return {"op": "remove_edge", "u": self.u, "v": self.v}

    def to_text(self) -> str:
        return f"remove_edge {self.u} {self.v}"


@dataclass(frozen=True, slots=True)
class Reweight(MutationOp):
    """Overwrite the weight of existing edge ``{u, v}``."""

    u: Node
    v: Node
    weight: float
    kind = "reweight"

    def to_json(self) -> dict:
        return {"op": "reweight", "u": self.u, "v": self.v,
                "weight": float(self.weight)}

    def to_text(self) -> str:
        return f"reweight {self.u} {self.v} {float(self.weight)}"


@dataclass(frozen=True, slots=True)
class AddNode(MutationOp):
    """Insert isolated node ``u`` (no-op if present)."""

    u: Node
    kind = "add_node"

    def to_json(self) -> dict:
        return {"op": "add_node", "u": self.u}

    def to_text(self) -> str:
        return f"add_node {self.u}"


@dataclass(frozen=True, slots=True)
class RemoveNode(MutationOp):
    """Delete node ``u`` and all incident edges; raises if absent."""

    u: Node
    kind = "remove_node"

    def to_json(self) -> dict:
        return {"op": "remove_node", "u": self.u}

    def to_text(self) -> str:
        return f"remove_node {self.u}"


OP_TYPES: dict[str, type] = {
    "add_edge": AddEdge,
    "remove_edge": RemoveEdge,
    "reweight": Reweight,
    "add_node": AddNode,
    "remove_node": RemoveNode,
}


def op_from_json(obj: Any) -> MutationOp:
    """Parse the canonical JSON-object form back into a typed op."""
    if not isinstance(obj, dict):
        raise AlgorithmError(f"mutation op must be a JSON object, got {obj!r}")
    kind = obj.get("op")
    cls = OP_TYPES.get(kind)
    if cls is None:
        raise AlgorithmError(
            f"unknown mutation op {kind!r} (expected one of "
            f"{', '.join(sorted(OP_TYPES))})"
        )
    allowed = {"op", "u", "v", "weight"} if cls in (AddEdge, Reweight) else (
        {"op", "u", "v"} if cls is RemoveEdge else {"op", "u"}
    )
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise AlgorithmError(
            f"mutation op {kind!r}: unknown field(s) {', '.join(unknown)}"
        )
    u = _check_node(obj.get("u"), what="'u'")
    if cls in (AddNode, RemoveNode):
        return cls(u)
    v = _check_node(obj.get("v"), what="'v'")
    if cls is RemoveEdge:
        return cls(u, v)
    if cls is AddEdge and "weight" not in obj:
        return cls(u, v)
    return cls(u, v, _check_weight(obj.get("weight")))


def _parse_token(token: str) -> Any:
    """Node labels in ops files: ints when they look like ints."""
    try:
        return int(token)
    except ValueError:
        return token


def op_from_text(line: str) -> MutationOp:
    """Parse one ops-file line (e.g. ``add_edge 0 5 2.0``)."""
    tokens = line.split()
    if not tokens:
        raise AlgorithmError("mutation op: empty line")
    kind, args = tokens[0], tokens[1:]
    cls = OP_TYPES.get(kind)
    if cls is None:
        raise AlgorithmError(
            f"unknown mutation op {kind!r} (expected one of "
            f"{', '.join(sorted(OP_TYPES))})"
        )
    arity = {AddEdge: (2, 3), Reweight: (3, 3), RemoveEdge: (2, 2),
             AddNode: (1, 1), RemoveNode: (1, 1)}[cls]
    if not arity[0] <= len(args) <= arity[1]:
        raise AlgorithmError(
            f"mutation op {kind!r}: expected "
            f"{'-'.join(str(a) for a in sorted(set(arity)))} argument(s), "
            f"got {len(args)}"
        )
    if cls in (AddNode, RemoveNode):
        return cls(_parse_token(args[0]))
    u, v = _parse_token(args[0]), _parse_token(args[1])
    if cls is RemoveEdge:
        return cls(u, v)
    if cls is AddEdge and len(args) == 2:
        return cls(u, v)
    try:
        weight = float(args[-1])
    except ValueError:
        raise AlgorithmError(
            f"mutation op {kind!r}: bad weight {args[-1]!r}"
        ) from None
    return cls(u, v, _check_weight(weight))


#: Stream directives an ops file may contain besides mutation ops.
STREAM_DIRECTIVES = ("solve", "undo")


def parse_stream(
    lines: Iterable[str],
) -> Iterator[tuple[int, str, Optional[MutationOp]]]:
    """Parse an ops-file stream into ``(lineno, directive, op)`` events.

    ``directive`` is ``"op"`` (with the parsed op), ``"solve"`` or
    ``"undo"`` (op is ``None``).  Blank lines and ``#`` comments are
    skipped.  Malformed lines raise :class:`AlgorithmError` naming the
    line number.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in STREAM_DIRECTIVES:
            if line != head:
                raise AlgorithmError(
                    f"ops file line {lineno}: directive {head!r} takes "
                    f"no arguments"
                )
            yield (lineno, head, None)
            continue
        try:
            yield (lineno, "op", op_from_text(line))
        except AlgorithmError as exc:
            raise AlgorithmError(f"ops file line {lineno}: {exc}") from None


# ----------------------------------------------------------------------
# Applying ops and reverting effects
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Effect:
    """What applying one op actually did — everything undo needs.

    ``positions`` (for ``remove_edge``) and ``node_pos``/``incident``
    (for ``remove_node``) capture adjacency insertion positions so the
    revert path restores the exact pre-op dict order (and therefore the
    exact CSR layout).  A session keeps every effect for undo, so the
    record is slotted and reads its endpoints from ``op``.
    """

    op: MutationOp
    kind: str
    old_weight: Optional[float] = None
    new_weight: Optional[float] = None
    created_nodes: tuple = ()
    positions: tuple = ()
    node_pos: Optional[int] = None
    incident: tuple = ()

    @property
    def u(self) -> Node:
        return self.op.u

    @property
    def v(self) -> Optional[Node]:
        return getattr(self.op, "v", None)


def apply_op(graph: WeightedGraph, op: MutationOp) -> Effect:
    """Apply ``op`` to ``graph`` and return the resulting :class:`Effect`."""
    if isinstance(op, AddEdge):
        existing = graph.has_edge(op.u, op.v)
        old = graph.weight(op.u, op.v) if existing else None
        created = tuple(x for x in dict.fromkeys((op.u, op.v)) if x not in graph)
        graph.add_edge(op.u, op.v, op.weight)
        return Effect(
            op, "merge_edge" if existing else "add_edge",
            old_weight=old, new_weight=graph.weight(op.u, op.v),
            created_nodes=created,
        )
    if isinstance(op, Reweight):
        old = graph.weight(op.u, op.v)
        if old == op.weight:
            return Effect(op, "noop", old_weight=old, new_weight=old)
        graph.set_edge_weight(op.u, op.v, op.weight)
        return Effect(op, "reweight", old_weight=old,
                      new_weight=graph.weight(op.u, op.v))
    if isinstance(op, RemoveEdge):
        old = graph.weight(op.u, op.v)
        pos_u = graph.neighbors(op.u).index(op.v)
        pos_v = graph.neighbors(op.v).index(op.u)
        graph.remove_edge(op.u, op.v)
        return Effect(op, "remove_edge", old_weight=old,
                      positions=(pos_u, pos_v))
    if isinstance(op, AddNode):
        if op.u in graph:
            return Effect(op, "noop")
        graph.add_node(op.u)
        return Effect(op, "add_node", created_nodes=(op.u,))
    if isinstance(op, RemoveNode):
        if op.u not in graph:
            raise GraphError(f"node {op.u!r} does not exist")
        node_pos = graph.nodes.index(op.u)
        incident = tuple(
            (v, graph.weight(op.u, v), graph.neighbors(v).index(op.u))
            for v in graph.neighbors(op.u)
        )
        graph.remove_node(op.u)
        return Effect(op, "remove_node", node_pos=node_pos, incident=incident)
    raise AlgorithmError(f"unsupported mutation op {op!r}")


def revert(graph: WeightedGraph, effect: Effect) -> None:
    """Undo ``effect`` on ``graph``, restoring exact adjacency order."""
    kind = effect.kind
    if kind == "noop":
        return
    if kind == "add_edge":
        graph.remove_edge(effect.u, effect.v)
        for node in reversed(effect.created_nodes):
            graph.remove_node(node)
    elif kind in ("merge_edge", "reweight"):
        graph.set_edge_weight(effect.u, effect.v, effect.old_weight)
    elif kind == "remove_edge":
        graph._insert_edge_at(
            effect.u, effect.v, effect.old_weight, *effect.positions
        )
    elif kind == "add_node":
        graph.remove_node(effect.u)
    elif kind == "remove_node":
        graph._restore_node_at(effect.u, effect.node_pos, effect.incident)
    else:  # pragma: no cover - Effect kinds are library-controlled
        raise AlgorithmError(f"cannot revert effect kind {kind!r}")


class MutationLog:
    """Append-only log of applied ops over one graph, with LIFO undo.

    The log owns the apply/revert bookkeeping; the incremental index
    maintainer (:mod:`repro.dynamic.incremental`) and the session layer
    observe the returned :class:`Effect` records to patch their state.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self._effects: list[Effect] = []

    def __len__(self) -> int:
        return len(self._effects)

    @property
    def effects(self) -> tuple[Effect, ...]:
        return tuple(self._effects)

    def apply(self, op: MutationOp) -> Effect:
        """Apply ``op`` to the graph and append its effect to the log."""
        effect = apply_op(self.graph, op)
        self._effects.append(effect)
        return effect

    def undo(self) -> Effect:
        """Revert the most recent effect; raises when the log is empty."""
        if not self._effects:
            raise AlgorithmError("mutation log is empty; nothing to undo")
        effect = self._effects.pop()
        revert(self.graph, effect)
        return effect

    def to_json(self) -> list[dict]:
        """Canonical serialized form of the applied ops, in order."""
        return [effect.op.to_json() for effect in self._effects]

    def to_text(self) -> str:
        """The applied ops as an ops file (one line per op)."""
        return "\n".join(effect.op.to_text() for effect in self._effects)


__all__ = [
    "AddEdge",
    "AddNode",
    "Effect",
    "EFFECT_KINDS",
    "MutationLog",
    "MutationOp",
    "OP_TYPES",
    "RemoveEdge",
    "RemoveNode",
    "Reweight",
    "STREAM_DIRECTIVES",
    "apply_op",
    "op_from_json",
    "op_from_text",
    "parse_stream",
    "revert",
]
