"""Dynamic solve sessions: certificate-gated re-solve over a mutation log.

A :class:`DynamicSession` owns one evolving graph, a
:class:`~repro.dynamic.ops.MutationLog`, an
:class:`~repro.dynamic.incremental.IncrementalIndexer`, and the
:class:`~repro.api.engine.Engine` whose cache and solver knobs it
inherits.  ``solve()`` consults cheap *cut certificates* before paying
for a solver run:

* **no-change** — the op provably didn't alter graph content (reweight
  to the current value, re-adding a present node);
* **non-crossing-increase** — a weight increase (or merged/added edge
  between existing nodes) with both endpoints on the same side of the
  last witness cut.  Every cut's value is unchanged or grew while the
  witness kept its value, so the witness stays (approximately) optimal;
* **crossing-decrease** — a weight decrease or deletion on an edge that
  crosses the witness.  The witness loses the full decrease while no
  cut loses more, so the witness stays optimal (exact guarantees only —
  a relative approximation factor does not survive subtraction).

When every pending op since the last solve certifies, the solver is
skipped: the result is the old witness re-valued on the mutated graph
(``graph.cut_value(side)`` — no accumulated float drift), served
through the engine cache so revisited graph states stay bit-identical
to a cold solve, with ``extras["certificate"]`` recording provenance.
Anything uncertifiable — node-set changes, crossing increases,
non-crossing decreases, a solver-auto policy switch — falls through to
a real ``engine.solve`` on the patched graph.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from ..api.engine import Engine, _resolve_spec, _stamp_cache
from ..api.result import CutResult
from ..errors import AlgorithmError
from ..exec.cache import CacheKey
from ..graphs.graph import WeightedGraph
from .incremental import IncrementalIndexer
from .ops import Effect, MutationLog, MutationOp

#: Certificate kinds, in the order of the docstring above.
CERTIFICATE_KINDS = (
    "no-change",
    "non-crossing-increase",
    "crossing-decrease",
)


def certify_effect(
    effect: Effect, side: frozenset, guarantee: str
) -> Optional[str]:
    """The certificate kind proving ``effect`` kept ``side`` optimal.

    Returns ``None`` when no cheap proof applies and a real solve is
    required.  ``side`` is the witness of the last solve; ``guarantee``
    its solver's guarantee string (``"exact"`` unlocks
    ``crossing-decrease``).
    """
    kind = effect.kind
    if kind == "noop":
        return "no-change"
    if kind in ("add_node", "remove_node"):
        return None  # node-set changes create/destroy candidate cuts
    if effect.created_nodes:
        return None  # a fresh endpoint is a brand-new candidate cut side
    crossing = (effect.u in side) != (effect.v in side)
    if kind in ("add_edge", "merge_edge") or (
        kind == "reweight" and effect.new_weight > effect.old_weight
    ):
        return None if crossing else "non-crossing-increase"
    if kind == "remove_edge" or (
        kind == "reweight" and effect.new_weight < effect.old_weight
    ):
        if crossing and guarantee == "exact":
            return "crossing-decrease"
        return None
    return None  # pragma: no cover - kinds are library-controlled


class DynamicSession:
    """One evolving graph plus certificate-gated solves on an Engine.

    Build via :meth:`Engine.dynamic_session`.  Unset solver knobs
    inherit the engine's defaults; the graph is deep-copied unless
    ``copy=False`` hands the session ownership of the caller's object.
    """

    def __init__(
        self,
        engine: Engine,
        graph: WeightedGraph,
        *,
        solver: Optional[str] = None,
        epsilon: Optional[float] = None,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        copy: bool = True,
        validate: bool = False,
    ) -> None:
        self.engine = engine
        self.graph = graph.copy() if copy else graph
        self.solver = engine.solver if solver is None else solver
        self.epsilon = engine.epsilon if epsilon is None else epsilon
        self.mode = engine.mode if mode is None else mode
        self.seed = engine.seed if seed is None else seed
        self.validate = validate
        self.log = MutationLog(self.graph)
        self.indexer = IncrementalIndexer(self.graph, validate=validate)
        self._last: Optional[CutResult] = None
        self._pending: list[Effect] = []
        self.counters = {
            "ops": 0,
            "undos": 0,
            "solves": 0,
            "certified": 0,
            "solver_runs": 0,
            "cache_hits": 0,
        }

    # -- mutation plane --------------------------------------------------

    def apply(self, op: MutationOp) -> dict:
        """Apply one op; returns the pod-style acknowledgement record.

        The ack carries the op's canonical form, what actually happened
        (``merge_edge``/``noop``/... — see
        :data:`~repro.dynamic.ops.EFFECT_KINDS`), how the index was
        maintained (``patched``/``rebuilt``/``noop``), and the resulting
        graph ``content_hash`` — the per-op confirmation the service
        protocol forwards to clients.
        """
        effect = self.log.apply(op)
        verb = self.indexer.apply(effect)
        self._pending.append(effect)
        self.counters["ops"] += 1
        return self._ack(effect, verb, undone=False)

    def undo(self) -> dict:
        """Revert the most recent op; same ack shape as :meth:`apply`."""
        effect = self.log.undo()
        verb = self.indexer.unapply(effect)
        if self._pending:
            self._pending.pop()
        else:
            # Undid past the last solve point: the cached witness no
            # longer describes this timeline, but the engine cache still
            # holds the earlier state's result — solve() will hit it.
            self._last = None
        self.counters["undos"] += 1
        return self._ack(effect, verb, undone=True)

    def _ack(self, effect: Effect, verb: str, *, undone: bool) -> dict:
        return {
            "op": effect.op.to_json(),
            "applied": effect.kind,
            "undone": undone,
            "index": verb,
            "graph_hash": self.graph.content_hash(),
            "n": self.graph.number_of_nodes,
            "m": self.graph.number_of_edges,
        }

    # -- solve plane -----------------------------------------------------

    def solve(self) -> CutResult:
        """Minimum cut of the current graph, via certificate or solver."""
        self.counters["solves"] += 1
        started = time.perf_counter()
        certificates = self._certify_pending()
        if certificates is not None:
            result = self._certified_result(certificates, started)
            if result is not None:
                self.counters["certified"] += 1
                self._note_cache(result)
                self._last = result
                self._pending.clear()
                return result
        result = self.engine.solve(
            self.graph, self.solver,
            epsilon=self.epsilon, mode=self.mode, seed=self.seed,
        )
        self.counters["solver_runs"] += 1
        self._note_cache(result)
        self._last = result
        self._pending.clear()
        return result

    def _certify_pending(self) -> Optional[list[str]]:
        """Certificate kinds for every pending op, or ``None``."""
        last = self._last
        if last is None:
            return None
        certificates = []
        for effect in self._pending:
            kind = certify_effect(effect, last.side, last.guarantee)
            if kind is None:
                return None
            certificates.append(kind)
        return certificates

    def _certified_result(
        self, certificates: list[str], started: float
    ) -> Optional[CutResult]:
        """Build (or fetch from cache) the certificate-skip result.

        Bails out (returns ``None``) when the graph disconnected, the
        witness stopped being a valid proper cut, or the solver policy
        would now resolve to a different solver than the witness's —
        all cases where the skipped solver's answer could differ.
        """
        last = self._last
        graph = self.graph
        # The last solve saw a connected graph, and only a deletion can
        # disconnect it, so a removal-free window skips the O(m) BFS.
        if any(
            effect.kind in ("remove_edge", "remove_node")
            for effect in self._pending
        ) and not graph.is_connected():
            return None
        try:
            spec = _resolve_spec(
                self.engine.registry, graph, self.solver,
                mode=self.mode, epsilon=self.epsilon, budget=None,
            )
        except AlgorithmError:
            return None
        if spec.name != last.solver:
            return None  # auto policy switched solvers; certificates
        value = graph.cut_value(last.side)  # don't transfer across them
        provenance = {
            "kinds": list(certificates),
            "ops": len(certificates),
            "base_value": last.value,
            "source": "witness-monotonicity",
        }
        cache = self.engine.cache
        if cache is None:
            result = self._witness_result(value, started)
            if self.validate:
                self._check_certified(result)
            return replace(
                result, extras={**result.extras, "certificate": provenance}
            )
        key = CacheKey.for_solve(
            graph, spec.name, epsilon=self.epsilon, mode=self.mode,
            seed=self.seed, budget=None, options={},
        )
        hit = cache.get(key)
        if hit is not None:
            provenance["cache"] = "revisited-state"
            result = hit
        else:
            result = self._witness_result(value, started)
            cache.put(key, result)
        if self.validate:
            self._check_certified(result)
        return _stamp_cache(
            result, cache, hit=hit is not None, certificate=provenance
        )

    def _witness_result(self, value: float, started: float) -> CutResult:
        last = self._last
        return CutResult(
            value=value,
            side=last.side,
            solver=last.solver,
            guarantee=last.guarantee,
            seed=self.seed,
            metrics=None,
            wall_time=time.perf_counter() - started,
            extras={},
        )

    def _check_certified(self, result: CutResult) -> None:
        """Validation mode: a certified result must match a real solve."""
        fresh = Engine(
            registry=self.engine.registry, solver=self.solver,
            epsilon=self.epsilon, mode=self.mode, seed=self.seed,
        ).solve(self.graph.copy())
        if fresh.value != result.value or not result.matches(self.graph):
            raise AlgorithmError(
                f"certificate produced value {result.value} but a fresh "
                f"solve found {fresh.value}"
            )

    def _note_cache(self, result: CutResult) -> None:
        cache_info = result.extras.get("cache")
        if isinstance(cache_info, dict) and cache_info.get("hit"):
            self.counters["cache_hits"] += 1

    # -- introspection ---------------------------------------------------

    @property
    def last_result(self) -> Optional[CutResult]:
        return self._last

    @property
    def pending_ops(self) -> int:
        """Ops applied since the last solve (certificate horizon)."""
        return len(self._pending)

    def stats(self) -> dict:
        """Session counters plus the index maintainer's patch stats."""
        out = dict(self.counters)
        out["index"] = self.indexer.stats()
        out["graph"] = {
            "n": self.graph.number_of_nodes,
            "m": self.graph.number_of_edges,
            "hash": self.graph.content_hash(),
        }
        return out


__all__ = ["CERTIFICATE_KINDS", "DynamicSession", "certify_effect"]
