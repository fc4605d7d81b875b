"""Cost-aware task packing: the LPT planner behind shards and chunks.

Index striping (task ``i`` on worker ``i % W``) balances *counts*, not
*work*: one heavy ``brute_force`` task in an otherwise cheap sweep turns
the whole batch into max-of-one-straggler.  :func:`pack_tasks` replaces
the stripe with longest-processing-time-first (LPT) packing — sort the
tasks by predicted cost, place each on the currently least-loaded bin —
which is the classic greedy with makespan at most ``2×`` the trivial
lower bound ``max(total/bins, max_cost)`` (and in practice within a few
percent of optimal on sweep-shaped cost vectors).

Two properties make the planner safe to put under every backend:

* **Determinism** — ties are broken by task index (descending-cost sort
  is stable on the original order) and by bin id (the least-loaded bin
  with the lowest id wins), so the same tasks + costs always produce
  the same plan, and each bin's indices come out ascending.  Combined
  with the per-task frozen seeds of :class:`~repro.exec.task.SolveTask`
  and position-based reassembly, a packed run is bit-identical to a
  serial run — the plan only moves work, never changes it.
* **Stripe degeneration** — with no cost function (or a constant one)
  LPT reduces *exactly* to round-robin striping: equal costs keep the
  index order, and the lowest-id-least-loaded rule cycles through the
  bins.  ``pack_tasks(tasks, bins)`` therefore *is* the historic stripe,
  and the ``remote``/``process`` backends share one planning code path
  whether or not a cost model is attached.

Costs come from an optional ``cost_fn(task) -> float``; the engine
builds one from the solver registry's ``cost_model`` metadata.
Non-finite or negative predictions are clamped to zero rather than
allowed to corrupt the heap order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..errors import AlgorithmError


@dataclass(frozen=True)
class PackPlan:
    """One deterministic assignment of tasks onto bins.

    ``assignments[b]`` holds bin ``b``'s task indices in ascending
    order (the order the bin's owner executes them); ``costs[i]`` is
    task ``i``'s predicted cost and ``loads[b]`` the bin's predicted
    total.  Predicted units are whatever the cost function spoke — the
    registry's relative cost units for the engine's cost function.
    """

    assignments: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...]
    loads: tuple[float, ...]

    @property
    def makespan(self) -> float:
        """Predicted finish time: the heaviest bin's load."""
        return max(self.loads) if self.loads else 0.0

    @property
    def lower_bound(self) -> float:
        """No plan can beat ``max(average load, heaviest single task)``."""
        if not self.costs or not self.loads:
            return 0.0
        return max(sum(self.costs) / len(self.loads), max(self.costs))

    @property
    def balance(self) -> float:
        """``makespan / lower_bound`` — 1.0 is a perfectly level plan."""
        bound = self.lower_bound
        return self.makespan / bound if bound > 0 else 1.0

    def summary(self) -> dict:
        """JSON-friendly snapshot for extras / sweep metadata."""
        return {
            "bins": len(self.assignments),
            "tasks": len(self.costs),
            "sizes": [len(indices) for indices in self.assignments],
            "loads": [round(load, 6) for load in self.loads],
            "makespan": round(self.makespan, 6),
            "lower_bound": round(self.lower_bound, 6),
            "balance": round(self.balance, 4),
        }


def _task_costs(
    tasks: Sequence, cost_fn: Optional[Callable]
) -> tuple[float, ...]:
    if cost_fn is None:
        return tuple(1.0 for _ in tasks)
    costs = []
    for task in tasks:
        cost = float(cost_fn(task))
        if not math.isfinite(cost) or cost < 0.0:
            cost = 0.0  # a broken prediction must not poison the heap
        costs.append(cost)
    return tuple(costs)


def pack_tasks(
    tasks: Sequence,
    bins: int,
    cost_fn: Optional[Callable] = None,
) -> PackPlan:
    """Pack ``tasks`` into ``bins`` bins, LPT-first, deterministically.

    ``cost_fn(task)`` predicts each task's cost; ``None`` means uniform
    costs, which makes the plan *exactly* the round-robin stripe (task
    ``i`` in bin ``i % bins``).  Bins may come out empty when there are
    more bins than tasks.  The returned plan covers every task exactly
    once, with each bin's indices ascending.
    """
    if bins < 1:
        raise AlgorithmError(f"pack_tasks needs at least 1 bin, got {bins}")
    costs = _task_costs(tasks, cost_fn)
    assignments: list[list[int]] = [[] for _ in range(bins)]
    loads = [0.0] * bins
    if costs:
        # Descending cost, ascending index on ties: with uniform costs
        # this is plain index order, which the least-loaded-lowest-id
        # heap then deals round-robin — the stripe degeneration.
        order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
        heap = [(0.0, b) for b in range(bins)]
        for i in order:
            load, b = heapq.heappop(heap)
            assignments[b].append(i)
            load += costs[i]
            loads[b] = load
            heapq.heappush(heap, (load, b))
        for indices in assignments:
            indices.sort()
    return PackPlan(
        assignments=tuple(tuple(indices) for indices in assignments),
        costs=costs,
        loads=tuple(loads),
    )


__all__ = ["PackPlan", "pack_tasks"]
