"""serve-mutate's expected answers, computed in a worker process.

Usage: ``python3 perfbench/truth.py`` with ``PYTHONPATH`` naming the
program's ``src``; reads one JSON object on stdin::

    {"edges": [[u, v, w], ...], "stream": [[[u, v, w], ...], ...],
     "start": i, "sides": [[side, ...], ...]}

and writes a JSON list with one ``[λ, [witness cut value, ...]]`` per
state ``start, start+1, ...``.  The workload starts these as plain
subprocesses and waits for each, so a run leaves no helper process
behind.
"""

from __future__ import annotations

import json
import sys

import inputs


def mutate_truth(edges, stream, start: int, sides_per_state) -> list:
    """``(λ, witness cut values)`` for states ``start, start+1, ...``.

    Replays the op stream on a local graph and solves each state with a
    cache-less, session-less ``stoer_wagner``.
    """
    from repro.api import Engine
    from repro.graphs.graph import WeightedGraph

    graph = WeightedGraph(tuple(edge) for edge in edges)
    for ops in stream[:start]:
        for u, v, w in ops:
            graph.set_edge_weight(u, v, w)
    engine = Engine(cache=None)
    out = []
    for offset, sides in enumerate(sides_per_state):
        for u, v, w in stream[start + offset]:
            graph.set_edge_weight(u, v, w)
        out.append((engine.solve(graph, inputs.SOLVER).value,
                    [graph.cut_value(side) for side in sides]))
    return out


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(mutate_truth(job["edges"], job["stream"], job["start"], job["sides"]), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
