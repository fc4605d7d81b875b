"""Sharded sweep over a pool of *running* workers (CI's shard-smoke job).

Usage::

    python -m repro serve --port 8101 --cache-file w1_store &
    python -m repro serve --port 8102 --cache-file w2_store &
    python examples/sharded_sweep.py http://127.0.0.1:8101 http://127.0.0.1:8102

    # later, after `python -m repro cache merge --out merged_store \\
    #     w1_store w2_store`:
    python examples/sharded_sweep.py --warm merged_store

Exercises the ROADMAP's sharded-execution + cache-warm-start loop
end to end and exits non-zero on the first broken property:

1. ``backend="remote"`` — a ``solve_batch`` sweep fanned out across
   the worker pool returns results identical (solver, value,
   partition, seed) to ``backend="serial"`` on the same inputs;
2. mixed-solver fan-out — a ``solve_all`` compare through the pool
   matches serial too (per-task solver names cross the wire);
3. with ``--warm MERGED`` instead of worker URLs, the same sweep
   replayed through ``Engine(cache=...)`` is answered entirely from
   the merged cache — 100% hits, zero solver runs.  ``MERGED`` is a
   segment-store directory: the CI shard-smoke job runs workers on
   store directories (``--cache-file w1_store``), merges and compacts
   them (``repro cache merge`` + ``repro cache compact``), and replays
   this sweep from both the merged and the compacted store.
"""

import sys

from repro.api import Engine, solve_all, solve_batch
from repro.errors import ServiceError
from repro.exec.remote import RemoteExecutor
from repro.graphs import build_family
from repro.service import ServiceClient

FAMILIES = (("gnp", 24), ("grid", 25), ("cycle", 16))
COUNT = 4  # instances per family -> a 12-graph sweep


def sweep_graphs():
    return [
        build_family(family, n, seed=seed)
        for family, n in FAMILIES
        for seed in range(COUNT)
    ]


def identity(results):
    """The fields the acceptance criterion pins: solver, value, cut, seed."""
    return [
        (r.solver, r.value, tuple(sorted(r.side, key=repr)), r.seed)
        for r in results
    ]


def run_sharded(worker_urls) -> int:
    # Dead pool members are tolerated (routing around them is the
    # remote backend's job — CI re-runs this after killing a worker to
    # prove failover); at least one worker must answer.
    alive = 0
    for position, url in enumerate(worker_urls):
        try:
            # Generous budget for the first worker (cold CI start); the
            # rest were launched together, so a short probe suffices and
            # a killed worker doesn't stall the failover leg.
            budget = 30.0 if position == 0 and not alive else 5.0
            health = ServiceClient(url).wait_until_ready(timeout=budget)
        except ServiceError as exc:
            print(f"worker DOWN : {url} ({exc})")
            continue
        alive += 1
        print(f"worker up   : {url} (version {health['version']})")
    assert alive, "no worker answered /healthz"

    graphs = sweep_graphs()
    serial = solve_batch(graphs, "stoer_wagner", seed=3)
    pool = RemoteExecutor(worker_urls)
    remote = solve_batch(graphs, "stoer_wagner", seed=3, backend=pool)
    assert identity(remote) == identity(serial), "remote sweep diverged"
    for graph, result in zip(graphs, remote):
        assert result.matches(graph), "remote witness failed verification"
    print(f"solve_batch : {len(remote)} instances identical to serial")

    compare_graph = build_family("gnp", 20, seed=5)
    serial_all = solve_all(compare_graph, epsilon=0.5, seed=2)
    remote_all = solve_all(compare_graph, epsilon=0.5, seed=2, backend=pool)
    assert identity(remote_all) == identity(serial_all), "compare diverged"
    print(f"solve_all   : {len(remote_all)} solvers identical to serial")

    print("sharded sweep smoke: OK")
    return 0


def run_warm(cache_path: str) -> int:
    engine = Engine(cache=cache_path)
    graphs = sweep_graphs()
    results = engine.solve_batch(graphs, "stoer_wagner", seed=3)
    misses = [i for i, r in enumerate(results) if not r.extras["cache"]["hit"]]
    assert not misses, f"cold entries after warm start: graphs {misses}"
    serial = solve_batch(graphs, "stoer_wagner", seed=3)
    assert identity(results) == identity(serial), "warm replay diverged"
    print(
        f"warm replay : {len(results)}/{len(results)} hits from "
        f"{cache_path} (identical to serial)"
    )
    print("cache warm-start smoke: OK")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--warm":
        raise SystemExit(run_warm(args[1]))
    if len(args) >= 2:
        raise SystemExit(run_sharded(args))
    print(__doc__)
    raise SystemExit(2)
