"""Health-driven worker pool under churn (CI's latency-smoke job).

Usage::

    python -m repro serve --port 8100 &                         # manager
    python -m repro serve --port 8111 --register http://127.0.0.1:8100 &
    python -m repro serve --port 8112 --register http://127.0.0.1:8100 &
    python -m repro serve --port 8113 --register http://127.0.0.1:8100 \\
        --delay 0.05 &                                          # straggler
    python examples/latency_pool.py http://127.0.0.1:8100 \\
        --expect 3 --kill-pid <straggler-pid>

Exercises the PR 9 tail-latency service core end to end and exits
non-zero on the first broken property:

1. **discovery** — the pool manager's ``/workers`` list converges to
   ``--expect`` registered workers (no static worker list anywhere);
2. **streaming identity** — a ``solve_batch`` sweep streamed over the
   discovered pool returns results identical (solver, value,
   partition, seed) to ``backend="serial"``, while the straggler's
   chunks are re-packed onto healthy workers mid-sweep;
3. **mid-sweep death** — with ``--kill-pid``, one worker is SIGTERMed
   *while the sweep is running*: the sweep must still finish
   bit-identical to serial, and membership must converge to
   ``--expect - 1`` afterwards — worker loss is an operational event,
   not an error.
"""

import argparse
import os
import signal
import sys
import threading

from repro.api import Engine, solve_batch
from repro.errors import ServiceError
from repro.exec.remote import RemoteExecutor
from repro.graphs import build_family

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("manager", help="pool manager base URL")
    parser.add_argument(
        "--expect", type=int, default=3,
        help="registered workers to wait for before sweeping",
    )
    parser.add_argument(
        "--kill-pid", type=int, default=None,
        help="SIGTERM this worker pid mid-sweep, then assert the pool "
             "converges to expect-1 and results stay identical to serial",
    )
    parser.add_argument(
        "--kill-after", type=float, default=0.3,
        help="seconds into the sweep to fire --kill-pid (default: 0.3)",
    )
    args = parser.parse_args()

    from repro.service import WorkerPool

    pool = WorkerPool(manager=args.manager, interval=0.2).start()

    # 1. Discovery: membership converges to the registered fleet.
    try:
        members = pool.wait_for(args.expect, timeout=30.0)
    except ServiceError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"pool converged: {len(members)} worker(s) via {args.manager}")
    for url in members:
        print(f"  {url}")

    graphs = sweep_graphs()
    serial = identity(Engine().solve_batch(graphs, "stoer_wagner"))

    # 2 & 3. Streaming sweep over the discovered pool, optionally with
    # one worker killed while the sweep is in flight.
    executor = RemoteExecutor(pool=pool)
    killer = None
    if args.kill_pid is not None:
        def fire():
            print(f"killing worker pid {args.kill_pid} mid-sweep")
            try:
                os.kill(args.kill_pid, signal.SIGTERM)
            except OSError as exc:
                print(f"FAIL: could not kill {args.kill_pid}: {exc}")

        killer = threading.Timer(args.kill_after, fire)
        killer.start()
    try:
        remote = identity(solve_batch(graphs, "stoer_wagner", backend=executor))
    finally:
        if killer is not None:
            killer.join()

    if remote != serial:
        print("FAIL: streamed remote sweep diverged from serial")
        return 1
    plan = executor.last_plan
    print(
        f"streamed {plan['tasks']} task(s) in {plan['chunks']} chunk(s) "
        f"over {plan['workers']} worker(s); {plan['stolen']} re-packed, "
        f"dead={plan['dead']}, joined={plan['joined']}"
    )
    print("OK: streamed remote sweep identical to serial")

    if args.kill_pid is not None:
        try:
            survivors = pool.wait_for(args.expect - 1, timeout=30.0)
        except ServiceError as exc:
            print(f"FAIL: {exc}")
            return 1
        print(
            f"OK: membership converged to {len(survivors)} survivor(s) "
            f"after the kill"
        )

    pool.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
