"""Execution backends: the :class:`Executor` interface and its three names.

Every backend implements the same tiny :class:`Executor` interface —
``run_tasks(tasks, registry=None)`` returning outcomes **in task
order**, where an outcome is the task's :class:`CutResult` or, for a
failed task, the :class:`AlgorithmError` it raised — so the façade's
``backend=`` knob (and the ``REPRO_BACKEND`` environment default)
selects one without touching any solver code, and (with a cache
attached) one failing task never discards the rest of the batch's
completed work; without a cache the serial backend fails fast instead.

The backends are a closed set, :data:`repro.config.BACKENDS`:
``serial`` / ``process`` (this module) and ``remote``
(:class:`repro.exec.remote.RemoteExecutor` — a sharded fan-out over a
pool of ``repro serve`` workers, imported only when picked, so the
core engine never loads the service client unless asked to).  The
process pool is imported on first use too — when a ``process``
executor first runs a batch — so a process that never fans out never
loads :mod:`multiprocessing`.
:func:`resolve_backend` maps a name onto its executor; an
:class:`Executor` *instance* (custom pool sizing, or a backend of your
own) passes through it untouched.

Determinism contract: a task's seed is frozen when the task is built
(``seed + index`` for batches), every solver draws randomness from a
local ``random.Random(seed)``, and all backends run the identical
:func:`repro.exec.task.run_task` path — so serial and process
execution of the same batch produce identical results, in the same
order.  Parallelism only changes wall time.

The process backend ships tasks by value (pickle) and re-dispatches
through the worker's own default registry; a *custom* registry cannot
be shipped to workers (its adapters may be closures), so it is
rejected with a clear error — use the serial backend for custom
registries.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

from ..config import BACKENDS, REPRO_BACKEND_ENV
from ..errors import AlgorithmError
from .task import SolveTask, run_task_captured


def _default_workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


class Executor:
    """Common interface: map :func:`run_task_captured` over tasks.

    ``run_tasks`` is order-preserving and nothing raises mid-map: a
    failed task's outcome is its captured :class:`AlgorithmError`.
    With ``keep_going=False`` (the default) a backend may stop after
    the first failure and return a truncated list — the caller has no
    use for later results it is about to discard.  The façade passes
    ``keep_going=True`` when a cache is attached, so completed work is
    preserved before the failure is raised.  The pool backends always
    run every task either way: the pool has dispatched the whole batch
    before the first failure is observed (exactly the pre-capture
    ``pool.map`` semantics).
    """

    name = "base"

    #: Optional ``cost_fn(task) -> float`` predicting each task's cost,
    #: consumed by backends that pack work (``process`` chunks, ``remote``
    #: shards) via :func:`repro.exec.plan.pack_tasks`.  ``None`` means
    #: uniform costs (the historic stripe).  The engine assigns one built
    #: from the registry's cost models before dispatch, unless the caller
    #: already set their own.
    cost_fn = None

    #: Diagnostic snapshot of the most recent packing decision (a
    #: :meth:`repro.exec.plan.PackPlan.summary` dict, possibly extended
    #: with actuals) — populated by packing backends after each
    #: ``run_tasks``; ``None`` before the first dispatch.
    last_plan = None

    def run_tasks(
        self,
        tasks: Sequence[SolveTask],
        registry=None,
        keep_going: bool = False,
    ) -> list:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run tasks one after another in the calling thread (the default)."""

    name = "serial"

    def run_tasks(
        self,
        tasks: Sequence[SolveTask],
        registry=None,
        keep_going: bool = False,
    ) -> list:
        outcomes = []
        for task in tasks:
            outcome = run_task_captured(task, registry=registry)
            outcomes.append(outcome)
            if isinstance(outcome, Exception) and not keep_going:
                break  # fail fast: nobody will consume later results
        return outcomes


def _run_chunk(tasks: Sequence[SolveTask]) -> list:
    """Worker-side runner for one packed chunk (module-level: pickles)."""
    return [run_task_captured(task) for task in tasks]


class ProcessExecutor(Executor):
    """Process-pool backend — real parallelism for sweep workloads.

    Tasks must pickle (graphs with hashable, picklable nodes — true for
    everything the generators produce); workers resolve solvers through
    their own default registry, so custom registries are rejected.

    Chunking is cost-aware: tasks are packed into up to ``4×workers``
    chunks by :func:`~repro.exec.plan.pack_tasks` using the attached
    :attr:`~Executor.cost_fn` (uniform costs — the historic striped
    chunks — when none is set), and chunks are submitted heaviest first
    so the predicted-longest work starts immediately.  Results are
    reassembled by original task position, so the plan only changes
    wall time, never output.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers if max_workers is not None else _default_workers()

    def run_tasks(
        self,
        tasks: Sequence[SolveTask],
        registry=None,
        keep_going: bool = False,
    ) -> list:
        from ..api.registry import DEFAULT_REGISTRY
        from .plan import pack_tasks

        if registry is not None and registry is not DEFAULT_REGISTRY:
            raise AlgorithmError(
                "the process backend cannot ship a custom registry to worker "
                "processes; use backend='serial' instead"
            )
        if not tasks:
            return []
        workers = max(1, min(len(tasks), self.max_workers))
        chunk_count = min(len(tasks), 4 * workers)
        pack = pack_tasks(tasks, chunk_count, self.cost_fn)
        self.last_plan = pack.summary()
        # Heaviest chunk first: the predicted-longest work starts
        # immediately instead of queueing behind a wall of cheap chunks.
        chunk_order = sorted(
            range(chunk_count), key=lambda b: (-pack.loads[b], b)
        )
        # Imported here, not at module level: it loads multiprocessing,
        # which no process that never runs a ``process`` batch needs.
        from concurrent.futures import ProcessPoolExecutor

        outcomes: list = [None] * len(tasks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                b: pool.submit(
                    _run_chunk, [tasks[i] for i in pack.assignments[b]]
                )
                for b in chunk_order
                if pack.assignments[b]
            }
            for b, future in futures.items():
                for i, outcome in zip(pack.assignments[b], future.result()):
                    outcomes[i] = outcome
        return outcomes


def resolve_backend(backend: Union[str, Executor, None] = None) -> Executor:
    """Turn a ``backend=`` knob value into an :class:`Executor`.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable,
    then to ``"serial"``.  An :class:`Executor` instance passes through
    untouched (bring-your-own pool sizing).
    """
    if isinstance(backend, Executor):
        return backend
    name = backend or os.environ.get(REPRO_BACKEND_ENV, "").strip() or "serial"
    if name == "remote":
        from .remote import RemoteExecutor

        return RemoteExecutor()
    if name == "process":
        return ProcessExecutor()
    if name == "serial":
        return SerialExecutor()
    raise AlgorithmError(
        f"unknown execution backend {name!r}; choose one of "
        f"{', '.join(sorted(BACKENDS))} (or set ${REPRO_BACKEND_ENV})"
    )


__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "REPRO_BACKEND_ENV",
    "SerialExecutor",
    "resolve_backend",
]
