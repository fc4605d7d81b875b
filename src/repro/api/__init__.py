"""Unified min-cut API: solver registry, canonical result, façade.

This package is the single programmatic surface over every minimum-cut
algorithm in the library — the paper's exact and (1+ε) algorithms and
all baselines::

    from repro.api import solve, solve_all, CutResult

    result = solve(graph)                      # auto-picked exact solver
    result = solve(graph, solver="matula", epsilon=0.25)
    assert result.matches(graph)               # re-verify the witness

Modules
-------
:mod:`~repro.api.result`
    :class:`CutResult` — the canonical frozen result every solver
    returns, with ``verify(graph)`` recomputing the witness cut value.
:mod:`~repro.api.registry`
    :class:`SolverRegistry` / :class:`SolverSpec` / ``@register_solver``
    — capability metadata (kind, guarantee, congest support, …).
:mod:`~repro.api.solvers`
    The built-in adapters (imported lazily via
    :func:`default_registry` to avoid import cycles with the algorithm
    modules).
:mod:`~repro.api.engine`
    :class:`Engine` — the configurable session object owning registry,
    backend, cache and budget policy, with ``solve``/``solve_all``/
    ``solve_batch``/``compare`` methods plus the task plane
    (``build_batch_tasks``/``solve_tasks``) and cache warm-start.
:mod:`~repro.api.facade`
    ``solve`` / ``solve_all`` / ``solve_batch`` — thin delegations to
    the process-wide default engine (:func:`default_engine`), or to an
    engine built with the ``registry``/``backend``/``cache`` a call
    names.
"""

from .engine import Engine, default_engine
from .facade import solve, solve_all, solve_batch
from .registry import (
    DEFAULT_REGISTRY,
    GUARANTEE_RANK,
    SOLVER_KINDS,
    SolverRegistry,
    SolverSpec,
    default_registry,
    has_integer_weights,
    register_solver,
)
from .result import CutResult

__all__ = [
    "CutResult",
    "DEFAULT_REGISTRY",
    "Engine",
    "default_engine",
    "GUARANTEE_RANK",
    "SOLVER_KINDS",
    "SolverRegistry",
    "SolverSpec",
    "default_registry",
    "has_integer_weights",
    "register_solver",
    "solve",
    "solve_all",
    "solve_batch",
]
