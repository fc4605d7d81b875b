"""repro — reproduction of Nanongkai (PODC 2014), distributed min cut.

Public API highlights
---------------------
* :class:`repro.Engine` — the configurable session object (registry,
  backend, cache, budget policy) behind everything; the module-level
  :func:`repro.solve` / :func:`repro.solve_all` /
  :func:`repro.solve_batch` façade delegates to a process-wide default
  engine and returns canonical :class:`repro.CutResult` objects
  (see :mod:`repro.api`).
* :mod:`repro.exec` — the execution backends (``serial``/
  ``process``/``remote``, the ``backend=`` knob) and
  :class:`repro.ResultCache`, the content-addressed result cache with
  a versioned, mergeable on-disk tier (``python -m repro cache``).
* :mod:`repro.service` — the façade served over JSON-per-request HTTP
  (``python -m repro serve`` / :class:`repro.service.ServiceClient`),
  one shared result cache across connections.  Imported lazily — the
  core library never pays for the HTTP machinery.
* :class:`repro.graphs.WeightedGraph`, :class:`repro.graphs.RootedTree`
  and the generator families.
* :class:`repro.congest.CongestNetwork` — the CONGEST simulator.
* :func:`repro.core.one_respecting_min_cut_congest` — Theorem 2.1.
* :mod:`repro.mincut` — the paper's headline exact and (1+ε)-approximate
  algorithms.
* :mod:`repro.baselines` — Stoer–Wagner, Karger(-Stein), Matula (2+ε),
  brute force, bridges, Nagamochi–Ibaraki.
"""

from .api import (
    CutResult,
    Engine,
    SolverRegistry,
    SolverSpec,
    default_engine,
    default_registry,
    register_solver,
    solve,
    solve_all,
    solve_batch,
)
from .errors import (
    AlgorithmError,
    BandwidthExceededError,
    CongestError,
    DisconnectedGraphError,
    GraphError,
    ProtocolError,
    ReproError,
    RoundLimitExceededError,
    TreeError,
)
from .exec import CacheKey, ResultCache, resolve_backend
from .graphs import RootedTree, WeightedGraph

__version__ = "1.0.0"

__all__ = [
    "AlgorithmError",
    "BandwidthExceededError",
    "CongestError",
    "DisconnectedGraphError",
    "GraphError",
    "ProtocolError",
    "ReproError",
    "RoundLimitExceededError",
    "TreeError",
    "RootedTree",
    "WeightedGraph",
    "CacheKey",
    "CutResult",
    "Engine",
    "ResultCache",
    "resolve_backend",
    "SolverRegistry",
    "SolverSpec",
    "default_engine",
    "default_registry",
    "register_solver",
    "solve",
    "solve_all",
    "solve_batch",
    "__version__",
]
