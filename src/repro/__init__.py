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
  one shared result cache across connections.
* :class:`repro.graphs.WeightedGraph`, :class:`repro.graphs.RootedTree`
  and the generator families.
* :class:`repro.congest.CongestNetwork` — the CONGEST simulator.
* :func:`repro.core.one_respecting_min_cut_congest` — Theorem 2.1.
* :mod:`repro.mincut` — the paper's headline exact and (1+ε)-approximate
  algorithms.
* :mod:`repro.baselines` — Stoer–Wagner, Karger(-Stein), Matula (2+ε),
  brute force, bridges, Nagamochi–Ibaraki.

Every package, this one included, is imported lazily: its names
resolve on first use (:mod:`repro._lazy`), so ``import repro`` loads
no algorithm, and a process imports only the modules its work touches
— a ``repro serve`` worker answering cache hits never loads the
paper's pipeline, the baselines or the process pool.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": (
        "AlgorithmError", "BandwidthExceededError", "CongestError",
        "DisconnectedGraphError", "GraphError", "ProtocolError", "ReproError",
        "RoundLimitExceededError", "TreeError",
    ),
    ".graphs.graph": ("WeightedGraph",),
    ".graphs.trees": ("RootedTree",),
    ".exec.cache": ("CacheKey", "ResultCache"),
    ".exec.backends": ("resolve_backend",),
    ".api.result": ("CutResult",),
    ".api.engine": ("Engine", "default_engine"),
    ".api.registry": (
        "SolverRegistry", "SolverSpec", "default_registry", "register_solver",
    ),
    ".api.facade": ("solve", "solve_all", "solve_batch"),
})
__all__.append("__version__")
