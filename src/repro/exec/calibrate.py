"""Measured-cost calibration: fit solver cost models to wall time.

The registry's hand-fit ``cost_model`` metadata predicts *relative*
cost in abstract units — good enough to rank solvers, useless for
answering "how many seconds will this shard take".  This module closes
the loop from predicted to measured cost:

1. :func:`run_calibration` sweeps the registered solvers over a
   generator grid, measuring best-of-``repeats`` ``wall_time`` per
   (solver, instance) — the same ``wall_time`` the façade stamps on
   every :class:`~repro.api.result.CutResult`.
2. Each solver's measurements are regressed against a small feature
   basis in ``(n, m)`` that *contains the hand-fit model as one term*
   (plus intercept, ``n`` and ``m``), by weighted least squares with
   ``1/seconds`` weights — i.e. minimising squared **relative** error,
   the quantity that matters for makespan planning.  Because the basis
   is a superset of the scaled hand model, the fitted model's relative
   error on the grid is never worse than the best single-scalar hand
   fit, and the per-solver report carries both so the margin is
   auditable.
3. The fitted coefficients persist in a **versioned** JSON artifact —
   :class:`CostProfile`, schema'd like the result cache
   (``{"schema": N, "kind": "repro-cost-profile", ...}``, strict
   loader for tooling) — loadable by ``Engine(cost_profile=...)`` or
   ``$REPRO_COST_PROFILE``.  Solvers the grid never measured fall back
   to their hand-fit model scaled by the profile's median
   seconds-per-cost-unit, so mixed batches still pack in one unit.

A second, independent measurement calibrates the dynamic-graph plane:
per-slot cost of an in-place CSR patch vs per-edge cost of a full
index rebuild (:class:`DynamicCosts`), from which
:meth:`CostProfile.patch_budget_for` derives the ``patch_budget``
rebuild threshold that :meth:`Engine.dynamic_session` seeds.

The normal-equation solve is a tiny Gaussian elimination (at most
4×4), so calibration needs no third-party package.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..errors import AlgorithmError

#: Version of the on-disk profile format.  Bumped on incompatible shape
#: changes; the loader refuses newer schemas rather than misreading them.
PROFILE_SCHEMA_VERSION = 1

#: File-format discriminator so a cost profile can never be mistaken
#: for (or by) the result cache, whose envelope it otherwise mirrors.
PROFILE_KIND = "repro-cost-profile"

#: Environment variable naming a profile file every Engine loads by
#: default (explicit ``Engine(cost_profile=...)`` wins).
REPRO_COST_PROFILE_ENV = "REPRO_COST_PROFILE"

#: Reference instance for staleness checks and the CLI table — the same
#: (n, m) the ``repro solvers`` cost column samples.
REFERENCE_POINT = (100, 300)

#: Floor for predictions, in seconds: a fitted polynomial may dip
#: negative outside the grid, and a scheduler cost must stay positive.
_MIN_PREDICTION = 1e-9


def _lg(n: float) -> float:
    return math.log2(max(2.0, n))


def _term_value(term: str, n: int, m: int, hand) -> float:
    """Evaluate one basis term; ``hand`` is the solver's hand-fit model."""
    if term == "1":
        return 1.0
    if term == "n":
        return float(n)
    if term == "m":
        return float(m)
    if term == "m*lg(n)":
        return m * _lg(n)
    if term == "hand":
        if hand is None:
            raise AlgorithmError(
                "cost profile term 'hand' needs the solver's cost_model, "
                "which is no longer registered"
            )
        return float(hand(n, m))
    raise AlgorithmError(f"unknown cost-profile term {term!r}")


def _solve_normal_equations(rows: list[list[float]], rhs: list[float]) -> list[float]:
    """Least squares via normal equations + Gaussian elimination.

    ``rows`` is the (already weighted) design matrix.  A tiny ridge
    keeps the system solvable when grid collinearity makes it singular
    (e.g. every instance has ``m ≈ c·n``).
    """
    k = len(rows[0])
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(k)] for i in range(k)]
    atb = [sum(r[i] * y for r, y in zip(rows, rhs)) for i in range(k)]
    ridge = 1e-9 * max(ata[i][i] for i in range(k)) + 1e-30
    for i in range(k):
        ata[i][i] += ridge
    # Gaussian elimination with partial pivoting (k <= 4).
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(ata[r][col]))
        ata[col], ata[pivot] = ata[pivot], ata[col]
        atb[col], atb[pivot] = atb[pivot], atb[col]
        denom = ata[col][col]
        for row in range(col + 1, k):
            factor = ata[row][col] / denom
            for j in range(col, k):
                ata[row][j] -= factor * ata[col][j]
            atb[row] -= factor * atb[col]
    coeffs = [0.0] * k
    for row in range(k - 1, -1, -1):
        acc = atb[row] - sum(ata[row][j] * coeffs[j] for j in range(row + 1, k))
        coeffs[row] = acc / ata[row][row]
    return coeffs


@dataclass(frozen=True)
class FittedModel:
    """One solver's calibrated wall-time model.

    ``terms``/``coefficients`` define ``seconds(n, m) = Σ cᵢ·termᵢ``;
    ``hand_scale`` is the best single seconds-per-cost-unit scalar for
    the hand-fit model alone (the baseline the fit must beat), and
    ``rel_error`` / ``hand_rel_error`` are the RMS relative wall-time
    errors of fitted vs scaled-hand predictions on the calibration
    grid.  ``hand_cost_ref`` records the hand model's value at
    :data:`REFERENCE_POINT` when calibrated, so a later edit to the
    registered ``cost_model`` is detectable as staleness.
    """

    solver: str
    terms: tuple[str, ...]
    coefficients: tuple[float, ...]
    r2: float
    rel_error: float
    hand_rel_error: Optional[float]
    hand_scale: Optional[float]
    hand_cost_ref: Optional[float]
    samples: int

    def predict(self, n: int, m: int, hand=None) -> float:
        """Predicted wall seconds on an (n, m) instance (clamped > 0)."""
        value = sum(
            coeff * _term_value(term, n, m, hand)
            for term, coeff in zip(self.terms, self.coefficients)
        )
        return max(value, _MIN_PREDICTION)

    def to_payload(self) -> dict:
        return {
            "terms": list(self.terms),
            "coefficients": list(self.coefficients),
            "r2": self.r2,
            "rel_error": self.rel_error,
            "hand_rel_error": self.hand_rel_error,
            "hand_scale": self.hand_scale,
            "hand_cost_ref": self.hand_cost_ref,
            "samples": self.samples,
        }

    @classmethod
    def from_payload(cls, solver: str, payload: dict) -> "FittedModel":
        try:
            return cls(
                solver=solver,
                terms=tuple(str(t) for t in payload["terms"]),
                coefficients=tuple(float(c) for c in payload["coefficients"]),
                r2=float(payload["r2"]),
                rel_error=float(payload["rel_error"]),
                hand_rel_error=(
                    None
                    if payload.get("hand_rel_error") is None
                    else float(payload["hand_rel_error"])
                ),
                hand_scale=(
                    None
                    if payload.get("hand_scale") is None
                    else float(payload["hand_scale"])
                ),
                hand_cost_ref=(
                    None
                    if payload.get("hand_cost_ref") is None
                    else float(payload["hand_cost_ref"])
                ),
                samples=int(payload["samples"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgorithmError(
                f"cost profile entry for solver {solver!r} is malformed: {exc}"
            ) from exc


@dataclass(frozen=True)
class DynamicCosts:
    """Measured dynamic-plane unit costs (see module docstring).

    ``patch_slot_seconds`` is the marginal cost of shifting one CSR
    slot during an in-place splice; ``rebuild_edge_seconds`` the
    per-directed-edge cost of a from-scratch index rebuild.  Patching
    beats rebuilding while ``slots·patch < edges·rebuild`` — the
    inequality :meth:`CostProfile.patch_budget_for` solves.
    """

    patch_slot_seconds: float
    rebuild_edge_seconds: float
    samples: int

    def to_payload(self) -> dict:
        return {
            "patch_slot_seconds": self.patch_slot_seconds,
            "rebuild_edge_seconds": self.rebuild_edge_seconds,
            "samples": self.samples,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DynamicCosts":
        try:
            return cls(
                patch_slot_seconds=float(payload["patch_slot_seconds"]),
                rebuild_edge_seconds=float(payload["rebuild_edge_seconds"]),
                samples=int(payload["samples"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgorithmError(
                f"cost profile dynamic section is malformed: {exc}"
            ) from exc


class CostProfile:
    """Versioned, persistable bundle of fitted cost models.

    The artifact ``repro calibrate`` writes and
    ``Engine(cost_profile=...)`` / ``$REPRO_COST_PROFILE`` load.  The
    on-disk form mirrors the result cache's versioned envelope::

        {"schema": 1, "kind": "repro-cost-profile",
         "solvers": {name: {...}}, "dynamic": {...}, "grid": {...}}

    :meth:`load` is strict (tooling must not treat a bad file as
    empty); unknown *older* shapes do not exist yet, and newer schemas
    are refused.
    """

    def __init__(
        self,
        models: dict[str, FittedModel],
        dynamic: Optional[DynamicCosts] = None,
        grid: Optional[dict] = None,
    ) -> None:
        self.models = dict(models)
        self.dynamic = dynamic
        self.grid = dict(grid) if grid else {}

    def __len__(self) -> int:
        return len(self.models)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostProfile({len(self.models)} solver(s), "
            f"dynamic={'yes' if self.dynamic else 'no'})"
        )

    # -- prediction ----------------------------------------------------

    @property
    def unit_scale(self) -> Optional[float]:
        """Median seconds-per-cost-unit across calibrated solvers.

        The conversion applied to *uncalibrated* solvers' hand-fit
        models so a mixed batch still packs in wall seconds.
        """
        scales = sorted(
            model.hand_scale
            for model in self.models.values()
            if model.hand_scale is not None and model.hand_scale > 0
        )
        if not scales:
            return None
        mid = len(scales) // 2
        if len(scales) % 2:
            return scales[mid]
        return (scales[mid - 1] + scales[mid]) / 2.0

    def predict_seconds(self, spec, n: int, m: int) -> Optional[float]:
        """Predicted wall seconds for ``spec`` on an (n, m) instance.

        Fitted model first; hand-fit model × :attr:`unit_scale` for
        solvers the grid never measured; ``None`` when neither exists
        (the caller falls back to raw cost units or uniform packing).
        """
        model = self.models.get(spec.name)
        if model is not None:
            try:
                return model.predict(n, m, hand=spec.cost_model)
            except AlgorithmError:
                pass  # 'hand' term but the model was unregistered: fall back
        if spec.cost_model is not None:
            scale = self.unit_scale
            if scale is not None:
                return max(spec.cost_model(n, m) * scale, _MIN_PREDICTION)
        return None

    def status(self, spec) -> str:
        """Calibration status for one spec: ``fitted``/``stale``/``missing``.

        ``stale`` means the solver's registered hand model no longer
        matches the one recorded at calibration time (compared at
        :data:`REFERENCE_POINT`) — re-run ``repro calibrate``.
        """
        model = self.models.get(spec.name)
        if model is None:
            return "missing"
        if model.hand_cost_ref is not None and spec.cost_model is not None:
            current = float(spec.cost_model(*REFERENCE_POINT))
            recorded = model.hand_cost_ref
            if abs(current - recorded) > 1e-9 * max(abs(recorded), 1.0):
                return "stale"
        return "fitted"

    def patch_budget_for(self, directed_edge_count: int) -> Optional[int]:
        """Calibrated ``patch_budget`` for a graph of this index size.

        The break-even splice width: patch while the predicted patch
        cost stays under the predicted full-rebuild cost.  ``None``
        without dynamic measurements (keep the library default).
        """
        if self.dynamic is None or directed_edge_count <= 0:
            return None
        patch = self.dynamic.patch_slot_seconds
        rebuild = self.dynamic.rebuild_edge_seconds
        if patch <= 0 or rebuild <= 0:
            return None
        return max(1, int(directed_edge_count * rebuild / patch))

    # -- persistence ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "kind": PROFILE_KIND,
            "solvers": {
                name: model.to_payload()
                for name, model in sorted(self.models.items())
            },
            "dynamic": self.dynamic.to_payload() if self.dynamic else None,
            "grid": self.grid,
        }

    @classmethod
    def from_payload(cls, payload) -> "CostProfile":
        if not isinstance(payload, dict) or payload.get("kind") != PROFILE_KIND:
            raise AlgorithmError(
                "not a cost profile (missing "
                f"kind={PROFILE_KIND!r} discriminator)"
            )
        schema = payload.get("schema")
        if schema != PROFILE_SCHEMA_VERSION:
            raise AlgorithmError(
                f"cost profile schema {schema!r} is not supported "
                f"(this version reads schema {PROFILE_SCHEMA_VERSION})"
            )
        solvers = payload.get("solvers")
        if not isinstance(solvers, dict):
            raise AlgorithmError("cost profile has no 'solvers' table")
        models = {
            str(name): FittedModel.from_payload(str(name), entry)
            for name, entry in solvers.items()
        }
        dynamic = payload.get("dynamic")
        return cls(
            models=models,
            dynamic=DynamicCosts.from_payload(dynamic) if dynamic else None,
            grid=payload.get("grid") or {},
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the versioned JSON artifact (atomic rename, like the cache)."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CostProfile":
        """Strictly read a profile file; raises on anything unreadable."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise AlgorithmError(f"cannot read cost profile {path}: {exc}") from exc
        except ValueError as exc:
            raise AlgorithmError(
                f"cost profile {path} is not valid JSON: {exc}"
            ) from exc
        try:
            return cls.from_payload(payload)
        except AlgorithmError as exc:
            raise AlgorithmError(f"{path}: {exc}") from exc

    # -- reporting -----------------------------------------------------

    def rows(self, registry=None) -> list[list]:
        """Fit-quality table rows: solver, samples, R², errors, status."""
        out = []
        for name in sorted(self.models):
            model = self.models[name]
            status = "fitted"
            if registry is not None and name in registry:
                status = self.status(registry.get(name))
            out.append(
                [
                    name,
                    model.samples,
                    round(model.r2, 4),
                    f"{model.rel_error:.1%}",
                    (
                        f"{model.hand_rel_error:.1%}"
                        if model.hand_rel_error is not None
                        else "-"
                    ),
                    (
                        f"{model.hand_scale:.3g}"
                        if model.hand_scale is not None
                        else "-"
                    ),
                    status,
                ]
            )
        return out


def resolve_cost_profile(
    profile: Union["CostProfile", str, Path, None],
) -> Optional["CostProfile"]:
    """Normalise a ``cost_profile=`` knob value.

    A :class:`CostProfile` passes through; a path loads strictly;
    ``None`` defers to ``$REPRO_COST_PROFILE`` (missing/empty → no
    profile).  The env fallback *also* loads strictly: pointing the
    environment at a broken file should fail loudly, not silently
    degrade every engine in the process.
    """
    if isinstance(profile, CostProfile):
        return profile
    if profile is not None:
        return CostProfile.load(profile)
    env = os.environ.get(REPRO_COST_PROFILE_ENV, "").strip()
    if env:
        return CostProfile.load(env)
    return None


# ----------------------------------------------------------------------
# The calibration harness
# ----------------------------------------------------------------------


@dataclass
class CalibrationSample:
    """One measured (solver, instance) point."""

    solver: str
    family: str
    n: int
    m: int
    seconds: float


@dataclass
class CalibrationReport:
    """What :func:`run_calibration` hands back: profile + raw samples."""

    profile: CostProfile
    samples: list[CalibrationSample] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)


def _fit_solver(
    name: str,
    hand,
    points: list[tuple[int, int, float]],
) -> FittedModel:
    """Weighted least squares for one solver's measurements.

    Weights are ``1/seconds`` (relative error); the basis always
    contains the scaled hand model when one is registered, so the
    fitted relative error can only improve on the single-scalar hand
    baseline computed alongside.
    """
    terms: tuple[str, ...]
    if hand is not None:
        terms = ("1", "n", "m", "hand")
    else:
        terms = ("1", "n", "m", "m*lg(n)")
    if len(points) < len(terms):
        # Degenerate grid: fall back to the richest basis that fits.
        terms = ("1", "hand") if hand is not None else ("1", "m")
        terms = terms[: max(1, len(points))]
    design, rhs = [], []
    for n, m, seconds in points:
        weight = 1.0 / max(seconds, _MIN_PREDICTION)
        design.append(
            [weight * _term_value(term, n, m, hand) for term in terms]
        )
        rhs.append(weight * seconds)  # == 1.0: unit relative target
    coeffs = _solve_normal_equations(design, rhs)

    def _rel_rms(predict: Callable[[int, int], float]) -> float:
        acc = 0.0
        for n, m, seconds in points:
            acc += ((predict(n, m) - seconds) / max(seconds, _MIN_PREDICTION)) ** 2
        return math.sqrt(acc / len(points))

    def _fitted(n: int, m: int) -> float:
        return sum(
            c * _term_value(term, n, m, hand) for term, c in zip(terms, coeffs)
        )

    rel_error = _rel_rms(_fitted)
    hand_scale = hand_rel_error = hand_cost_ref = None
    if hand is not None:
        ratios = [
            (hand(n, m) / max(seconds, _MIN_PREDICTION), seconds)
            for n, m, seconds in points
        ]
        denom = sum(r * r for r, _ in ratios)
        hand_scale = (sum(r for r, _ in ratios) / denom) if denom > 0 else 0.0
        hand_rel_error = _rel_rms(lambda n, m: hand_scale * hand(n, m))
        hand_cost_ref = float(hand(*REFERENCE_POINT))
    mean = sum(s for _, _, s in points) / len(points)
    ss_tot = sum((s - mean) ** 2 for _, _, s in points)
    ss_res = sum(
        (_fitted(n, m) - s) ** 2 for n, m, s in points
    )
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FittedModel(
        solver=name,
        terms=terms,
        coefficients=tuple(coeffs),
        r2=r2,
        rel_error=rel_error,
        hand_rel_error=hand_rel_error,
        hand_scale=hand_scale,
        hand_cost_ref=hand_cost_ref,
        samples=len(points),
    )


def calibrate_dynamic(
    *, n: int = 128, seed: int = 0, ops: int = 24
) -> DynamicCosts:
    """Measure patch-vs-rebuild unit costs on one representative graph.

    Patches are timed on worst-case splices (an edge between the two
    lowest-index non-adjacent nodes shifts nearly every CSR slot), so
    ``patch_slot_seconds`` is a conservative per-slot price.
    """
    from ..dynamic.incremental import IncrementalIndexer
    from ..dynamic.ops import AddEdge, RemoveEdge, MutationLog
    from ..graphs import build_family
    from ..graphs.index import GraphIndex

    graph = build_family("gnp", n, seed=seed)
    edges = graph.index().directed_edge_count

    rebuild_best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        GraphIndex(graph)
        rebuild_best = min(rebuild_best, time.perf_counter() - started)
    rebuild_edge_seconds = max(rebuild_best / max(edges, 1), _MIN_PREDICTION)

    # The two lowest-id non-adjacent endpoints: the most expensive splice.
    nodes = list(graph.nodes)
    u = nodes[0]
    v = next(x for x in nodes[1:] if x not in graph.neighbors(u))
    log = MutationLog(graph)
    indexer = IncrementalIndexer(graph)
    slots = indexer.index.directed_edge_count  # ~full shift per splice
    started = time.perf_counter()
    for _ in range(ops):
        indexer.apply(log.apply(AddEdge(u, v, 1.0)))
        indexer.apply(log.apply(RemoveEdge(u, v)))
    elapsed = time.perf_counter() - started
    patch_slot_seconds = max(
        elapsed / (2 * ops * max(slots, 1)), _MIN_PREDICTION
    )
    return DynamicCosts(
        patch_slot_seconds=patch_slot_seconds,
        rebuild_edge_seconds=rebuild_edge_seconds,
        samples=2 * ops,
    )


def run_calibration(
    *,
    registry=None,
    solvers: Optional[Sequence[str]] = None,
    families: Sequence[str] = ("gnp", "grid"),
    sizes: Sequence[int] = (12, 16, 24, 32),
    seed: int = 0,
    repeats: int = 2,
    max_hand_cost: float = 5e7,
    include_dynamic: bool = True,
) -> CalibrationReport:
    """Measure the grid, fit every solver, return profile + samples.

    ``solvers=None`` calibrates every registered non-heavy solver;
    (solver, instance) pairs whose *hand* model predicts more than
    ``max_hand_cost`` cost units are skipped up front, so a tiny grid
    stays tiny even with ``brute_force`` registered.  Inapplicable
    pairs (node caps, integer-weight requirements) are skipped and
    reported rather than failed.
    """
    from ..api.engine import Engine
    from ..api.registry import default_registry
    from ..graphs import build_family

    registry = registry if registry is not None else default_registry()
    if solvers is None:
        specs = [spec for spec in registry if not spec.heavy]
    else:
        specs = [registry.get(name) for name in solvers]

    engine = Engine(registry=registry, backend="serial")
    grid = [
        build_family(family, size, seed=seed + i)
        for family in families
        for i, size in enumerate(sizes)
    ]
    samples: list[CalibrationSample] = []
    skipped: list[tuple[str, str]] = []
    by_solver: dict[str, list[tuple[int, int, float]]] = {}
    for spec in specs:
        for graph, family in zip(
            grid, [f for f in families for _ in sizes]
        ):
            n, m = graph.number_of_nodes, graph.number_of_edges
            reason = spec.inapplicable_reason(graph)
            if reason is not None:
                skipped.append((spec.name, reason))
                continue
            if (
                spec.cost_model is not None
                and spec.cost_model(n, m) > max_hand_cost
            ):
                skipped.append(
                    (spec.name, f"over max_hand_cost on n={n}, m={m}")
                )
                continue
            best = float("inf")
            for _ in range(max(1, repeats)):
                result = engine.solve(graph, spec.name, seed=seed)
                best = min(best, result.wall_time)
            samples.append(
                CalibrationSample(
                    solver=spec.name, family=family, n=n, m=m, seconds=best
                )
            )
            by_solver.setdefault(spec.name, []).append((n, m, best))

    models = {
        name: _fit_solver(name, registry.get(name).cost_model, points)
        for name, points in by_solver.items()
    }
    dynamic = calibrate_dynamic(seed=seed) if include_dynamic else None
    profile = CostProfile(
        models=models,
        dynamic=dynamic,
        grid={
            "families": list(families),
            "sizes": [int(s) for s in sizes],
            "seed": int(seed),
            "repeats": int(repeats),
        },
    )
    return CalibrationReport(profile=profile, samples=samples, skipped=skipped)


__all__ = [
    "PROFILE_KIND",
    "PROFILE_SCHEMA_VERSION",
    "REPRO_COST_PROFILE_ENV",
    "CalibrationReport",
    "CalibrationSample",
    "CostProfile",
    "DynamicCosts",
    "FittedModel",
    "calibrate_dynamic",
    "resolve_cost_profile",
    "run_calibration",
]
