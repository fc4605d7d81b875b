"""One typed schema for every operational knob in :mod:`repro`.

Each knob of the engine, the service (``repro serve``), the remote
executor and cache compaction is one field of a frozen dataclass
below, and that field declares everything about it once: its type (the
annotation), its default, its checker (type and range) and its help
text (``field(metadata=...)``).  Every other surface is derived from
the fields:

* ``repro serve``'s flags and ``repro cache compact``'s ``--max-*``
  flags are generated from :class:`ServeConfig` / :class:`CacheConfig`,
  one ``--field-name`` per field (see :mod:`repro.cli`);
* the service's request knobs (``solver``/``epsilon``/``mode``/
  ``seed``/``budget``) are checked by :class:`EngineConfig`'s checkers
  (see :mod:`repro.service.protocol`);
* the backend names are :data:`BACKENDS` (``[engine]``/``[serve]``
  ``backend`` and every ``--backend`` flag's choices), and
  :class:`CacheConfig` is the retention policy
  :meth:`repro.store.SegmentStore.compact` reads;
* every section checks its fields when it is built, so a value is held
  to the same rule whether it came from a file, the environment, a
  flag or a keyword argument.

Precedence — one rule, applied everywhere::

    explicit argument  >  CLI flag  >  environment  >  config file  >  default

* *explicit argument* — a keyword passed to ``Engine(...)``,
  ``RemoteExecutor(...)``, ``ServeConfig(...)``: always wins.
* *CLI flag* — ``repro --config repro.toml serve --port 9000`` serves
  on 9000 regardless of what the file says.  Flags are overlaid via
  :meth:`ReproConfig.merged`.
* *environment* — ``$REPRO_BACKEND``, ``$REPRO_CONFIG`` and the
  ``$REPRO_CACHE_MAX_*`` bounds overlay the file at
  :func:`load_config` time.  Remote workers and the cost model have no
  variable: workers come from the ``[remote]`` section or an explicit
  argument, and packing always uses the registry's cost models.
* *config file* — TOML (``repro.toml``) or JSON, with ``[engine]``,
  ``[serve]``, ``[remote]`` and ``[cache]`` sections.  Unknown
  sections or keys are a :class:`~repro.errors.ConfigError`, not a
  silent ignore.
* *default* — the dataclass field defaults below.

Example ``repro.toml``::

    [engine]
    backend = "remote"
    cache = "sweep_store"          # or `cache = true` for in-memory

    [remote]
    manager = "http://127.0.0.1:8100"   # health-driven discovery

    [serve]
    port = 8101
    queue_depth = 16                    # backpressure: 429 past this

    [cache]
    max_entries = 10000                 # retention bound for `cache compact`
    max_age = 604800.0                  # drop entries idle > 7 days

Consumers: :meth:`repro.api.engine.Engine.from_config`,
:class:`repro.service.server.ReproService` (``repro serve``), and
:meth:`repro.exec.remote.RemoteExecutor.from_config`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError

#: Environment variable naming a config file to load when no ``--config``
#: flag / explicit path is given.
REPRO_CONFIG_ENV = "REPRO_CONFIG"

#: The execution modes every solver entry point accepts.
MODES = ("reference", "congest")

#: The execution backend names (:func:`repro.exec.resolve_backend`); a
#: custom :class:`~repro.exec.Executor` is passed as an instance instead.
BACKENDS = ("serial", "process", "remote")

#: Environment variable supplying the default backend name.
REPRO_BACKEND_ENV = "REPRO_BACKEND"
_CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"
_CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
_CACHE_MAX_AGE_ENV = "REPRO_CACHE_MAX_AGE"


# -- field checkers: (name, value) -> normalised value, or ConfigError ------


def _opt(check):
    def inner(name, value):
        return None if value is None else check(name, value)

    return inner


def _str(name, value):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a string (non-empty), got {value!r}")
    return value


def _int(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _int_in(low, high=None):
    def inner(name, value):
        value = _int(name, value)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise ConfigError(f"{name} must be {bound}, got {value!r}")
        return value

    return inner


def _finite(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    # json.loads and TOML let NaN/inf through; a huge int overflows float()
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _nonneg(name, value):
    value = _finite(name, value)
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


def _choice(*allowed):
    def inner(name, value):
        if value not in allowed:
            raise ConfigError(
                f"{name} must be one of {', '.join(map(repr, allowed))}, "
                f"got {value!r}"
            )
        return value

    return inner


def _cache(name, value):
    if value is None or isinstance(value, bool):
        return value
    return _str(name, value)


def _url_list(name, value):
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(
            f"{name} must be a list of URLs (or a comma-separated "
            f"string), got {value!r}"
        )
    return tuple(_str(f"{name}[{i}]", url).rstrip("/") for i, url in enumerate(value))


def _paths(name, value):
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a path or list of paths, got {value!r}")
    return tuple(_str(f"{name}[{i}]", p) for i, p in enumerate(value))


def _knob(default, check, help, metavar=None):
    """A config field: its default, checker, help text and flag metavar."""
    return field(
        default=default,
        metadata={"check": check, "help": help, "metavar": metavar},
    )


class _Section:
    """Checks (and normalises) every field with its checker when built.

    ``dataclasses.replace`` rebuilds through ``__init__``, so overlays
    are checked too; an error names the field as ``section.field``.
    """

    section = ""

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            name = f"{self.section}.{spec.name}"
            value = spec.metadata["check"](name, getattr(self, spec.name))
            object.__setattr__(self, spec.name, value)


@dataclass(frozen=True)
class EngineConfig(_Section):
    """Defaults for :class:`~repro.api.engine.Engine` sessions."""

    section = "engine"

    backend: Optional[str] = _knob(
        None, _opt(_choice(*BACKENDS)),
        "execution backend for batch entry points (default: "
        "$REPRO_BACKEND or serial)",
    )
    solver: str = _knob("auto", _str, "registered solver name, or auto")
    epsilon: Optional[float] = _knob(
        None, _opt(_finite), "approximation parameter (switches auto to "
        "approx solvers)",
    )
    mode: str = _knob("reference", _choice(*MODES), "reference or congest")
    seed: int = _knob(0, _int, "determinism knob")
    budget: Optional[int] = _knob(
        None, _opt(_int_in(0)),
        "a named solver's effort cap; with auto, an expected-cost ceiling",
    )
    cache: Union[bool, str, None] = _knob(
        None, _cache,
        "result cache: false/unset (none), true (in-memory) or a "
        "segment-store path (persistent)",
    )


@dataclass(frozen=True)
class ServeConfig(_Section):
    """Knobs for one ``repro serve`` process (the asyncio transport)."""

    section = "serve"

    host: str = _knob("127.0.0.1", _str, "bind address (default: 127.0.0.1)")
    port: int = _knob(
        8000, _int_in(0, 65535), "TCP port (0 picks a free one; default: 8000)"
    )
    pool_workers: Optional[int] = _knob(
        None, _opt(_int_in(1)),
        "dispatch thread-pool size (default: queue depth + headroom)", "N",
    )
    queue_depth: int = _knob(
        32, _int_in(0),
        "solver requests queued or running before the service answers "
        "429 + Retry-After (0 disables; default: 32)", "N",
    )
    retry_after: float = _knob(
        1.0, _nonneg, "suggested client backoff carried on 429 responses",
        "SECONDS",
    )
    delay: float = _knob(
        0.0, _nonneg,
        "inject this much sleep per task solved (straggler simulation "
        "for benchmarks/CI; default: 0)", "SECONDS",
    )
    max_nodes: Optional[int] = _knob(
        4096, _opt(_int_in(0)),
        "reject (413) single graphs larger than this (default: 4096)",
    )
    max_batch: Optional[int] = _knob(
        256, _opt(_int_in(0)),
        "reject (413) batches longer than this (default: 256)",
    )
    max_body_bytes: Optional[int] = _knob(
        32 * 1024 * 1024, _opt(_int_in(0)),
        "reject (413) request bodies longer than this, before reading "
        "them (default: 32 MiB)", "BYTES",
    )
    max_sessions: Optional[int] = _knob(
        32, _opt(_int_in(0)),
        "open /mutate sessions before one more answers 429 (default: 32)",
        "N",
    )
    backend: Optional[str] = _knob(
        None, _opt(_choice(*BACKENDS)),
        "default execution backend for /solve_batch",
    )
    cache_file: Optional[str] = _knob(
        None, _opt(_str),
        "persist the shared result cache to this segment-store "
        "directory (created if missing)", "PATH",
    )
    warm_start: tuple[str, ...] = _knob(
        (), _paths,
        "merge this store directory (or legacy schema <= 2 cache file) "
        "into the shared cache before serving (repeatable; see `repro "
        "cache merge`)", "PATH",
    )
    access_log: Optional[str] = _knob(
        None, _opt(_str),
        "append one line per request to this file (default: stderr)",
        "PATH",
    )
    register: Optional[str] = _knob(
        None, _opt(_str),
        "pool manager to heartbeat this worker's URL to (any other "
        "`repro serve` process; enables discovery without restarts)", "URL",
    )
    advertise: Optional[str] = _knob(
        None, _opt(_str),
        "URL to register as (default: the listening URL; set this when "
        "the bind address is not what clients should dial)", "URL",
    )
    heartbeat: float = _knob(
        5.0, _nonneg, "re-registration interval with --register (default: 5)",
        "SECONDS",
    )
    worker_ttl: float = _knob(
        15.0, _nonneg,
        "how long this server lists a registered worker without a fresh "
        "heartbeat (default: 15)", "SECONDS",
    )


@dataclass(frozen=True)
class RemoteConfig(_Section):
    """Knobs for the ``remote`` backend's worker pool.

    Membership comes from exactly one of ``manager`` (health-driven:
    workers join and leave without restarts) or ``workers``.  Dispatch
    is always streamed: chunked per-worker queues with mid-sweep
    re-packing, so batch latency is max-of-shards.
    """

    section = "remote"

    workers: tuple[str, ...] = _knob(
        (), _url_list, "static worker URLs (a list or a comma-separated string)"
    )
    manager: Optional[str] = _knob(
        None, _opt(_str), "pool-manager URL polled for its live /workers list"
    )
    timeout: float = _knob(300.0, _nonneg, "per-request timeout in seconds")
    max_shard: Optional[int] = _knob(
        None, _opt(_int_in(1)), "largest chunk of tasks sent to one worker at once"
    )
    health_interval: float = _knob(
        1.0, _nonneg, "seconds between polls of the manager's /workers"
    )


@dataclass(frozen=True)
class CacheConfig(_Section):
    """The retention policy :meth:`repro.store.SegmentStore.compact`
    applies (``repro cache compact``).

    ``None`` means *unbounded* along that axis.  ``max_age`` is
    measured against the store's newest record timestamp (not the wall
    clock) so compaction stays deterministic.
    """

    section = "cache"

    max_entries: Optional[int] = _knob(
        None, _opt(_int_in(0)),
        "keep at most N entries (most-frequently/-recently hit win)", "N",
    )
    max_bytes: Optional[int] = _knob(
        None, _opt(_int_in(0)),
        "keep the best-ranked entries fitting this byte budget", "BYTES",
    )
    max_age: Optional[float] = _knob(
        None, _opt(_nonneg),
        "drop entries idle longer than this many seconds (vs the newest "
        "record)", "SECONDS",
    )


_SECTIONS = {
    cls.section: cls for cls in (EngineConfig, ServeConfig, RemoteConfig, CacheConfig)
}


@dataclass(frozen=True)
class ReproConfig:
    """The four sections plus the path they were loaded from."""

    engine: EngineConfig = field(default_factory=EngineConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    remote: RemoteConfig = field(default_factory=RemoteConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    source: Optional[str] = None

    def merged(
        self, engine=None, serve=None, remote=None, cache=None
    ) -> "ReproConfig":
        """Overlay per-section updates, skipping ``None`` values.

        This is the *CLI flag* layer of the precedence rule: flags that
        were not given arrive as ``None`` and leave the underlying
        (env/file/default) value untouched.
        """
        return ReproConfig(
            engine=_overlay(self.engine, engine or {}),
            serve=_overlay(self.serve, serve or {}),
            remote=_overlay(self.remote, remote or {}),
            cache=_overlay(self.cache, cache or {}),
            source=self.source,
        )

    def to_dict(self) -> dict:
        """The effective configuration as plain JSON-able data."""
        payload = {
            "engine": dataclasses.asdict(self.engine),
            "serve": dataclasses.asdict(self.serve),
            "remote": dataclasses.asdict(self.remote),
            "cache": dataclasses.asdict(self.cache),
            "source": self.source,
        }
        payload["serve"]["warm_start"] = list(self.serve.warm_start)
        payload["remote"]["workers"] = list(self.remote.workers)
        return payload


def _overlay(section, updates: dict):
    """Apply non-``None`` ``updates`` onto a section (checked on rebuild)."""
    names = [spec.name for spec in dataclasses.fields(section)]
    for key in updates:
        if key not in names:
            raise ConfigError(
                f"unknown config key {section.section}.{key} "
                f"(allowed: {', '.join(sorted(names))})"
            )
    cleaned = {key: value for key, value in updates.items() if value is not None}
    return dataclasses.replace(section, **cleaned) if cleaned else section


def _parse_file(path: Path) -> dict:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if path.suffix.lower() == ".toml":
        import tomllib

        try:
            return tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid TOML: {exc}") from None
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def _env_number(name: str, kind):
    """Parse a numeric environment variable, or ``None`` when unset."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"${name} must be {'an integer' if kind is int else 'a number'}, "
            f"got {raw!r}"
        ) from None


def load_config(
    path: Union[str, Path, None] = None, *, env: bool = True
) -> ReproConfig:
    """Build the effective :class:`ReproConfig` (file + env layers).

    ``path=None`` consults ``$REPRO_CONFIG``; when that is unset too,
    the result is defaults plus the env layer.  The CLI-flag layer is
    the caller's job (:meth:`ReproConfig.merged`); explicit API
    arguments sit above everything, per the module precedence rule.
    """
    if path is None and env:
        path = os.environ.get(REPRO_CONFIG_ENV) or None
    sections: dict = {}
    source = None
    if path is not None:
        file_path = Path(path)
        data = _parse_file(file_path)
        if not isinstance(data, dict):
            raise ConfigError(
                f"config file {file_path} must hold an object with "
                f"[engine]/[serve]/[remote]/[cache] sections, got "
                f"{type(data).__name__}"
            )
        unknown = sorted(set(data) - set(_SECTIONS))
        if unknown:
            raise ConfigError(
                f"unknown config section(s) {', '.join(map(repr, unknown))} "
                f"in {file_path} (allowed: {', '.join(sorted(_SECTIONS))})"
            )
        for name, body in data.items():
            if not isinstance(body, dict):
                raise ConfigError(
                    f"config section [{name}] must be a table/object, "
                    f"got {type(body).__name__}"
                )
            sections[name] = body
        source = str(file_path)
    config = ReproConfig(source=source).merged(**sections)
    if env:
        config = config.merged(
            engine={"backend": os.environ.get(REPRO_BACKEND_ENV) or None},
            cache={
                "max_entries": _env_number(_CACHE_MAX_ENTRIES_ENV, int),
                "max_bytes": _env_number(_CACHE_MAX_BYTES_ENV, int),
                "max_age": _env_number(_CACHE_MAX_AGE_ENV, float),
            },
        )
    return config


__all__ = [
    "BACKENDS",
    "MODES",
    "REPRO_BACKEND_ENV",
    "REPRO_CONFIG_ENV",
    "CacheConfig",
    "EngineConfig",
    "RemoteConfig",
    "ReproConfig",
    "ServeConfig",
    "load_config",
]
