"""One typed schema for every operational knob in :mod:`repro`.

This module is the single source of truth for how the engine, the
service (``repro serve``), and the remote executor are configured.  It
was grown out of ROADMAP item 5's observation that each subsystem had
sprouted its own layer of flags and environment variables: the knobs
now live in three frozen dataclasses with typed defaults, loadable
from a config file as well as flags and env.

Precedence — one rule, applied everywhere::

    explicit argument  >  CLI flag  >  environment  >  config file  >  default

* *explicit argument* — a keyword passed to ``Engine(...)``,
  ``RemoteExecutor(...)``, ``create_server(...)``: always wins.
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
    cache = "sweep_cache.json"     # or `cache = true` for in-memory

    [remote]
    manager = "http://127.0.0.1:8100"   # health-driven discovery

    [serve]
    port = 8101
    queue_depth = 16                    # backpressure: 429 past this

    [cache]
    max_entries = 10000                 # retention bound for `cache compact`
    max_age = 604800.0                  # drop entries idle > 7 days

Consumers: :meth:`repro.api.engine.Engine.from_config`,
``repro serve`` (via :meth:`repro.service.server.ServiceConfig`), and
:meth:`repro.exec.remote.RemoteExecutor.from_config`.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .errors import ConfigError

#: Environment variable naming a config file to load when no ``--config``
#: flag / explicit path is given.
REPRO_CONFIG_ENV = "REPRO_CONFIG"

_BACKEND_ENV = "REPRO_BACKEND"
_CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"
_CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
_CACHE_MAX_AGE_ENV = "REPRO_CACHE_MAX_AGE"


@dataclass(frozen=True)
class EngineConfig:
    """Defaults for :class:`~repro.api.engine.Engine` sessions.

    ``cache`` accepts three forms: ``None``/``false`` (no cache),
    ``true`` (fresh in-memory cache) or a path string (disk-backed).
    """

    backend: Optional[str] = None
    solver: str = "auto"
    epsilon: Optional[float] = None
    mode: str = "reference"
    seed: int = 0
    budget: Optional[int] = None
    cache: Union[bool, str, None] = None


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for one ``repro serve`` process.

    The transport is always the asyncio server; ``pool_workers`` sizes
    its dispatch pool (``None``: just above ``queue_depth``).
    ``queue_depth`` bounds requests queued or running on the solver
    path; past it the service answers a structured 429 telling clients
    to retry after ``retry_after`` seconds.  ``delay`` injects that
    many seconds of sleep per task solved — a straggler-worker knob for
    benchmarks and CI, never set in production.  ``register`` points at
    a pool-manager service the worker should heartbeat its
    ``advertise`` URL to every ``heartbeat`` seconds; ``worker_ttl`` is
    how long *this* server keeps a registered worker listed without a
    fresh heartbeat.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    pool_workers: Optional[int] = None
    queue_depth: Optional[int] = 32
    retry_after: float = 1.0
    delay: float = 0.0
    max_nodes: Optional[int] = 4096
    max_batch: Optional[int] = 256
    max_body_bytes: Optional[int] = 32 * 1024 * 1024
    max_sessions: Optional[int] = 32
    backend: Optional[str] = None
    cache_file: Optional[str] = None
    warm_start: tuple = ()
    access_log: Optional[str] = None
    register: Optional[str] = None
    advertise: Optional[str] = None
    heartbeat: float = 5.0
    worker_ttl: float = 15.0


@dataclass(frozen=True)
class RemoteConfig:
    """Knobs for the ``remote`` backend's worker pool.

    Membership comes from exactly one of: ``manager`` (a pool-manager
    URL polled for its live ``/workers`` list — health-driven, workers
    join and leave without restarts) or ``workers`` (a static URL
    list).  Dispatch is always streamed: chunked per-worker queues with
    mid-sweep re-packing, so batch latency is max-of-shards.
    """

    workers: tuple = ()
    manager: Optional[str] = None
    timeout: float = 300.0
    max_shard: Optional[int] = None
    health_interval: float = 1.0


@dataclass(frozen=True)
class CacheConfig:
    """Retention bounds for cache-store compaction (``repro cache``).

    ``None`` means *unbounded* along that axis.  ``max_age`` is in
    seconds, measured against the store's newest record timestamp (not
    the wall clock) so compaction stays deterministic.  These are the
    file/env layer behind ``repro cache compact``'s ``--max-entries``
    / ``--max-bytes`` / ``--max-age`` flags.
    """

    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    max_age: Optional[float] = None


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
            engine=_overlay(self.engine, engine or {}, "engine"),
            serve=_overlay(self.serve, serve or {}, "serve"),
            remote=_overlay(self.remote, remote or {}, "remote"),
            cache=_overlay(self.cache, cache or {}, "cache"),
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


# -- field validation -----------------------------------------------------


def _opt(check):
    def inner(name, value):
        return None if value is None else check(name, value)

    return inner


def _str(name, value):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _int(name, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _float(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _bool(name, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean, got {value!r}")
    return value


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


def _choice(*allowed):
    def inner(name, value):
        if value not in allowed:
            raise ConfigError(
                f"{name} must be one of {', '.join(map(repr, allowed))}, "
                f"got {value!r}"
            )
        return value

    return inner


def _paths(name, value):
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a path or list of paths, got {value!r}")
    return tuple(_str(f"{name}[{i}]", p) for i, p in enumerate(value))


_ENGINE_FIELDS = {
    "backend": _opt(_str),
    "solver": _str,
    "epsilon": _opt(_float),
    "mode": _choice("reference", "congest"),
    "seed": _int,
    "budget": _opt(_int),
    "cache": _cache,
}

_SERVE_FIELDS = {
    "host": _str,
    "port": _int,
    "pool_workers": _opt(_int),
    "queue_depth": _opt(_int),
    "retry_after": _float,
    "delay": _float,
    "max_nodes": _opt(_int),
    "max_batch": _opt(_int),
    "max_body_bytes": _opt(_int),
    "max_sessions": _opt(_int),
    "backend": _opt(_str),
    "cache_file": _opt(_str),
    "warm_start": _paths,
    "access_log": _opt(_str),
    "register": _opt(_str),
    "advertise": _opt(_str),
    "heartbeat": _float,
    "worker_ttl": _float,
}

_REMOTE_FIELDS = {
    "workers": _url_list,
    "manager": _opt(_str),
    "timeout": _float,
    "max_shard": _opt(_int),
    "health_interval": _float,
}

_CACHE_FIELDS = {
    "max_entries": _opt(_int),
    "max_bytes": _opt(_int),
    "max_age": _opt(_float),
}

_SECTIONS = {
    "engine": (EngineConfig, _ENGINE_FIELDS),
    "serve": (ServeConfig, _SERVE_FIELDS),
    "remote": (RemoteConfig, _REMOTE_FIELDS),
    "cache": (CacheConfig, _CACHE_FIELDS),
}


def _overlay(section, updates: dict, section_name: str):
    """Apply non-``None`` ``updates`` onto a section dataclass, typed."""
    _, fields = _SECTIONS[section_name]
    cleaned = {}
    for key, value in updates.items():
        if key not in fields:
            raise ConfigError(
                f"unknown config key {section_name}.{key} "
                f"(allowed: {', '.join(sorted(fields))})"
            )
        if value is None:
            continue
        cleaned[key] = fields[key](f"{section_name}.{key}", value)
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
                f"[engine]/[serve]/[remote] sections, got "
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
    config = ReproConfig(source=source).merged(
        engine=sections.get("engine"),
        serve=sections.get("serve"),
        remote=sections.get("remote"),
        cache=sections.get("cache"),
    )
    if env:
        config = config.merged(
            engine={"backend": os.environ.get(_BACKEND_ENV) or None},
            cache={
                "max_entries": _env_number(_CACHE_MAX_ENTRIES_ENV, int),
                "max_bytes": _env_number(_CACHE_MAX_BYTES_ENV, int),
                "max_age": _env_number(_CACHE_MAX_AGE_ENV, float),
            },
        )
    return config


__all__ = [
    "REPRO_CONFIG_ENV",
    "CacheConfig",
    "EngineConfig",
    "RemoteConfig",
    "ReproConfig",
    "ServeConfig",
    "load_config",
]
