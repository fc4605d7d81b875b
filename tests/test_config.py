"""The config schema: typed sections, file loading, precedence.

One rule everywhere — explicit argument > CLI flag > env > config file
> default — exercised end to end: TOML and JSON files, the env overlay,
``ReproConfig.merged`` (the flag layer), ``Engine.from_config`` /
``repro serve`` consumption, and the strictness guarantees (unknown
sections/keys and wrong types are a ``ConfigError``, never a silent
ignore).
"""

import json

import pytest

from repro.api import Engine
from repro.config import (
    REPRO_CONFIG_ENV,
    CacheConfig,
    EngineConfig,
    RemoteConfig,
    ReproConfig,
    ServeConfig,
    load_config,
)
from repro.errors import ConfigError
from repro.exec import ResultCache
from repro.exec.remote import RemoteExecutor


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Config tests must not inherit the invoking shell's knobs."""
    for var in (
        REPRO_CONFIG_ENV,
        "REPRO_BACKEND",
        "REPRO_CACHE_MAX_ENTRIES",
        "REPRO_CACHE_MAX_BYTES",
        "REPRO_CACHE_MAX_AGE",
    ):
        monkeypatch.delenv(var, raising=False)


TOML_TEXT = """
[engine]
backend = "process"
solver = "stoer_wagner"
seed = 7
cache = "warm.json"

[serve]
port = 9100
queue_depth = 5
delay = 0.25
warm_start = ["a.json", "b.json"]

[remote]
workers = ["http://w1:8101/", "http://w2:8102"]
max_shard = 3

[cache]
max_entries = 5000
max_age = 86400.0
"""


def write_toml(tmp_path, text=TOML_TEXT):
    path = tmp_path / "repro.toml"
    path.write_text(text)
    return path


class TestDefaults:
    def test_defaults_without_file_or_env(self):
        config = load_config()
        assert config == ReproConfig()
        assert config.source is None
        assert config.engine.solver == "auto"
        assert config.serve.port == 8000
        assert config.serve.queue_depth == 32

    def test_to_dict_is_jsonable(self):
        payload = load_config().to_dict()
        assert set(payload) == {"engine", "serve", "remote", "cache", "source"}
        json.dumps(payload)  # must not raise


class TestFileLoading:
    def test_toml_sections(self, tmp_path):
        config = load_config(write_toml(tmp_path))
        assert config.source == str(tmp_path / "repro.toml")
        assert config.engine.backend == "process"
        assert config.engine.seed == 7
        assert config.engine.cache == "warm.json"
        assert config.serve.port == 9100
        assert config.serve.queue_depth == 5
        assert config.serve.delay == 0.25
        assert config.serve.warm_start == ("a.json", "b.json")
        # URL normalisation strips trailing slashes
        assert config.remote.workers == ("http://w1:8101", "http://w2:8102")
        assert config.remote.max_shard == 3
        assert config.cache.max_entries == 5000
        assert config.cache.max_age == 86400.0
        assert config.cache.max_bytes is None  # unbounded default

    def test_json_equivalent(self, tmp_path):
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({
            "engine": {"backend": "process", "budget": 1000},
            "remote": {"manager": "http://mgr:8100"},
        }))
        config = load_config(path)
        assert config.engine.backend == "process"
        assert config.engine.budget == 1000
        assert config.remote.manager == "http://mgr:8100"
        # untouched sections keep their defaults
        assert config.serve == ServeConfig()

    def test_env_var_names_the_file(self, tmp_path, monkeypatch):
        path = write_toml(tmp_path)
        monkeypatch.setenv(REPRO_CONFIG_ENV, str(path))
        assert load_config().engine.backend == "process"
        # explicit path=None + env=False ignores $REPRO_CONFIG
        assert load_config(env=False).engine.backend is None

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "absent.toml")

    def test_malformed_toml_and_json(self, tmp_path):
        bad_toml = tmp_path / "bad.toml"
        bad_toml.write_text("[engine\nbackend=")
        with pytest.raises(ConfigError, match="not valid TOML"):
            load_config(bad_toml)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(bad_json)


class TestStrictness:
    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"engin": {"backend": "serial"}}))
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected_with_allowed_list(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"serve": {"prot": 8000}}))
        with pytest.raises(ConfigError, match=r"serve\.prot.*allowed"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, body, match",
        [
            ("engine", {"seed": "zero"}, "engine.seed must be an integer"),
            ("engine", {"seed": True}, "engine.seed must be an integer"),
            ("engine", {"mode": "fast"}, "engine.mode must be one of"),
            ("serve", {"retry_after": "soon"}, "serve.retry_after must be a number"),
            ("remote", {"workers": 8101}, "remote.workers must be a list"),
            ("cache", {"max_entries": "many"}, "cache.max_entries must be an integer"),
            ("cache", {"max_age": "soon"}, "cache.max_age must be a number"),
        ],
    )
    def test_wrong_types_rejected(self, tmp_path, section, body, match):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({section: body}))
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("serve", "server", "threading"),
            ("remote", "dispatch", "block"),
            ("engine", "cost_profile", "profile.json"),
            ("serve", "cost_profile", "profile.json"),
            ("remote", "plan", "stripe"),
        ],
    )
    def test_retired_keys_are_unknown(self, tmp_path, section, key, value):
        # The threading transport, block dispatch, the fitted cost
        # profile and the shard-plan knob are gone; files that still
        # name them get the ordinary unknown-key error.
        path = tmp_path / "c.toml"
        path.write_text(f'[{section}]\n{key} = "{value}"\n')
        with pytest.raises(ConfigError, match=rf"unknown config key {section}\.{key}"):
            load_config(path)

    def test_cache_accepts_bool_and_path_only(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"engine": {"cache": 5}}))
        with pytest.raises(ConfigError, match="engine.cache"):
            load_config(path)


class TestPrecedence:
    def test_cost_profile_variable_is_ignored(self, tmp_path, monkeypatch):
        # The registry cost models are the only cost model: no variable
        # loads a profile, so even a path to a missing file is inert.
        monkeypatch.setenv("REPRO_COST_PROFILE", str(tmp_path / "absent.json"))
        engine = Engine()
        assert not hasattr(engine, "cost_profile")
        assert not hasattr(load_config().engine, "cost_profile")

    def test_env_beats_file(self, tmp_path, monkeypatch):
        path = write_toml(tmp_path)
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert load_config(path).engine.backend == "serial"

    def test_flag_layer_beats_env_and_file(self, tmp_path, monkeypatch):
        path = write_toml(tmp_path)
        monkeypatch.setenv("REPRO_BACKEND", "remote")
        config = load_config(path).merged(engine={"backend": "serial"})
        assert config.engine.backend == "serial"

    def test_merged_skips_none(self, tmp_path):
        config = load_config(write_toml(tmp_path))
        merged = config.merged(serve={"port": None, "queue_depth": 9})
        assert merged.serve.port == 9100       # None = flag not given
        assert merged.serve.queue_depth == 9   # flag given: wins
        assert merged.serve.delay == 0.25      # untouched keys survive

    def test_merged_validates_flag_values(self):
        with pytest.raises(ConfigError, match="serve.port must be an integer"):
            load_config().merged(serve={"port": "eight"})

    def test_cache_env_beats_file_and_flags_beat_env(self, tmp_path,
                                                     monkeypatch):
        path = write_toml(tmp_path)  # [cache] max_entries = 5000
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1000")
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        config = load_config(path)
        assert config.cache.max_entries == 1000   # env beat the file
        assert config.cache.max_bytes == 4096     # env beat the default
        assert config.cache.max_age == 86400.0    # file beat the default
        merged = config.merged(cache={"max_entries": 10})
        assert merged.cache.max_entries == 10     # flag beat the env

    def test_cache_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "many")
        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_ENTRIES"):
            load_config()

    def test_workers_accept_comma_separated_string(self):
        config = load_config().merged(
            remote={"workers": "http://a:1, http://b:2/"}
        )
        assert config.remote.workers == ("http://a:1", "http://b:2")

    def test_round_trip_file_env_flag(self, tmp_path, monkeypatch):
        """The full chain: default < file < env < flag, one knob each."""
        path = write_toml(tmp_path)
        monkeypatch.setenv(REPRO_CONFIG_ENV, str(path))
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        config = load_config().merged(engine={"solver": "exact"})
        assert config.engine.backend == "serial"    # env beat file's "process"
        assert config.engine.solver == "exact"      # flag beat file's solver
        assert config.engine.seed == 7              # file beat default 0
        assert config.engine.mode == "reference"    # schema default


class TestEngineFromConfig:
    def test_defaults_build_a_plain_engine(self):
        engine = Engine.from_config()
        assert engine.backend is None
        assert engine.cache is None
        assert engine.solver == "auto"

    def test_file_path_accepted_directly(self, tmp_path):
        config_path = tmp_path / "c.json"
        cache_path = tmp_path / "cache.json"
        config_path.write_text(json.dumps({
            "engine": {"backend": "process", "seed": 3,
                       "cache": str(cache_path)},
        }))
        engine = Engine.from_config(config_path)
        assert engine.backend == "process"
        assert engine.seed == 3
        assert isinstance(engine.cache, ResultCache)

    def test_cache_true_means_in_memory(self):
        config = ReproConfig(engine=EngineConfig(cache=True))
        engine = Engine.from_config(config)
        assert isinstance(engine.cache, ResultCache)
        assert engine.cache.path is None

    def test_remote_section_attaches_executor(self):
        config = ReproConfig(
            engine=EngineConfig(backend="remote"),
            remote=RemoteConfig(
                workers=("http://w1:8101",), max_shard=2
            ),
        )
        engine = Engine.from_config(config)
        assert isinstance(engine.backend, RemoteExecutor)
        assert engine.backend.workers == ["http://w1:8101"]
        assert engine.backend.max_shard == 2

    def test_remote_backend_without_workers_stays_a_name(self):
        config = ReproConfig(engine=EngineConfig(backend="remote"))
        engine = Engine.from_config(config)
        assert engine.backend == "remote"  # resolved at solve time


class TestRemoteExecutorFromConfig:
    def test_static_workers(self):
        executor = RemoteExecutor.from_config(
            RemoteConfig(workers=("http://w1:8101",), timeout=9.0)
        )
        assert executor.workers == ["http://w1:8101"]
        assert executor.timeout == 9.0
        assert executor.pool is None

    def test_manager_becomes_a_started_pool(self):
        executor = RemoteExecutor.from_config(
            RemoteConfig(manager="http://mgr:8100", health_interval=0.5)
        )
        try:
            assert executor.workers is None
            assert executor.pool is not None
            assert executor.pool.manager == "http://mgr:8100"
            assert executor.pool.interval == 0.5
        finally:
            executor.pool.stop()


class TestConfigCli:
    def test_config_show_reports_effective_values(self, tmp_path, capsys):
        from repro.cli import main

        path = write_toml(tmp_path)
        assert main(["--config", str(path), "config", "show"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"]["backend"] == "process"
        assert payload["serve"]["queue_depth"] == 5
        assert payload["remote"]["workers"] == [
            "http://w1:8101", "http://w2:8102",
        ]
        assert payload["source"] == str(path)

    def test_bad_config_file_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.toml"
        path.write_text("[serve]\nqueue_depth = 'many'")
        assert main(["--config", str(path), "config", "show"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_flag_beats_config_file(self, tmp_path, monkeypatch):
        """`repro serve --port` wins over the file's [serve] port."""
        from repro import cli

        path = write_toml(
            tmp_path,
            "[serve]\nport = 9100\nqueue_depth = 5\ndelay = 0.25\n",
        )
        captured = {}

        def fake_create_server(config, **kwargs):
            captured["port"] = config.port
            captured["config"] = config
            raise KeyboardInterrupt  # unwind _cmd_serve before serving

        monkeypatch.setattr(
            "repro.service.create_server", fake_create_server
        )
        with pytest.raises(KeyboardInterrupt):
            cli.main(["--config", str(path), "serve", "--port", "9999"])
        assert captured["port"] == 9999          # flag beat the file's 9100
        assert captured["config"].queue_depth == 5   # file beat default 32
        assert captured["config"].delay == 0.25


def _fail_create_server(*_args, **_kwargs):
    raise AssertionError("a rejected config must not reach create_server")


class TestServeRangeChecks:
    @pytest.mark.parametrize(
        "key, value",
        [("pool_workers", 0), ("port", -5), ("port", 70000), ("queue_depth", -3)],
    )
    def test_file_and_flag_are_clean_errors(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        from repro.cli import main

        monkeypatch.setattr("repro.service.create_server", _fail_create_server)
        path = tmp_path / "serve.toml"
        path.write_text(f"[serve]\n{key} = {value}\n")
        assert main(["--config", str(path), "serve"]) == 2
        assert f"error: serve.{key} must be" in capsys.readouterr().err
        flag = "--" + key.replace("_", "-")
        assert main(["serve", flag, str(value)]) == 2
        assert f"error: serve.{key} must be" in capsys.readouterr().err

    def test_queue_depth_zero_means_no_gate(self):
        from repro.errors import ServiceError
        from repro.service import ReproService

        gated = ReproService(config=ServeConfig(queue_depth=1))
        with gated._admit():
            with pytest.raises(ServiceError) as excinfo:
                with gated._admit():
                    pass
        assert excinfo.value.status == 429
        open_gate = ReproService(config=ServeConfig(queue_depth=0))
        with open_gate._admit(), open_gate._admit(), open_gate._admit():
            pass
        assert open_gate.counters["throttled"] == 0
        with pytest.raises(ConfigError, match="serve.queue_depth must be >= 0"):
            ServeConfig(queue_depth=-3)

    def test_generated_flags_reach_the_server_config(self, monkeypatch):
        from repro import cli

        captured = {}

        def fake_create_server(config, **_kwargs):
            captured["config"] = config
            raise KeyboardInterrupt  # unwind _cmd_serve before serving

        monkeypatch.setattr("repro.service.create_server", fake_create_server)
        with pytest.raises(KeyboardInterrupt):
            cli.main([
                "serve", "--queue-depth", "0", "--max-sessions", "3",
                "--max-body-bytes", "1024", "--warm-start", "a",
                "--warm-start", "b",
            ])
        config = captured["config"]
        assert config.queue_depth == 0
        assert config.max_sessions == 3
        assert config.max_body_bytes == 1024
        assert config.warm_start == ("a", "b")


class TestOneSchema:
    """Flags, config keys and wire knobs are one set of names, one set of rules."""

    @pytest.mark.parametrize(
        "knob, value",
        [("epsilon", float("nan")),
         pytest.param("epsilon", 10**400, id="epsilon-int-overflow"), ("budget", -5),
         ("mode", "fast"), ("seed", "1")],
    )
    def test_bad_knob_is_rejected_by_config_and_every_request(
        self, tmp_path, knob, value
    ):
        from repro.errors import ServiceError
        from repro.service import parse_mutate_request, parse_solve_request

        path = tmp_path / "c.json"
        path.write_text(json.dumps({"engine": {knob: value}}))
        with pytest.raises(ConfigError, match=rf"engine\.{knob}"):
            load_config(path)
        with pytest.raises(ServiceError, match=f"'{knob}'"):
            parse_solve_request({"graph": [[0, 1]], knob: value})
        with pytest.raises(ServiceError, match=f"'{knob}'"):
            parse_mutate_request({"open": {"graph": [[0, 1]], knob: value}})

    @staticmethod
    def _subparser(parser, *path):
        import argparse

        for name in path:
            action = next(
                a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)
            )
            parser = action.choices[name]
        return parser

    def test_flag_config_and_wire_names_match(self):
        import dataclasses

        from repro.cli import build_parser
        from repro.config import CacheConfig
        from repro.service import protocol

        def names(section):
            return {spec.name for spec in dataclasses.fields(section)}

        parser = build_parser()
        serve = self._subparser(parser, "serve")
        assert {a.dest for a in serve._actions if a.dest != "help"} == names(ServeConfig)
        compact = self._subparser(parser, "cache", "compact")
        max_flags = {
            a.dest for a in compact._actions
            if a.option_strings and a.option_strings[0].startswith("--max-")
        }
        assert max_flags == names(CacheConfig)
        # Every request knob is an [engine] field, checked by that field.
        knobs = set(protocol._KNOBS)
        assert knobs <= names(EngineConfig)
        assert set(protocol._SOLVE_FIELDS) - {"graph", "options"} == knobs
        assert knobs <= set(protocol._BATCH_FIELDS)
        assert set(protocol._OPEN_FIELDS) - {"graph"} <= knobs
        for spec in dataclasses.fields(EngineConfig):
            if spec.name in knobs:
                assert protocol._KNOB_SPECS[spec.name] == (
                    spec.metadata["check"], spec.default
                )


_NAN, _INF = float("nan"), float("inf")

#: (TOML literal, Python value, flag text) — every one out of range for
#: a finite, non-negative float field.
_BAD_FLOATS = [("nan", _NAN, "nan"), ("inf", _INF, "inf"), ("-inf", -_INF, "-inf"),
               ("-1.5", -1.5, "-1.5")]
#: The same for a non-negative int field.  NaN and inf are floats, so a
#: flag's ``type=int`` refuses them first (argparse's own exit 2).
_BAD_INTS = [("nan", _NAN, None), ("inf", _INF, None), ("-1", -1, "-1")]


class TestFiniteNonNegative:
    """NaN, inf and negatives are ``error: <section>.<field>`` (exit 2)
    from a file and from a flag, and a ``ConfigError`` from a keyword."""

    SECTIONS = {
        "serve": ServeConfig, "remote": RemoteConfig, "cache": CacheConfig,
    }

    @staticmethod
    def _store(tmp_path):
        from repro.store import SegmentStore

        SegmentStore(tmp_path / "st").append([("d0", {"value": 1.0})])
        return str(tmp_path / "st")

    def _argv(self, tmp_path, section):
        """The command that reads ``section``."""
        return {
            "serve": ["serve"],
            "remote": ["config", "show"],
            "cache": ["cache", "compact", self._store(tmp_path)],
        }[section]

    def _check(self, tmp_path, capsys, monkeypatch, section, key, bad):
        from repro.cli import main

        monkeypatch.setattr("repro.service.create_server", _fail_create_server)
        argv = self._argv(tmp_path, section)
        path = tmp_path / "bad.toml"
        for literal, value, flag_text in bad:
            with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be"):
                self.SECTIONS[section](**{key: value})
            path.write_text(f"[{section}]\n{key} = {literal}\n")
            assert main(["--config", str(path), *argv]) == 2, literal
            assert f"error: {section}.{key} must be" in capsys.readouterr().err
            if section == "remote":
                continue  # [remote] has no flags
            flag = "--" + key.replace("_", "-")
            if flag_text is None:
                with pytest.raises(SystemExit) as excinfo:
                    main([*argv, flag, literal])
                assert excinfo.value.code == 2
                assert "invalid int value" in capsys.readouterr().err
                continue
            assert main([*argv, f"{flag}={flag_text}"]) == 2, flag_text
            assert f"error: {section}.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["retry_after", "delay", "heartbeat", "worker_ttl"]
    )
    def test_serve_floats(self, tmp_path, capsys, monkeypatch, key):
        self._check(tmp_path, capsys, monkeypatch, "serve", key, _BAD_FLOATS)

    @pytest.mark.parametrize(
        "key", ["max_nodes", "max_batch", "max_body_bytes", "max_sessions"]
    )
    def test_serve_limits(self, tmp_path, capsys, monkeypatch, key):
        self._check(tmp_path, capsys, monkeypatch, "serve", key, _BAD_INTS)
        assert getattr(ServeConfig(**{key: 0}), key) == 0

    @pytest.mark.parametrize("key", ["timeout", "health_interval"])
    def test_remote_floats(self, tmp_path, capsys, monkeypatch, key):
        self._check(tmp_path, capsys, monkeypatch, "remote", key, _BAD_FLOATS)

    def test_remote_max_shard_is_at_least_one(self, tmp_path, capsys, monkeypatch):
        bad = [("0", 0, None), *_BAD_INTS]
        self._check(tmp_path, capsys, monkeypatch, "remote", "max_shard", bad)
        assert RemoteConfig(max_shard=1).max_shard == 1

    @pytest.mark.parametrize("key", ["max_entries", "max_bytes", "max_age"])
    def test_cache(self, tmp_path, capsys, monkeypatch, key):
        bad = _BAD_FLOATS if key == "max_age" else _BAD_INTS
        self._check(tmp_path, capsys, monkeypatch, "cache", key, bad)

    def test_nan_retry_after_in_serve_section(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setattr("repro.service.create_server", _fail_create_server)
        path = tmp_path / "bad.toml"
        path.write_text("[serve]\nretry_after = nan\n")
        assert main(["--config", str(path), "serve"]) == 2
        assert "error: serve.retry_after must be a finite number" in (
            capsys.readouterr().err
        )
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE", "nan")
        with pytest.raises(ConfigError, match=r"cache\.max_age"):
            load_config(None)


class TestSweepPrecedence:
    """``sweep``'s solver knobs follow flag > file > default too."""

    def _solvers(self, capsys, argv):
        from repro.cli import main

        assert main(argv) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        return {row[3] for row in rows if len(row) == 7 and row[0].isdigit()}

    def test_engine_section_reaches_sweep(self, tmp_path, capsys):
        path = tmp_path / "c.toml"
        path.write_text('[engine]\nsolver = "stoer_wagner"\n')
        sweep = ["sweep", "--n", "20", "--count", "2"]
        assert self._solvers(capsys, sweep) == {"exact"}
        assert self._solvers(capsys, ["--config", str(path), *sweep]) == {
            "stoer_wagner"
        }
        assert self._solvers(
            capsys, ["--config", str(path), *sweep, "--solver", "exact"]
        ) == {"exact"}
        path.write_text("[engine]\nepsilon = 0.5\n")
        assert self._solvers(capsys, ["--config", str(path), *sweep]) == {"approx"}

    def test_engine_section_reaches_sweep_stream(self, tmp_path, capsys):
        from repro.cli import main

        ops = tmp_path / "ops.txt"
        ops.write_text("solve\n")
        path = tmp_path / "c.toml"
        path.write_text('[engine]\nsolver = "stoer_wagner"\n')
        argv = ["sweep", "--stream", str(ops), "--family", "cycle", "--n", "8"]
        assert main(["--config", str(path), *argv]) == 0
        assert "solver:stoer_wagner" in capsys.readouterr().out
        assert main(["--config", str(path), *argv, "--solver", "exact"]) == 0
        assert "solver:exact" in capsys.readouterr().out
