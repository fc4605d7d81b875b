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

        def fake_create_server(host, port, **kwargs):
            captured["host"] = host
            captured["port"] = port
            captured["config"] = kwargs["config"]
            raise KeyboardInterrupt  # unwind _cmd_serve before serving

        monkeypatch.setattr(
            "repro.service.create_server", fake_create_server
        )
        with pytest.raises(KeyboardInterrupt):
            cli.main(["--config", str(path), "serve", "--port", "9999"])
        assert captured["port"] == 9999          # flag beat the file's 9100
        assert captured["config"].queue_depth == 5   # file beat default 32
        assert captured["config"].delay == 0.25
