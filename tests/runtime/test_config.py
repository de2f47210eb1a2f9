"""RuntimeConfig: defaults, environment overrides, and precedence.

The documented order (highest wins): explicit per-call args > explicit
config/overrides > ``REPRO_*`` environment > dataclass defaults.
"""

import pytest

from repro.runtime.config import (
    RuntimeConfig,
    env_bool,
    env_float,
    env_int,
    env_str,
)


class TestDefaults:
    def test_field_defaults(self):
        config = RuntimeConfig()
        assert config.fast_paths is True
        assert config.substrate_cache_size == 32
        assert config.wavefront_cache_size == 8
        assert config.fault_spec == ""
        assert config.max_cell_retries == 3

    def test_direct_construction_ignores_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        monkeypatch.setenv("REPRO_WAVEFRONT_CACHE_SIZE", "99")
        config = RuntimeConfig()
        assert config.fast_paths is True
        assert config.wavefront_cache_size == 8

    def test_picklable(self):
        import pickle

        config = RuntimeConfig(fast_paths=False, max_cell_retries=7)
        assert pickle.loads(pickle.dumps(config)) == config


class TestNormalization:
    @pytest.mark.parametrize("value", ["on", "auto", None, 1, 0])
    def test_non_bool_fast_paths_rejected(self, value):
        with pytest.raises(ValueError, match="fast_paths"):
            RuntimeConfig(fast_paths=value)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="fast_paths"):
            RuntimeConfig(fast_paths="sometimes")

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError, match="wavefront_cache_size"):
            RuntimeConfig(wavefront_cache_size=-1)
        with pytest.raises(ValueError, match="max_cell_retries"):
            RuntimeConfig(max_cell_retries=-2)


class TestFromEnv:
    def test_environment_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        monkeypatch.setenv("REPRO_SUBSTRATE_CACHE_SIZE", "5")
        monkeypatch.setenv("REPRO_WAVEFRONT_CACHE_SIZE", "3")
        monkeypatch.setenv("REPRO_FAULTS", "seed=1;engine.cell:crash=0.5,max=1")
        monkeypatch.setenv("REPRO_MAX_CELL_RETRIES", "9")
        config = RuntimeConfig.from_env()
        assert config.fast_paths is False
        assert config.substrate_cache_size == 5
        assert config.wavefront_cache_size == 3
        assert config.fault_spec == "seed=1;engine.cell:crash=0.5,max=1"
        assert config.max_cell_retries == 9

    @pytest.mark.parametrize(
        "raw,enabled",
        [
            ("0", False), ("off", False), ("false", False), ("no", False),
            ("", False), ("OFF", False),
            ("1", True), ("on", True), ("force", True), ("yes", True),
            ("auto", True),
        ],
        ids=lambda value: ("on" if value else "off") if isinstance(value, bool) else value,
    )
    def test_fast_path_mode_parsing(self, monkeypatch, raw, enabled):
        """``REPRO_FAST_PATHS`` is read like every other ``env_bool``: the
        empty string is off too, and the retired ``auto``/``force`` values
        read as on."""
        monkeypatch.setenv("REPRO_FAST_PATHS", raw)
        assert RuntimeConfig.from_env().fast_paths is enabled

    def test_explicit_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        monkeypatch.setenv("REPRO_MAX_CELL_RETRIES", "42")
        config = RuntimeConfig.from_env(fast_paths=True, max_cell_retries=7)
        assert config.fast_paths is True
        assert config.max_cell_retries == 7

    def test_none_override_falls_through_to_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_CELL_RETRIES", "42")
        assert RuntimeConfig.from_env(max_cell_retries=None).max_cell_retries == 42

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError, match="wavefronts"):
            RuntimeConfig.from_env(wavefronts=2)

    def test_no_global_kernel_size_knob(self, monkeypatch):
        """The kernel decision has no size rule: no config field and no
        environment variable sets one."""
        monkeypatch.setenv("REPRO_FAST_PATHS_MIN_SIZE", "128")
        assert RuntimeConfig.from_env() == RuntimeConfig()
        with pytest.raises(TypeError, match="fast_paths_min_size"):
            RuntimeConfig.from_env(fast_paths_min_size=128)

    def test_service_knobs_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "4")
        config = RuntimeConfig.from_env()
        assert config.service_workers == 4

    def test_service_knob_defaults(self):
        config = RuntimeConfig()
        assert config.service_workers == 1

    def test_service_knob_validation(self):
        with pytest.raises(ValueError, match="service_workers"):
            RuntimeConfig(service_workers=0)
        # The service speaks binary frames only: there is no wire knob.
        with pytest.raises(TypeError, match="service_wire"):
            RuntimeConfig.from_env(service_wire="binary")

    def test_defaults_without_environment(self, monkeypatch):
        for name in (
            "REPRO_FAST_PATHS", "REPRO_SUBSTRATE_CACHE_SIZE",
            "REPRO_WAVEFRONT_CACHE_SIZE",
            "REPRO_FAULTS", "REPRO_MAX_CELL_RETRIES",
        ):
            monkeypatch.delenv(name, raising=False)
        assert RuntimeConfig.from_env() == RuntimeConfig()


class TestWithOverrides:
    def test_applies_changes_and_keeps_rest(self):
        base = RuntimeConfig(max_cell_retries=1)
        derived = base.with_overrides(wavefront_cache_size=2)
        assert derived.wavefront_cache_size == 2
        assert derived.max_cell_retries == 1
        assert base.wavefront_cache_size == 8  # frozen original untouched

    def test_none_values_are_skipped(self):
        base = RuntimeConfig(max_cell_retries=5)
        assert base.with_overrides(max_cell_retries=None) is base


class TestEnvHelpers:
    def test_env_str(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_X", "abc")
        assert env_str("REPRO_TEST_X", "d") == "abc"
        monkeypatch.delenv("REPRO_TEST_X")
        assert env_str("REPRO_TEST_X", "d") == "d"

    def test_env_int_blank_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_X", "  ")
        assert env_int("REPRO_TEST_X", 3) == 3
        monkeypatch.setenv("REPRO_TEST_X", "17")
        assert env_int("REPRO_TEST_X", 3) == 17

    def test_env_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_X", "0.25")
        assert env_float("REPRO_TEST_X", 1.0) == 0.25

    def test_env_bool(self, monkeypatch):
        for falsy in ("0", "false", "NO", "off", ""):
            monkeypatch.setenv("REPRO_TEST_X", falsy)
            assert env_bool("REPRO_TEST_X", True) is False
        monkeypatch.setenv("REPRO_TEST_X", "1")
        assert env_bool("REPRO_TEST_X", False) is True
        monkeypatch.delenv("REPRO_TEST_X")
        assert env_bool("REPRO_TEST_X", True) is True
