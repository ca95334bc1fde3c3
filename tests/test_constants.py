"""Unit conversions and global constants."""

import math

import pytest

from repro.constants import (
    DEFAULT_SLOT_HOURS,
    HISTORY_WINDOW_DAYS,
    SLOTS_PER_DAY,
    minutes,
    seconds,
)


def test_default_slot_is_five_minutes():
    assert math.isclose(DEFAULT_SLOT_HOURS, 5.0 / 60.0)


def test_slots_per_day_consistent_with_slot_length():
    assert SLOTS_PER_DAY == 288
    assert math.isclose(SLOTS_PER_DAY * DEFAULT_SLOT_HOURS, 24.0)


def test_history_window_matches_amazons_two_months():
    assert HISTORY_WINDOW_DAYS == 60


def test_seconds_converts_to_hours():
    assert math.isclose(seconds(3600), 1.0)
    assert math.isclose(seconds(30), 30.0 / 3600.0)
    assert seconds(0) == 0.0


def test_minutes_converts_to_hours():
    assert math.isclose(minutes(90), 1.5)
    assert minutes(0) == 0.0


@pytest.mark.parametrize("fn", [seconds, minutes])
def test_negative_durations_rejected(fn):
    with pytest.raises(ValueError):
        fn(-1.0)


class TestEnvVarRegistry:
    """The central REPRO_* registry (EnvVar / ENV_VARS / env_var)."""

    def test_defaults_apply_when_unset(self, monkeypatch):
        from repro.constants import DIST_CACHE_SIZE, SWEEP_KERNEL

        monkeypatch.delenv("REPRO_SWEEP_KERNEL", raising=False)
        monkeypatch.delenv("REPRO_DIST_CACHE_SIZE", raising=False)
        assert SWEEP_KERNEL.get() == "event"
        assert DIST_CACHE_SIZE.get() == 64

    def test_empty_and_whitespace_mean_default(self, monkeypatch):
        from repro.constants import SWEEP_KERNEL

        for raw in ("", "   "):
            monkeypatch.setenv("REPRO_SWEEP_KERNEL", raw)
            assert SWEEP_KERNEL.get() == "event"

    def test_values_parse_and_strip(self, monkeypatch):
        from repro.constants import DIST_CACHE_SIZE, SWEEP_KERNEL

        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "  reference ")
        assert SWEEP_KERNEL.get() == "reference"
        monkeypatch.setenv("REPRO_DIST_CACHE_SIZE", "7")
        assert DIST_CACHE_SIZE.get() == 7

    def test_every_kernel_mode_parses(self, monkeypatch):
        from repro.constants import SWEEP_KERNEL, SWEEP_KERNEL_MODES

        assert SWEEP_KERNEL_MODES == ("event", "reference")
        for mode in SWEEP_KERNEL_MODES:
            monkeypatch.setenv("REPRO_SWEEP_KERNEL", mode.upper())
            assert SWEEP_KERNEL.get() == mode

    def test_kernel_mode_error_lists_registry_modes(self, monkeypatch):
        """The rejection message is derived from SWEEP_KERNEL_MODES, so
        adding a mode can never leave the message stale."""
        from repro.constants import (
            SWEEP_KERNEL,
            SWEEP_KERNEL_MODES,
            EnvVarError,
        )

        for bad in ("warp", "compiled"):
            monkeypatch.setenv("REPRO_SWEEP_KERNEL", bad)
            with pytest.raises(EnvVarError) as excinfo:
                SWEEP_KERNEL.get()
            message = str(excinfo.value)
            for mode in SWEEP_KERNEL_MODES:
                assert repr(mode) in message
            assert repr(bad) in message

    def test_invalid_values_raise_envvarerror(self, monkeypatch):
        from repro.constants import (
            DIST_CACHE_SIZE,
            SWEEP_KERNEL,
            EnvVarError,
        )
        from repro.errors import ReproError

        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "bogus")
        with pytest.raises(EnvVarError, match="REPRO_SWEEP_KERNEL"):
            SWEEP_KERNEL.get()
        for raw in ("0", "-3", "many"):
            monkeypatch.setenv("REPRO_DIST_CACHE_SIZE", raw)
            with pytest.raises(EnvVarError, match="REPRO_DIST_CACHE_SIZE"):
                DIST_CACHE_SIZE.get()
        # EnvVarError keeps both legacy contracts alive.
        assert issubclass(EnvVarError, ReproError)
        assert issubclass(EnvVarError, ValueError)

    def test_registry_lookup(self):
        from repro.constants import ENV_VARS, EnvVarError, env_var

        assert set(ENV_VARS) == {
            "REPRO_SWEEP_KERNEL",
            "REPRO_DIST_CACHE_SIZE",
            "REPRO_SERVE_PORT",
            "REPRO_SERVE_TABLE_GRID",
            "REPRO_SERVE_CACHE_SIZE",
            "REPRO_SERVE_STALE_SLOTS",
            "REPRO_SCHED_STRAGGLER_FACTOR",
            "REPRO_SCHED_STRAGGLER_MIN_SECONDS",
            "REPRO_SCHED_HEARTBEAT_SECONDS",
            "REPRO_SCHED_MAX_SHARD_FAILURES",
            "REPRO_PORTFOLIO_GRID",
            "REPRO_CVAR_WINDOWS",
            "REPRO_CHECK_CACHE",
        }
        assert env_var("REPRO_SWEEP_KERNEL") is ENV_VARS["REPRO_SWEEP_KERNEL"]
        with pytest.raises(EnvVarError, match="not a registered"):
            env_var("REPRO_NOPE")

    def test_every_registered_var_has_description(self):
        from repro.constants import ENV_VARS

        for var in ENV_VARS.values():
            assert var.description
            assert var.name.startswith("REPRO_")

    def test_serve_vars_parse_and_validate(self, monkeypatch):
        from repro.constants import (
            SERVE_CACHE_SIZE,
            SERVE_PORT,
            SERVE_STALE_SLOTS,
            SERVE_TABLE_GRID,
            SLOTS_PER_DAY,
            EnvVarError,
        )

        for name in (
            "REPRO_SERVE_PORT",
            "REPRO_SERVE_TABLE_GRID",
            "REPRO_SERVE_CACHE_SIZE",
            "REPRO_SERVE_STALE_SLOTS",
        ):
            monkeypatch.delenv(name, raising=False)
        assert SERVE_PORT.get() == 7787
        assert SERVE_TABLE_GRID.get() == (32, 8)
        assert SERVE_CACHE_SIZE.get() == 4096
        assert SERVE_STALE_SLOTS.get() == SLOTS_PER_DAY

        monkeypatch.setenv("REPRO_SERVE_TABLE_GRID", "16x4")
        assert SERVE_TABLE_GRID.get() == (16, 4)
        for raw in ("16", "1x4", "16x0", "axb"):
            monkeypatch.setenv("REPRO_SERVE_TABLE_GRID", raw)
            with pytest.raises(EnvVarError, match="REPRO_SERVE_TABLE_GRID"):
                SERVE_TABLE_GRID.get()
        for raw in ("-1", "65536", "port"):
            monkeypatch.setenv("REPRO_SERVE_PORT", raw)
            with pytest.raises(EnvVarError, match="REPRO_SERVE_PORT"):
                SERVE_PORT.get()
        monkeypatch.setenv("REPRO_SERVE_STALE_SLOTS", "0")
        with pytest.raises(EnvVarError, match="REPRO_SERVE_STALE_SLOTS"):
            SERVE_STALE_SLOTS.get()

    def test_sched_vars_parse_and_validate(self, monkeypatch):
        from repro.constants import (
            SCHED_HEARTBEAT_SECONDS,
            SCHED_MAX_SHARD_FAILURES,
            SCHED_STRAGGLER_FACTOR,
            SCHED_STRAGGLER_MIN_SECONDS,
            EnvVarError,
        )

        for var in (
            SCHED_STRAGGLER_FACTOR,
            SCHED_STRAGGLER_MIN_SECONDS,
            SCHED_HEARTBEAT_SECONDS,
            SCHED_MAX_SHARD_FAILURES,
        ):
            monkeypatch.delenv(var.name, raising=False)
        assert SCHED_STRAGGLER_FACTOR.get() == 3.0
        assert SCHED_STRAGGLER_MIN_SECONDS.get() == 1.0
        assert SCHED_HEARTBEAT_SECONDS.get() == 0.5
        assert SCHED_MAX_SHARD_FAILURES.get() == 3

        monkeypatch.setenv("REPRO_SCHED_STRAGGLER_FACTOR", "2.5")
        assert SCHED_STRAGGLER_FACTOR.get() == 2.5
        for raw in ("0", "-1.0", "nan", "fast"):
            monkeypatch.setenv("REPRO_SCHED_STRAGGLER_FACTOR", raw)
            with pytest.raises(EnvVarError, match="REPRO_SCHED_STRAGGLER_FACTOR"):
                SCHED_STRAGGLER_FACTOR.get()
        for raw in ("0", "-3", "two"):
            monkeypatch.setenv("REPRO_SCHED_MAX_SHARD_FAILURES", raw)
            with pytest.raises(
                EnvVarError, match="REPRO_SCHED_MAX_SHARD_FAILURES"
            ):
                SCHED_MAX_SHARD_FAILURES.get()

    def test_check_cache_flag_parses(self, monkeypatch):
        from repro.constants import CHECK_CACHE, EnvVarError

        monkeypatch.delenv("REPRO_CHECK_CACHE", raising=False)
        assert CHECK_CACHE.get() is True  # cache on by default

        for raw, expected in (
            ("1", True),
            ("true", True),
            ("ON", True),
            ("yes", True),
            ("0", False),
            ("false", False),
            ("OFF", False),
            ("no", False),
        ):
            monkeypatch.setenv("REPRO_CHECK_CACHE", raw)
            assert CHECK_CACHE.get() is expected

        for raw in ("2", "maybe", "enabled"):
            monkeypatch.setenv("REPRO_CHECK_CACHE", raw)
            with pytest.raises(EnvVarError, match="REPRO_CHECK_CACHE"):
                CHECK_CACHE.get()
