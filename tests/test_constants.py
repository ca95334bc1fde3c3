"""Unit conversions, global constants, and the defaults of the settings
that were once ``REPRO_*`` environment variables."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

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
    """Each former ``REPRO_*`` setting keeps one setter, at its old default."""

    def test_defaults_apply_when_unset(self):
        from repro.core import distcache
        from repro.serve.tables import DEFAULT_GRID_SHAPE, default_grid

        assert DEFAULT_GRID_SHAPE == (32, 8)
        assert default_grid().shape == (32, 8)
        assert distcache.MAX_ENTRIES == 64

    def test_serve_vars_parse_and_validate(self):
        import argparse

        from repro.cli import _grid_shape, build_parser
        from repro.errors import ServeError
        from repro.serve import BidService, DecisionCache, default_grid

        args = build_parser().parse_args(["serve", "trace.csv"])
        assert args.port == 7787
        assert args.stale_slots == SLOTS_PER_DAY
        assert inspect.signature(DecisionCache).parameters["capacity"].default == 4096
        stale = inspect.signature(BidService).parameters["stale_after"]
        assert stale.default == SLOTS_PER_DAY

        assert _grid_shape("16x4") == (16, 4)
        for raw in ("16", "1x4", "16x0", "axb"):
            with pytest.raises(argparse.ArgumentTypeError):
                _grid_shape(raw)
        for shape in ((1, 4), (16, 0)):
            with pytest.raises(ServeError, match="grid shape"):
                default_grid(shape=shape)
        with pytest.raises(ServeError, match="capacity"):
            DecisionCache(capacity=0)
        with pytest.raises(ServeError, match="stale_after"):
            BidService(object(), stale_after=0)

    def test_sched_vars_parse_and_validate(self):
        from repro.errors import SweepExecutionError
        from repro.scheduler import run_shards

        params = inspect.signature(run_shards).parameters
        assert params["straggler_factor"].default == 3.0
        assert params["straggler_min_seconds"].default == 1.0
        assert params["max_shard_failures"].default == 3
        assert "heartbeat_seconds" not in params

        for bad in (0, -3):
            with pytest.raises(SweepExecutionError, match="max_shard_failures"):
                run_shards(abs, [1], executor="thread", max_shard_failures=bad)

    def test_check_cache_flag_parses(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["check"]).no_cache is False  # cache on by default
        assert parser.parse_args(["check", "--no-cache"]).no_cache is True


#: The environment variables the package read before every setting
#: became a parameter or flag.
_FORMER_ENV_VARS = (
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
)

#: Makes each formerly env-backed call with its default and with the
#: documented default passed explicitly, and insists they agree.
_INERT = """
import sys
from pathlib import Path

import numpy as np

import repro
from repro.checks.cache import CACHE_DIR_NAME
from repro.checks.cli import main as check_main
from repro.cli import build_parser
from repro.constants import SLOTS_PER_DAY, seconds
from repro.core.distcache import cached_distribution
from repro.core.types import JobSpec
from repro.extensions.portfolio import cvar_bid, portfolio_frontier
from repro.market.price_sources import TracePriceSource
from repro.scheduler import run_shards
from repro.serve import BidService, DecisionCache, MarketState, default_grid
from repro.serve.tables import TableGrid
from repro.traces.history import SpotPriceHistory

root = Path(sys.argv[1])
rng = np.random.default_rng(7)
prices = np.full(600, 0.0315)
spikes = rng.integers(0, prices.size, size=60)
prices[spikes] = rng.uniform(0.05, 0.4, size=spikes.size)
history = SpotPriceHistory(prices=prices, instance_type="r3.xlarge")
job = JobSpec(execution_time=1.0, recovery_time=seconds(30))

assert default_grid() == default_grid(shape=(32, 8))
assert vars(DecisionCache()) == vars(DecisionCache(capacity=4096))
state = MarketState(
    TracePriceSource(history),
    initial_history=history,
    ondemand_price=0.35,
    grid=TableGrid(execution_times=(0.5, 1.0), recovery_times=(0.0,)),
)
cache = DecisionCache()
assert vars(BidService(state, cache=cache)) == vars(
    BidService(state, cache=cache, stale_after=SLOTS_PER_DAY)
)
assert build_parser().parse_args(["serve", "trace.csv"]).port == 7787

payloads = [-1, -2, 3, -4, 5]
implicit = run_shards(abs, payloads, executor="process", max_workers=2)
explicit = run_shards(
    abs,
    payloads,
    executor="process",
    max_workers=2,
    max_shard_failures=3,
    straggler_factor=3.0,
    straggler_min_seconds=1.0,
)
assert implicit.results == explicit.results == [1, 2, 3, 4, 5]
assert implicit.failures == explicit.failures == ()

dist = cached_distribution(history)
implicit = portfolio_frontier(dist, job, ondemand_price=0.35)
explicit = portfolio_frontier(
    dist, job, ondemand_price=0.35, ondemand_fractions=np.linspace(0.0, 1.0, 33)
)
assert implicit.keys() == explicit.keys()
for key in implicit:
    np.testing.assert_array_equal(implicit[key], explicit[key])
assert cvar_bid(history, job, ondemand_price=0.35) == cvar_bid(
    history, job, ondemand_price=0.35, n_windows=16
)

assert check_main(["--root", str(root), str(root / "src")]) == 0
assert (root / CACHE_DIR_NAME).is_dir()
print("ok")
"""


def test_former_env_vars_are_inert(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("X = 1\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.update({name: "bogus" for name in _FORMER_ENV_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _INERT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
