"""CSV round-trip for spot-price traces.

The file layout mirrors what tooling around Amazon's
``describe-spot-price-history`` API produced: one row per slot with the
slot index, the absolute timestamp in hours, and the price.  Metadata
(slot length, instance type) travels in ``#``-prefixed header comments so
a trace file is self-describing.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from typing import Union

import numpy as np

from ..constants import DEFAULT_SLOT_HOURS
from ..errors import TraceError
from .history import SpotPriceHistory

__all__ = ["write_csv", "read_csv", "dumps_csv", "loads_csv"]

_HEADER = ("slot", "time_hours", "price")

#: How far a row's timestamp may sit off the slot grid, in hours:
#: :func:`dumps_csv` writes timestamps to 6 decimals.
_GRID_ATOL_HOURS = 1e-5


def dumps_csv(history: SpotPriceHistory) -> str:
    """Serialize a trace to CSV text."""
    buf = io.StringIO()
    buf.write(f"# instance_type={history.instance_type or ''}\n")
    buf.write(f"# slot_length_hours={history.slot_length!r}\n")
    buf.write(f"# start_hour={history.start_hour!r}\n")
    writer = csv.writer(buf)
    writer.writerow(_HEADER)
    times = history.timestamps()
    for i, (t, p) in enumerate(zip(times, history.prices)):
        writer.writerow((i, f"{t:.6f}", f"{p:.10g}"))
    return buf.getvalue()


def write_csv(history: SpotPriceHistory, path: Union[str, os.PathLike]) -> None:
    """Write a trace to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(dumps_csv(history))


def loads_csv(text: str, *, repair: bool = False) -> SpotPriceHistory:
    """Parse CSV text produced by :func:`dumps_csv`.

    Malformed data raises :class:`~repro.errors.TraceError` naming the
    offending 0-based data-row index: out-of-order timestamps and
    negative prices are the classic corruptions of scraped price feeds.
    With ``repair=True`` the rows are instead sorted by timestamp and
    negative prices clipped to zero, with a :class:`UserWarning`
    describing what was fixed.

    The rows must then cover consecutive slots: the first timestamp must
    be ``start_hour`` and each later one a ``slot_length_hours`` step
    after the previous row.  A missing or extra row raises
    :class:`~repro.errors.TraceError` naming the first row off the slot
    grid, with or without ``repair`` — repair does not fill gaps, since
    any price it made up would be a guess.
    """
    instance_type = None
    slot_length = DEFAULT_SLOT_HOURS
    start_hour = 0.0
    data_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "=" not in body:
                continue
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "instance_type":
                instance_type = value or None
            elif key == "slot_length_hours":
                slot_length = float(value)
            elif key == "start_hour":
                start_hour = float(value)
            continue
        data_lines.append(stripped)
    if not data_lines:
        raise TraceError("trace file contains no data rows")

    reader = csv.reader(io.StringIO("\n".join(data_lines)))
    header = next(reader)
    if tuple(h.strip() for h in header) != _HEADER:
        raise TraceError(
            f"unexpected CSV header {header!r}; expected {list(_HEADER)!r}"
        )
    prices = []
    times = []
    for index, row in enumerate(reader):
        if not row:
            continue
        if len(row) != 3:
            raise TraceError(
                f"malformed data row {index} ({row!r}): expected 3 columns"
            )
        try:
            time_hours = float(row[1])
        except ValueError as exc:
            raise TraceError(
                f"non-numeric timestamp in data row {index} ({row!r})"
            ) from exc
        try:
            price = float(row[2])
        except ValueError as exc:
            raise TraceError(
                f"non-numeric price in data row {index} ({row!r})"
            ) from exc
        if not math.isfinite(price):
            raise TraceError(f"non-finite price {price!r} in data row {index}")
        times.append(time_hours)
        prices.append(price)
    if not prices:
        raise TraceError("trace file contains a header but no prices")

    n_unsorted = sum(
        1 for i in range(1, len(times)) if times[i] <= times[i - 1]
    )
    n_negative = sum(1 for p in prices if p < 0)
    if repair:
        if n_unsorted or n_negative:
            order = np.argsort(times, kind="stable")
            times = [times[i] for i in order]
            prices = [max(0.0, prices[i]) for i in order]
            warnings.warn(
                f"repaired trace: sorted {n_unsorted} out-of-order row(s), "
                f"clipped {n_negative} negative price(s) to zero",
                UserWarning,
                stacklevel=2,
            )
    else:
        for i in range(1, len(times)):
            if times[i] <= times[i - 1]:
                raise TraceError(
                    f"timestamps not increasing at data row {i} "
                    f"({times[i]!r} after {times[i - 1]!r}); "
                    f"pass repair=True to sort"
                )
        for i, price in enumerate(prices):
            if price < 0:
                raise TraceError(
                    f"negative price {price!r} in data row {i}; "
                    f"pass repair=True to clip"
                )
    # A missing row would otherwise shift every later price one slot
    # earlier in time.  Written as "not within", so NaN fails too.
    if not abs(times[0] - start_hour) <= _GRID_ATOL_HOURS:
        raise TraceError(
            f"data row 0 is at {times[0]:.6f} h, not at start_hour "
            f"{start_hour:.6f} h; rows must cover consecutive slots"
        )
    steps = np.diff(times)
    (off_grid,) = np.nonzero(~(np.abs(steps - slot_length) <= _GRID_ATOL_HOURS))
    if off_grid.size:
        i = int(off_grid[0]) + 1
        raise TraceError(
            f"data row {i} is {steps[i - 1]:.6f} h after the previous row, "
            f"not one slot ({slot_length:.6f} h); rows must cover "
            f"consecutive slots"
        )
    return SpotPriceHistory(
        prices=prices,
        slot_length=slot_length,
        start_hour=start_hour,
        instance_type=instance_type,
    )


def read_csv(
    path: Union[str, os.PathLike], *, repair: bool = False
) -> SpotPriceHistory:
    """Read a trace previously written by :func:`write_csv`."""
    with open(path, "r") as fh:
        return loads_csv(fh.read(), repair=repair)
