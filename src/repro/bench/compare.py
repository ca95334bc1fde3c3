"""Benchmark regression gating.

Compares a fresh ``repro.bench/1`` report against a committed baseline.
The gated metric is the *speedup* of each event kernel over its
reference lane, the scalar oracle — a machine-relative ratio, so a slower CI box doesn't
fail the gate while a real kernel regression does.  A case regresses
when its speedup drops more than ``tolerance`` (default 20%) below the
baseline's, or when its outputs stopped being bitwise identical (always
fatal, no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["DEFAULT_TOLERANCE", "Regression", "compare_reports"]

DEFAULT_TOLERANCE = 0.2


@dataclass(frozen=True)
class Regression:
    """One case that fails the gate."""

    case: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.case}: {self.reason}"


def _cases_by_name(report: Dict[str, object]) -> Dict[str, dict]:
    schema = report.get("schema")
    if schema != "repro.bench/1":
        raise ValueError(f"unsupported benchmark schema {schema!r}")
    return {row["name"]: row for row in report.get("cases", [])}


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Regression]:
    """Regressions of ``current`` against ``baseline`` (empty = pass).

    Only cases present in both reports are compared, so adding or
    retiring cases never trips the gate by itself.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    current_cases = _cases_by_name(current)
    baseline_cases = _cases_by_name(baseline)
    regressions: List[Regression] = []
    for name, row in current_cases.items():
        if not row.get("bitwise_equal", False):
            regressions.append(
                Regression(name, "event kernel output diverged from reference")
            )
            continue
        base = baseline_cases.get(name)
        if base is None:
            continue
        floor = float(base["speedup"]) * (1.0 - tolerance)
        if float(row["speedup"]) < floor:
            regressions.append(
                Regression(
                    name,
                    f"speedup {row['speedup']:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base['speedup']:.2f}x "
                    f"- {tolerance:.0%} tolerance)",
                )
            )
    return regressions
