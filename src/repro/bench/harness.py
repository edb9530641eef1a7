"""Experiment result containers and shape-claim checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro._env import env_flag
from repro.units import fmt_size, fmt_time


def paper_scale() -> bool:
    """True when the full published sweeps were requested."""
    return env_flag("REPRO_PAPER_SCALE")


@dataclass
class Series:
    """One curve: label + x values + y values."""

    label: str
    x: list
    y: list[float]

    def at(self, xv) -> float:
        return self.y[self.x.index(xv)]

@dataclass
class Claim:
    """One qualitative claim from the paper, checked against our data."""

    text: str
    holds: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        out = f"  [{mark}] {self.text}"
        if self.detail:
            out += f"\n         ({self.detail})"
        return out


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    id: str
    title: str
    #: what the paper exhibit showed, one line
    paper_says: str
    #: x-axis label ("message bytes", "cores", ...)
    x_label: str = "x"
    #: y-axis formatting: "time", "bandwidth", "speedup", "raw"
    y_kind: str = "time"
    series: list[Series] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    #: free-form extra blocks (profiles, tables) appended to render()
    extra: list[str] = field(default_factory=list)
    notes: str = ""

    # -- claim helpers -----------------------------------------------------
    def claim(self, text: str, holds: bool, detail: str = "") -> None:
        self.claims.append(Claim(text, bool(holds), detail))

    @property
    def all_claims_hold(self) -> bool:
        return all(c.holds for c in self.claims)

    def failed_claims(self) -> list[Claim]:
        return [c for c in self.claims if not c.holds]

    # -- rendering ----------------------------------------------------------
    def _fmt_x(self, xv) -> str:
        if isinstance(xv, int) and self.x_label.startswith("message"):
            return fmt_size(xv)
        return str(xv)

    def _fmt_y(self, yv: float) -> str:
        if yv != yv:  # NaN
            return "-"
        if self.y_kind == "time":
            return fmt_time(yv)
        if self.y_kind == "bandwidth":
            return f"{yv / 1e6:.0f}MB/s"
        if self.y_kind == "speedup":
            return f"{yv:.1f}"
        return f"{yv:.4g}"

    def render(self) -> str:
        lines = [
            "=" * 72,
            f"{self.id}: {self.title}",
            f"paper: {self.paper_says}",
            "=" * 72,
        ]
        if self.series:
            xs = self.series[0].x
            header = f"{self.x_label:>20} " + " ".join(
                f"{s.label:>16}" for s in self.series)
            lines.append(header)
            lines.append("-" * len(header))
            for i, xv in enumerate(xs):
                row = f"{self._fmt_x(xv):>20} "
                for s in self.series:
                    val = s.y[i] if i < len(s.y) else float("nan")
                    row += f"{self._fmt_y(val):>16} "
                lines.append(row)
        for block in self.extra:
            lines.append("")
            lines.append(block)
        if self.claims:
            lines.append("")
            lines.append("paper-shape claims:")
            for c in self.claims:
                lines.append(c.render())
        if self.notes:
            lines.append("")
            lines.append(f"notes: {self.notes}")
        lines.append("")
        return "\n".join(lines)


def geometric_sizes(lo: int, hi: int, per_decade: Optional[int] = None) -> list[int]:
    """Power-of-two sizes from lo to hi inclusive."""
    out = []
    s = lo
    while s <= hi:
        out.append(s)
        s *= 2
    if out[-1] != hi:
        out.append(hi)
    return out
