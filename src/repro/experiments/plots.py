"""Terminal rendering of latency distributions.

The paper presents Figs. 10 and 15-18 as violin plots; the CLI renders
the same distributions as text: a compact quantile "violin" strip per
category.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

def quantile_strip(
    samples: Sequence[float],
    width: int = 50,
    log_scale: bool = True,
) -> str:
    """A one-line violin substitute: ``|----[==#==]------|`` marking
    min, p25, median (#), p75, and max across a (log-)scaled axis."""
    values = sorted(s for s in samples if s > 0)
    if not values:
        return "(no samples)"
    if len(values) == 1:
        return f"#  ({values[0]:.1f})"

    def pct(fraction: float) -> float:
        return values[min(len(values) - 1, int(fraction * (len(values) - 1)))]

    low, high = values[0], values[-1]
    if log_scale and high / max(low, 1e-9) > 10.0:
        transform = math.log10
    else:
        transform = lambda x: x  # noqa: E731 - tiny local lambda is clearest
    t_low, t_high = transform(low), transform(max(high, low * (1 + 1e-9)))
    span = max(t_high - t_low, 1e-12)

    def column(value: float) -> int:
        return min(width - 1, int((transform(value) - t_low) / span * (width - 1)))

    cells = ["-"] * width
    for start, stop in [(column(pct(0.25)), column(pct(0.75)))]:
        for i in range(start, stop + 1):
            cells[i] = "="
    cells[0] = "|"
    cells[-1] = "|"
    cells[column(pct(0.5))] = "#"
    return "".join(cells)


def render_distributions(
    named_samples: Dict[str, Sequence[float]],
    width: int = 50,
    unit: str = "us",
) -> str:
    """Aligned quantile strips for several distributions (one per row)."""
    lines: List[str] = []
    label_width = max((len(name) for name in named_samples), default=0)
    for name, samples in named_samples.items():
        values = sorted(s for s in samples if s > 0)
        strip = quantile_strip(values, width=width)
        if values:
            median = values[len(values) // 2]
            p99 = values[min(len(values) - 1, int(0.99 * (len(values) - 1)))]
            stats = f" p50={median:.0f}{unit} p99={p99:.0f}{unit}"
        else:
            stats = ""
        lines.append(f"{name:>{label_width}} {strip}{stats}")
    return "\n".join(lines)
