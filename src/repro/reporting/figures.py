"""Figure rendering: the taxonomy tree and ASCII experiment charts.

:func:`render_figure1` reproduces the paper's Figure 1; the chart
helpers visualize validation-experiment series (throughput-vs-MPL
knees, controller convergence traces...) directly in terminal output so
the benchmark harness needs no plotting dependencies.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.core.taxonomy import TAXONOMY, render_tree


def render_figure1(annotate_descriptions: bool = False) -> str:
    """Figure 1: the taxonomy of workload-management techniques."""
    header = "FIGURE 1 — Taxonomy of Workload Management Techniques for DBMSs"
    tree = render_tree()
    if not annotate_descriptions:
        return f"{header}\n\n{tree}"
    lines = [header, "", tree, "", "Class definitions (paper §3):"]
    for node in TAXONOMY.walk():
        if node is TAXONOMY:
            continue
        lines.append(f"  {node.name} (§{node.paper_section}): {node.description}")
    return "\n".join(lines)


_MARKS = "*o+x#@%&"


def ascii_line_chart(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    width: int = 64,
    height: int = 16,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot one or more y-series against shared x-values.

    Each series gets a marker character; collisions show the later
    series' marker.  Intended for monotone-ish experiment curves, not
    precision graphics.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("xs must be non-empty")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length != len(xs)")
    all_y = [y for ys in series.values() for y in ys if y == y]  # drop NaN
    if not all_y:
        raise ValueError("no plottable y values")
    y_min, y_max = min(all_y), max(all_y)
    if y_max - y_min < 1e-12:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)
    if x_max - x_min < 1e-12:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, ys) in enumerate(series.items()):
        mark = _MARKS[index % len(_MARKS)]
        for x, y in zip(xs, ys):
            if y != y:
                continue
            col = int((x - x_min) / (x_max - x_min) * (width - 1))
            row = int((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = mark

    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"[{legend}]")
    top_label = f"{y_max:.3g}"
    bottom_label = f"{y_min:.3g}"
    label_width = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = top_label.rjust(label_width)
        elif row_index == height - 1:
            label = bottom_label.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(
        " " * label_width
        + " +"
        + "-" * width
    )
    lines.append(
        " " * label_width
        + f"  {x_min:.3g}"
        + f"{x_label} -> {x_max:.3g}".rjust(width - len(f"{x_min:.3g}"))
    )
    lines.append(f"({y_label} vs {x_label})")
    return "\n".join(lines)


def ascii_bar_chart(
    values: Mapping[str, float],
    title: str = "",
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart of labelled values."""
    if not values:
        raise ValueError("values must be non-empty")
    peak = max(abs(v) for v in values.values()) or 1.0
    label_width = max(len(name) for name in values)
    lines: List[str] = []
    if title:
        lines.append(title)
    for name, value in values.items():
        bar = "#" * max(0, int(round(abs(value) / peak * width)))
        lines.append(
            f"{name.rjust(label_width)} | {bar} {value:.4g}{unit}"
        )
    return "\n".join(lines)


def ascii_cluster_timeline(
    lanes: Mapping[str, str],
    horizon: float,
    title: str = "CLUSTER TIMELINE",
) -> str:
    """Render per-node load/health lanes as one labelled timeline.

    ``lanes`` maps node name to an equal-length character lane — load
    shading (`` .:-=+*#``) with the health overlay ``x`` (down) — as
    produced by :meth:`repro.cluster.metrics.ClusterMetrics.timeline_lanes`.
    """
    if not lanes:
        raise ValueError("lanes must be non-empty")
    widths = {len(lane) for lane in lanes.values()}
    if len(widths) != 1:
        raise ValueError(f"lanes must share one width, got {sorted(widths)}")
    width = widths.pop()
    label_width = max(len(name) for name in lanes)
    lines: List[str] = [title] if title else []
    lines.append(
        " " * label_width
        + "  load: ' .:-=+*#' (running/MPL)   health: x=down"
    )
    for name, lane in lanes.items():
        lines.append(f"{name.rjust(label_width)} |{lane}|")
    lines.append(" " * label_width + " +" + "-" * width + "+")
    left = "0s"
    right = f"{horizon:.0f}s"
    lines.append(
        " " * label_width + f"  {left}" + right.rjust(width - len(left))
    )
    return "\n".join(lines)
