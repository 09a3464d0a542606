"""Shared formatting for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures/examples and
writes a paper-style report to ``benchmarks/out/`` (also echoed to stdout,
visible with ``pytest -s``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

OUT_DIR = Path(__file__).resolve().parent / "out"


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """A fixed-width text table."""
    columns = [[str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]

    def fmt(cells: Sequence[object]) -> str:
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def write_report(name: str, title: str, body: str) -> None:
    """Persist a report and echo it."""
    OUT_DIR.mkdir(exist_ok=True)
    text = f"== {title} ==\n\n{body.rstrip()}\n"
    (OUT_DIR / f"{name}.txt").write_text(text)
    print("\n" + text)
