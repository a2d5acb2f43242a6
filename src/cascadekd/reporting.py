"""Run telemetry and result tables.

Metrics are JSON Lines: one `{"loss": ..., "lr": ..., "stage": ...,
"step": ...}` object per line, written and flushed as training runs.
Each writer starts a fresh file, and records carry no timestamps, so a
repeated run into the same directory writes a byte-identical log. The
report renderer lays out per-language accuracies with models as rows
(deepest first) and an AVG column recomputed as the exact unweighted
mean.
"""

from __future__ import annotations

import json
import warnings
from typing import Mapping, Optional, Sequence

from .errors import ValidationError

AVG_COLUMN = "AVG"
AVG_TOLERANCE = 1e-9


class MetricsWriter:
    """JSONL writer that truncates any earlier log at `path`; every record
    lands on disk immediately."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, record: Mapping) -> None:
        self._fh.write(json.dumps(dict(record), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_metrics(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                raise ValidationError(
                    f"{path}: line {lineno} is not valid JSON") from None
    return records


def emit_report(rows: Sequence[tuple[str, Mapping[str, float]]],
                provided_averages: Optional[Mapping[str, float]] = None) -> str:
    """Render per-language accuracies as an aligned text table.

    Each row is `(label, {language: accuracy})`; all rows must cover the
    same languages, and the first row's order fixes the columns. The AVG
    column is recomputed here; if a caller also supplies averages, any
    that disagree beyond `AVG_TOLERANCE` draw a warning (the recomputed
    value is printed either way).
    """
    if not rows or not rows[0][1]:
        raise ValidationError("no accuracies to report")
    languages = list(rows[0][1])
    for label, accs in rows:
        if set(accs) != set(languages):
            raise ValidationError(
                f"row {label!r} covers {sorted(accs)}, expected {sorted(languages)}")

    header = ["model"] + languages + [AVG_COLUMN]
    table = [header]
    for label, accs in rows:
        average = sum(accs[lang] for lang in languages) / len(languages)
        if provided_averages is not None and label in provided_averages:
            if abs(provided_averages[label] - average) > AVG_TOLERANCE:
                warnings.warn(
                    f"provided AVG {provided_averages[label]:.6f} for "
                    f"{label!r} differs from recomputed {average:.6f}")
        cells = [f"{accs[lang] * 100:.2f}" for lang in languages]
        table.append([label] + cells + [f"{average * 100:.2f}"])

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.rjust(w) if i else cell.ljust(w)
                               for i, (cell, w) in enumerate(zip(row, widths))))
    return "\n".join(lines) + "\n"
