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

from .errors import InconsistentColumnsError, InvalidConfigError

AVG_COLUMN = "AVG"


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
                raise InvalidConfigError(
                    f"{path}: line {lineno} is not valid JSON") from None
    return records


def emit_report(rows: Sequence[tuple[str, Mapping[str, float]]],
                languages: Optional[Sequence[str]] = None,
                provided_averages: Optional[Mapping[str, float]] = None,
                tolerance: float = 1e-9) -> str:
    """Render per-language accuracies as an aligned text table.

    Each row is `(label, {language: accuracy})`; all rows must cover the
    same languages. The AVG column is recomputed here; if a caller also
    supplies averages, any that disagree beyond `tolerance` draw a
    warning (the recomputed value is printed either way).
    """
    if not rows:
        raise InvalidConfigError("no rows to report")
    if languages is None:
        languages = list(rows[0][1].keys())
    expected = set(languages)
    if len(expected) != len(list(languages)):
        raise InconsistentColumnsError("duplicate language columns")
    for label, accs in rows:
        if set(accs.keys()) != expected:
            raise InconsistentColumnsError(
                f"row {label!r} covers {sorted(accs.keys())}, "
                f"expected {sorted(expected)}")

    header = ["model"] + list(languages) + [AVG_COLUMN]
    table = [header]
    for label, accs in rows:
        average = sum(accs[lang] for lang in languages) / len(list(languages))
        if provided_averages is not None and label in provided_averages:
            if abs(provided_averages[label] - average) > tolerance:
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
