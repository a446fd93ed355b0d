"""Canonical, byte-stable emission of metric reports (JSON and CSV).

Key order and float formatting are fixed so repeated runs produce
byte-identical files that can be diffed and compared in tests.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .metrics import MetricReport

JSON_KEYS = (
    "is", "bcis", "wcis", "fid", "bcfid", "wcfid", "cfid_sum", "accuracy",
    "per_class_fid", "per_class_is", "per_class_accuracy",
    "dims_used", "pairing", "seed", "warnings",
)

CSV_COLUMNS = (
    "param", "is", "bcis", "wcis", "fid", "bcfid", "wcfid", "cfid_sum",
    "accuracy", "dims_used",
)


def format_number(x) -> str:
    """17 significant digits; enough to round-trip any float64."""
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _json_value(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    return format_number(value)


def report_values(report: MetricReport) -> dict:
    """Report fields by JSON key, in JSON_KEYS order."""
    return {key: getattr(report, "is_" if key == "is" else key) for key in JSON_KEYS}


def _json_object(report: MetricReport, *lead: str) -> str:
    """One report as a JSON object; ``lead`` members come before JSON_KEYS."""
    values = report_values(report)
    members = [f"{json.dumps(key)}:{_json_value(values[key])}" for key in JSON_KEYS]
    return "{" + ",".join([*lead, *members]) + "}"


def _csv_row(report: MetricReport, *lead) -> str:
    """The scalar columns of one report as a CSV row, after the ``lead`` cells."""
    values = report_values(report)
    cells = [*lead, *(values[col] for col in CSV_COLUMNS[1:])]
    return ",".join("" if v is None else format_number(v) for v in cells)


def report_to_json(report: MetricReport) -> str:
    return _json_object(report) + "\n"


def report_to_csv(report: MetricReport) -> str:
    """Single report as a two-line CSV (scalar columns, no param)."""
    return ",".join(CSV_COLUMNS[1:]) + "\n" + _csv_row(report) + "\n"


def reports_to_csv(rows) -> str:
    """Rows of (param, MetricReport) to a fixed-header CSV document."""
    lines = [",".join(CSV_COLUMNS), *(_csv_row(report, param) for param, report in rows)]
    return "\n".join(lines) + "\n"


def reports_to_json(rows) -> str:
    """Rows of (param, MetricReport) to a JSON array with canonical entries."""
    entries = (_json_object(report, f"\"param\":{format_number(param)}")
               for param, report in rows)
    return "[" + ",".join(entries) + "]\n"


def assignment_to_json(mapping, score, average_probabilities) -> str:
    body = ",".join([
        f"\"mapping\":{_json_value([int(m) for m in mapping])}",
        f"\"score\":{format_number(score)}",
        f"\"average_probabilities\":"
        + "[" + ",".join(_json_value(row) for row in average_probabilities) + "]",
    ])
    return "{" + body + "}\n"
