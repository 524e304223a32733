"""CSV and JSON interchange formats.

Dataset CSV: one row per point, d coordinate columns then one label column,
optional header, '.' decimal separator.  Points CSV: coordinate columns
only.

Network JSON: a versioned document, written on one line

    {"version": 1, "dimension": d, "monotone_flag": bool, "exact": bool,
     "layers": [{"activation": ..., "weights": [[...]], "biases": [...]}],
     "output": {"weights": [...], "bias": ...}}

Floats round-trip bit-exactly: Python's shortest-repr float encoding is
what ``json`` emits and parses.  An exact output stage, which every built
interpolator has, is stored as "numerator/denominator" strings with
``"exact": true``.
"""

from __future__ import annotations

import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import ThresholdLayer, ThresholdNetwork
from .errors import SchemaError

SCHEMA_VERSION = 1

# Exactly the strings float() accepts, so that parsing never has to catch
# its ValueError (digits may carry single underscores, as in 1_000).
_DIGITS = r"\d+(?:_\d+)*"
_FLOAT_TEXT = re.compile(
    rf"\s*[+-]?(?:(?:(?:{_DIGITS})?\.{_DIGITS}|{_DIGITS}\.?)(?:[eE][+-]?{_DIGITS})?"
    r"|(?i:inf|infinity|nan))\s*"
)


def parse_float(text: str) -> float | None:
    """``float(text)``, or None when ``text`` does not spell a number."""
    return float(text) if _FLOAT_TEXT.fullmatch(text) else None


# -- CSV ----------------------------------------------------------------------


def _parse_rows(path) -> list[list[float]]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            cells = [c.strip() for c in cells if c.strip() != ""]
            if not cells:
                continue
            row = [parse_float(c) for c in cells]
            if None not in row:
                rows.append(row)
            elif lineno != 1:  # a non-numeric first line is a header
                raise SchemaError(f"{path}: line {lineno} is not numeric: {cells}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{path}: row {k + 1} has {len(row)} columns, expected {width}")
    return rows


def read_dataset_csv(path) -> list[tuple[tuple[float, ...], float]]:
    """Raw (point, label) pairs; validate with ``core.validate_dataset``."""
    rows = _parse_rows(path)
    if len(rows[0]) < 2:
        raise SchemaError(f"{path}: need at least one coordinate column plus a label")
    return [(tuple(r[:-1]), r[-1]) for r in rows]


def write_dataset_csv(path, pairs, header: bool = False) -> None:
    pairs = list(pairs)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header and pairs:
            d = len(pairs[0][0])
            writer.writerow([f"x{i + 1}" for i in range(d)] + ["y"])
        for point, label in pairs:
            writer.writerow([repr(float(c)) for c in point] + [repr(float(label))])


def read_points_csv(path) -> np.ndarray:
    """Evaluation points as an (m, d) array."""
    return np.asarray(_parse_rows(path), dtype=float)


# -- network JSON -------------------------------------------------------------


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _parse_fraction(s) -> Fraction:
    try:
        num, den = str(s).split("/")
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad fraction literal {s!r}") from exc


def network_to_dict(net: ThresholdNetwork) -> dict:
    if net.is_exact:
        out_w = [_fraction_str(w) for w in net.output_weights]
        out_b = _fraction_str(net.output_bias)
    else:
        out_w = [float(w) for w in net.output_weights]
        out_b = float(net.output_bias)
    return {
        "version": SCHEMA_VERSION,
        "dimension": net.input_dimension,
        "monotone_flag": net.monotone_flag,
        "exact": net.is_exact,
        "layers": [
            {
                "activation": layer.activation,
                "weights": layer.weights.tolist(),
                "biases": layer.biases.tolist(),
            }
            for layer in net.layers
        ],
        "output": {"weights": out_w, "bias": out_b},
    }


def network_from_dict(doc: dict) -> ThresholdNetwork:
    try:
        if doc["version"] != SCHEMA_VERSION:
            raise SchemaError(f"unsupported network version {doc['version']!r}")
        layers = tuple(
            ThresholdLayer(
                np.asarray(spec["weights"], dtype=float),
                np.asarray(spec["biases"], dtype=float),
                spec["activation"],
            )
            for spec in doc["layers"]
        )
        out = doc["output"]
        if doc.get("exact", False):
            weights = tuple(_parse_fraction(w) for w in out["weights"])
            bias = _parse_fraction(out["bias"])
        else:
            weights = np.asarray(out["weights"], dtype=float)
            bias = float(out["bias"])
        net = ThresholdNetwork(layers, weights, bias)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"malformed network document: {exc}") from exc
    if net.input_dimension != doc["dimension"]:
        raise SchemaError(
            f"declared dimension {doc['dimension']} but layers expect {net.input_dimension}"
        )
    return net


def save_network(net: ThresholdNetwork, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net)) + "\n", encoding="utf-8")


def load_network(path) -> ThresholdNetwork:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return network_from_dict(doc)
