"""CSV and JSON interchange formats.

Dataset CSV: one row per point, d coordinate columns then one label column,
optional header, '.' decimal separator; it reads as an (n, d) float64 array
of points and an (n,) array of labels, the arguments of
:func:`~mononet.core.validate_dataset`.  Points CSV: coordinate columns
only, read as an (m, d) array.

Network JSON: a versioned document, written on one line

    {"version": 3, "dimension": d, "monotone_flag": bool, "exact": bool,
     "layers": [{"activation": ..., "weights": [[...]], "biases": [...]}],
     "output": {"weights": [...], "bias": ...}}

A :class:`~mononet.core.WeightPattern` layer holds ``"kind": "select", "size": d,
"index": [...]``, ``"kind": "blocks", "size": k`` or ``"kind": "suffix"`` (whose
``"size"``, if given, is 1) in place of ``"weights"``.  Version 1 files
(matrices only) and version 2 files (blocks and suffix patterns, layer 1 a
matrix) still load.  The version and the dimension are ints, so ``true`` and
``2.0`` are refused, and ``"exact"``, when present, is ``true`` or ``false``.

Floats round-trip bit-exactly: Python's shortest-repr float encoding is
what ``json`` emits and parses.  An exact output stage, which every built
interpolator has, is stored as reduced "numerator/denominator" strings with
``"exact": true``; one whose denominators have an lcm of more than
``core.EXACT_SCALE_BITS`` bits is refused with :class:`~mononet.errors.TooLarge`.

Every JSON input, a network or a ``--config`` file, goes through
:func:`read_json`.  A JSON or CSV file that is not UTF-8, not JSON or nested
too deeply to parse raises :class:`~mononet.errors.SchemaError`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .core import BLOCKS, DENSE, SELECT, SUFFIX, ExactStage, ThresholdLayer, ThresholdNetwork, WeightPattern
from .errors import SchemaError, TooLarge

SCHEMA_VERSION = 3


def parse_float(text: str) -> float | None:
    """``float(text)``, or None when ``text`` does not spell a number."""
    try:
        return float(text)
    except ValueError:
        return None


# -- CSV ----------------------------------------------------------------------


def _parse_rows(path) -> np.ndarray:
    """The numeric rows of a CSV file as a ``(rows, width)`` float64 array.

    Cells are stripped and blank ones dropped; a line of only blank cells is
    skipped, and a first line that is not numeric is a header.  Each line is
    converted by one comprehension of ``float`` on the stripped cells, so a
    line is not numeric when it raises ``ValueError``.  ``str.strip`` drops
    more than ``float`` does (``\\x1c`` to ``\\x1f``, for one), so a cell
    ``"\\x1c1"`` reads as 1.0 here, where :func:`parse_float` refuses it.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for lineno, cells in enumerate(csv.reader(fh), start=1):
                try:
                    row = [float(c) for c in map(str.strip, cells) if c]
                except ValueError:
                    if lineno != 1:  # a non-numeric first line is a header
                        cells = [c.strip() for c in cells if c.strip() != ""]
                        raise SchemaError(f"{path}: line {lineno} is not numeric: {cells}") from None
                    continue
                if row:
                    rows.append(row)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise SchemaError(f"{path}: not a readable CSV file: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    width = len(rows[0])
    for k, row in enumerate(rows):
        if len(row) != width:
            raise SchemaError(f"{path}: row {k + 1} has {len(row)} columns, expected {width}")
    return np.array(rows, dtype=float)


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) points and (n,) labels of a dataset CSV, for ``core.validate_dataset``."""
    rows = _parse_rows(path)
    if rows.shape[1] < 2:
        raise SchemaError(f"{path}: need at least one coordinate column plus a label")
    return rows[:, :-1], rows[:, -1]


def read_points_csv(path) -> np.ndarray:
    """Evaluation points as an (m, d) array."""
    return _parse_rows(path)


# -- network JSON -------------------------------------------------------------


def fraction_text(numerator: int, scale: int) -> str:
    """``numerator / scale`` in lowest terms, as the "numerator/denominator" text that network JSON holds."""
    g = math.gcd(numerator, scale)
    return f"{numerator // g}/{scale // g}"


def _parse_fraction(s) -> tuple[int, int]:
    """The "numerator/denominator" text ``s`` as ``(p, q)`` in lowest terms; ``q`` may be negative."""
    try:
        p, q = map(int, str(s).split("/"))
    except ValueError:
        q = 0  # refused below, with a zero denominator
    if q == 0:
        raise SchemaError(f"bad fraction literal {s!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def network_to_dict(net: ThresholdNetwork) -> dict:
    stage = net.exact_stage
    if stage is not None:
        out_w = [fraction_text(p, stage.scale) for p in stage.numerators]
        out_b = fraction_text(stage.bias, stage.scale)
    else:
        out_w, out_b = net.output_weights.tolist(), net.output_bias
    return {
        "version": SCHEMA_VERSION,
        "dimension": net.input_dimension,
        "monotone_flag": net.monotone_flag,
        "exact": net.is_exact,
        "layers": [_layer_to_dict(layer) for layer in net.layers],
        "output": {"weights": out_w, "bias": out_b},
    }


def _layer_to_dict(layer: ThresholdLayer) -> dict:
    if layer.kind == DENSE:
        weights = {"weights": layer.weights.tolist()}
    elif layer.kind == SELECT:
        weights = {"kind": SELECT, "size": layer.weights.size, "index": layer.weights.index.tolist()}
    elif layer.kind == BLOCKS:
        weights = {"kind": BLOCKS, "size": layer.weights.size}
    else:
        weights = {"kind": SUFFIX}
    return {"activation": layer.activation, **weights, "biases": layer.biases.tolist()}


def _layer_from_dict(spec: dict) -> ThresholdLayer:
    if "kind" not in spec:
        weights = np.asarray(spec["weights"], dtype=float)
    else:
        kind = spec["kind"]
        size = spec.get("size", 1) if kind == SUFFIX else spec["size"]  # a suffix's is 1, left out
        weights = WeightPattern(kind, size, spec.get("index"))
    return ThresholdLayer(weights, np.asarray(spec["biases"], dtype=float), spec["activation"])


def network_from_dict(doc: dict) -> ThresholdNetwork:
    try:
        if type(doc["version"]) is not int or doc["version"] not in (1, 2, SCHEMA_VERSION):
            raise SchemaError(f"unsupported network version {doc['version']!r}")
        if type(doc["dimension"]) is not int:
            raise SchemaError(f"network dimension must be an int, got {doc['dimension']!r}")
        exact = doc.get("exact", False)
        if type(exact) is not bool:
            raise SchemaError(f'network "exact" must be true or false, got {exact!r}')
        layers = tuple(_layer_from_dict(spec) for spec in doc["layers"])
        out = doc["output"]
        if exact:
            ratios = [_parse_fraction(t) for t in (*out["weights"], out["bias"])]
            net = ThresholdNetwork(layers, ExactStage.of(ratios))
        else:
            net = ThresholdNetwork(layers, np.asarray(out["weights"], dtype=float), float(out["bias"]))
        if net.input_dimension != doc["dimension"]:
            raise SchemaError(
                f"declared dimension {doc['dimension']} but layers expect {net.input_dimension}"
            )
    except (SchemaError, TooLarge):
        raise
    except Exception as exc:
        raise SchemaError(f"malformed network document: {exc}") from exc
    return net


def save_network(net: ThresholdNetwork, path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net)) + "\n", encoding="utf-8")


def read_json(path):
    """The JSON document in ``path``.

    Raises :class:`SchemaError` when the file is not UTF-8 or not JSON, or
    nests too deeply to parse (a ``RecursionError``); ``OSError`` passes.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def load_network(path) -> ThresholdNetwork:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return network_from_dict(doc)
