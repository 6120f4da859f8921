"""JSON (de)serialization for fields, spaces, codes, and maps."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import ParseError, SchemaViolation
from .funspace import FunctionSpace
from .gf import Field, field_new
from .linmap import LinMap
from .space import PointSpace


def parse_rational(value) -> Fraction:
    if type(value) is int:  # not bool
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"bad rational {value!r}: {exc}") from None
    raise SchemaViolation(f"rationals must be ints or 'p/q' strings, got {value!r}")


def rational_str(value: Fraction) -> str:
    return str(Fraction(value))


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "p" not in obj:
        raise SchemaViolation("field object needs at least a prime 'p'")
    p = obj["p"]
    m = obj.get("m", 1)
    modulus = obj.get("modulus", "auto")
    if type(p) is not int or type(m) is not int:
        raise SchemaViolation(f"field 'p' and 'm' must be ints, got {p!r} and {m!r}")
    if modulus not in (None, "auto") and not (
        isinstance(modulus, list) and all(type(c) is int for c in modulus)
    ):
        raise SchemaViolation(f"field 'modulus' must be 'auto' or a list of ints, got {modulus!r}")
    return field_new(p, m, modulus)


def space_from_json(obj) -> PointSpace:
    if not isinstance(obj, dict) or "labels" not in obj:
        raise SchemaViolation("space object needs 'labels'")
    labels = obj["labels"]
    measures = obj.get("measures")
    if not isinstance(labels, list) or not isinstance(measures, (list, type(None))):
        raise SchemaViolation("space 'labels' and 'measures' must be lists")
    if measures is not None:
        measures = [parse_rational(mu) for mu in measures]
    return PointSpace(labels, measures)


def code_from_json(obj, normalize: bool | None = None) -> FunctionSpace:
    if not isinstance(obj, dict):
        raise SchemaViolation("a code must be a JSON object")
    for key in ("field", "space", "rows"):
        if key not in obj:
            raise SchemaViolation(f"code object is missing {key!r}")
    field = field_from_json(obj["field"])
    space = space_from_json(obj["space"])
    if normalize is None:
        normalize = bool(obj.get("normalize", False))
    return FunctionSpace(field, space, obj["rows"], normalize=normalize)


def _resolve(obj, base: Path | None):
    """A sub-object may be inline or a path string relative to the parent file."""
    if isinstance(obj, str):
        path = Path(obj)
        if base is not None and not path.is_absolute():
            path = base / path
        return load_json(path)
    return obj


def map_from_json(obj, base: Path | None = None) -> LinMap:
    if not isinstance(obj, dict):
        raise SchemaViolation("a map must be a JSON object")
    for key in ("domain", "codomain", "matrix"):
        if key not in obj:
            raise SchemaViolation(f"map object is missing {key!r}")
    domain = code_from_json(_resolve(obj["domain"], base))
    codomain = code_from_json(_resolve(obj["codomain"], base))
    return LinMap(domain, codomain, obj["matrix"])


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_code(path, normalize: bool | None = None) -> FunctionSpace:
    return code_from_json(load_json(path), normalize=normalize)


def load_map(path) -> LinMap:
    return map_from_json(load_json(path), base=Path(path).parent)
