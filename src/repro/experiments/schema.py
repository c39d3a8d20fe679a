"""A minimal JSON-Schema validator for benchmark artifacts.

The CI container cannot install ``jsonschema``, so artifact validation
uses this dependency-free subset: ``type``, ``properties``, ``required``,
``additionalProperties`` (boolean form), ``items``, ``enum``,
``minimum``/``maximum``, ``minItems``, and ``$defs``/``$ref`` (local
refs only).  That covers the checked-in ``*.schema.json`` files; schemas
using other keywords fail loudly rather than passing silently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

#: Keywords the validator understands; anything else in a schema raises.
_SUPPORTED = {
    "$defs", "$ref", "$schema", "additionalProperties", "description",
    "enum", "items", "maximum", "minItems", "minimum", "properties",
    "required", "title", "type",
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """The document does not conform to the schema."""


def _type_ok(value: Any, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[expected])


def _resolve(schema: Dict[str, Any], root: Dict[str, Any]) -> Dict[str, Any]:
    ref = schema.get("$ref")
    if ref is None:
        return schema
    if not ref.startswith("#/$defs/"):
        raise SchemaError(f"unsupported $ref: {ref}")
    name = ref[len("#/$defs/"):]
    try:
        return root["$defs"][name]
    except KeyError:
        raise SchemaError(f"unresolved $ref: {ref}") from None


def _validate(value: Any, schema: Dict[str, Any], root: Dict[str, Any], path: str,
              errors: List[str]) -> None:
    schema = _resolve(schema, root)
    unknown = set(schema) - _SUPPORTED
    if unknown:
        raise SchemaError(f"{path}: schema uses unsupported keywords {sorted(unknown)}")

    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(value, t) for t in allowed):
            errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
            return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} > maximum {schema['maximum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required property {key!r}")
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], root, f"{path}.{key}", errors)
            elif schema.get("additionalProperties", True) is False:
                errors.append(f"{path}: unexpected property {key!r}")

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: {len(value)} items < minItems {schema['minItems']}")
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                _validate(item, items, root, f"{path}[{i}]", errors)


def validate(document: Any, schema: Dict[str, Any]) -> None:
    """Raise :class:`SchemaError` listing every violation (or return)."""
    errors: List[str] = []
    _validate(document, schema, schema, "$", errors)
    if errors:
        raise SchemaError("; ".join(errors))


def load_schema(name: str) -> Dict[str, Any]:
    """Load a checked-in schema from ``experiments/schemas/<name>``."""
    path = Path(__file__).parent / "schemas" / name
    return json.loads(path.read_text())


def verdict(document: Dict[str, Any]) -> Any:
    """An artifact's own acceptance verdict: ``acceptance.pass``, or the
    top-level ``passed`` of a document without an acceptance block
    (figure-smoke); None when it carries neither."""
    return document.get("acceptance", {}).get("pass", document.get("passed"))


def main(argv=None) -> int:
    """CLI: validate an artifact file against a checked-in schema.

    ``python -m repro.experiments.schema ARTIFACT --schema NAME`` is the
    uniform check step every CI smoke job runs on the artifact its sweep
    produced; ``--require-pass`` additionally demands the artifact's own
    acceptance verdict (``acceptance.pass`` or top-level ``passed``) be
    true, so a sweep can't ship a schema-valid but failing artifact.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.schema",
        description="Validate a benchmark artifact against a checked-in schema.",
    )
    parser.add_argument("artifact", help="path to the JSON artifact")
    parser.add_argument("--schema", required=True,
                        help="schema file name under experiments/schemas/")
    parser.add_argument("--require-pass", action="store_true",
                        help="also require the artifact's acceptance verdict")
    args = parser.parse_args(argv)

    document = json.loads(Path(args.artifact).read_text())
    try:
        validate(document, load_schema(args.schema))
    except SchemaError as err:
        print(f"{args.artifact}: FAIL: {err}")
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}")
        return 2
    if args.require_pass:
        passed = verdict(document)
        if passed is not True:
            print(f"{args.artifact}: FAIL: acceptance verdict is {passed!r}")
            return 1
    print(f"{args.artifact}: ok ({args.schema})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    import sys

    sys.exit(main())


__all__ = ["SchemaError", "load_schema", "main", "validate", "verdict"]
