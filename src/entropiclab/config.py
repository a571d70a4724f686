"""Run configuration: schema validation and object builders.

Configurations, and the source and system files they name, are plain JSON
documents validated against the schema shipped with the package
(``runconfig.schema.json``); unknown keys are rejected everywhere.  The
package checks that schema itself: ``_errors`` walks a document against it,
one function per JSON Schema keyword in ``_KEYWORDS``, and implements just
the keywords the schema uses, with the messages that ``jsonschema`` gives
them (``tools/verify.py schema`` compares the two).  The builders below
turn validated blocks into the package's domain objects; each imports the
kernel module it builds for when it is called, so that loading a
configuration loads none of them.
"""
from __future__ import annotations

import functools
import json
import numbers
import operator
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .constants import NATURAL, Constants

if TYPE_CHECKING:
    from .fluctuations import SymplecticPatch, ThermoReference
    from .gravity import RegionSpec, SourceDistribution
    from .onsager import OnsagerSystem
    from .operators import HermitianOperator, StateVector

__all__ = [
    "ConfigError",
    "constants_from",
    "grid_from",
    "hamiltonian_from",
    "load_config",
    "patch_from",
    "reference_from",
    "region_from",
    "schema",
    "source_from",
    "state_from",
    "system_from",
    "validate_config",
]


class ConfigError(ValueError):
    """A configuration failed to parse, validate, or build."""


@functools.cache
def schema() -> dict:
    """The published run-configuration schema."""
    text = resources.files("entropiclab").joinpath("runconfig.schema.json").read_text()
    return json.loads(text)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "number": lambda value: isinstance(value, numbers.Number) and not isinstance(value, bool),
    # Draft 2020-12 counts 5.0 as an integer; counts, sizes and seeds must be JSON integers
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}


def _errors(instance, node: dict, path: tuple = ()):
    """``(path, message, reasons)`` of each way ``instance``, found at ``path``, breaks
    the schema ``node``, keyword by keyword in the node's order, as ``jsonschema``
    yields them.  ``reasons`` are the messages of a failed ``oneOf``'s branches."""
    for keyword, value in node.items():
        yield from _KEYWORDS[keyword](value, instance, node, path)


def _valid(instance, node: dict) -> bool:
    return next(_errors(instance, node), None) is None


# each keyword's check takes (the keyword's value, instance, node, path); the
# schema's enum and const values are strings, which == compares as JSON does
def _type(kind, instance, node, path):
    if not _TYPES[kind](instance):
        yield path, f"{instance!r} is not of type {kind!r}", ()


def _enum(names, instance, node, path):
    if instance not in names:
        yield path, f"{instance!r} is not one of {names!r}", ()


def _const(name, instance, node, path):
    if instance != name:
        yield path, f"{name!r} was expected", ()


def _bound(broken, words):
    def check(bound, instance, node, path):
        if _TYPES["number"](instance) and broken(instance, bound):
            yield path, f"{instance!r} {words} {bound!r}", ()
    return check


def _length(broken, edge, at_edge, words):
    def check(limit, instance, node, path):
        if _TYPES["array"](instance) and broken(len(instance), limit):
            yield path, f"{instance!r} {at_edge if limit == edge else words}", ()
    return check


def _required(names, instance, node, path):
    if _TYPES["object"](instance):
        for name in names:
            if name not in instance:
                yield path, f"{name!r} is a required property", ()


def _properties(subschemas, instance, node, path):
    if _TYPES["object"](instance):
        for key, subschema in subschemas.items():
            if key in instance:
                yield from _errors(instance[key], subschema, path + (key,))


def _additional_properties(allowed, instance, node, path):
    if not _TYPES["object"](instance):
        return
    extras = sorted(set(instance) - set(node.get("properties", {})), key=str)
    if extras:
        names = ", ".join(map(repr, extras))
        verb = "was" if len(extras) == 1 else "were"
        yield path, f"Additional properties are not allowed ({names} {verb} unexpected)", ()


def _property_names(subschema, instance, node, path):
    if _TYPES["object"](instance):
        for key in instance:
            yield from _errors(key, subschema, path)


def _items(subschema, instance, node, path):
    if _TYPES["array"](instance):
        for index, item in enumerate(instance):
            yield from _errors(item, subschema, path + (index,))


def _if(condition, instance, node, path):
    branch = "then" if _valid(instance, condition) else "else"
    if branch in node:
        yield from _errors(instance, node[branch], path)


def _not(subschema, instance, node, path):
    if _valid(instance, subschema):
        yield path, f"{instance!r} should not be valid under {subschema!r}", ()


def _one_of(subschemas, instance, node, path):
    failures = [list(_errors(instance, subschema, path)) for subschema in subschemas]
    valid = [subschema for subschema, errors in zip(subschemas, failures) if not errors]
    if not valid:
        reasons = [message for errors in failures for _, message, _ in errors]
        yield path, f"{instance!r} is not valid under any of the given schemas", reasons
    elif len(valid) > 1:  # jsonschema names the first valid branch last
        reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
        yield path, f"{instance!r} is valid under each of {reprs}", ()


# the keywords runconfig.schema.json uses; ``if`` reads ``then`` and ``else``
_KEYWORDS = {
    **dict.fromkeys(("$schema", "$id", "title", "$defs", "then", "else"), lambda *args: ()),
    "type": _type,
    "enum": _enum,
    "const": _const,
    "minimum": _bound(operator.lt, "is less than the minimum of"),
    "maximum": _bound(operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "is greater than or equal to the maximum of"),
    "minItems": _length(operator.lt, 1, "should be non-empty", "is too short"),
    "maxItems": _length(operator.gt, 0, "is expected to be empty", "is too long"),
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,  # false wherever the schema gives it
    "propertyNames": _property_names,
    "items": _items,
    "$ref": lambda reference, instance, node, path: _errors(
        instance, schema()["$defs"][reference.removeprefix("#/$defs/")], path),
    "allOf": lambda subschemas, instance, node, path: (
        error for subschema in subschemas for error in _errors(instance, subschema, path)),
    "if": _if,
    "not": _not,
    "oneOf": _one_of,
}


def _validate(document: dict, definition: str | None, what: str) -> None:
    target = schema() if definition is None else schema()["$defs"][definition]
    errors = sorted(_errors(document, target), key=lambda error: list(error[0]))
    if errors:
        lines = []
        for path, message, reasons in errors:
            where = "/".join(map(str, path)) or "<root>"
            # a failed oneOf says why each of its branches failed
            reasons = "; ".join(sorted(set(reasons)))
            lines.append(f"  at {where}: {message}" + (f" ({reasons})" if reasons else ""))
        raise ConfigError(f"{what} failed schema validation:\n" + "\n".join(lines))


def validate_config(config: dict) -> None:
    _validate(config, None, "configuration")


def _read_json(path, definition: str | None, what: str) -> dict:
    """The JSON object in the file at ``path``, validated against the shipped
    schema: its root when ``definition`` is None, else ``$defs/<definition>``.
    This is the package's one JSON file reader; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{what} must be a JSON object")
    _validate(document, definition, what)
    return document


def load_config(path) -> dict:
    return _read_json(path, None, "configuration")


def constants_from(config: dict) -> Constants:
    block = config.get("constants")
    if not block:
        return NATURAL
    return Constants(hbar=block.get("hbar", 1.0), kB=block.get("kB", 1.0))


def _built(what: str, make, *args, **params):
    """``make(*args, **params)``, with a ``ValueError`` it raises reported as a bad ``what``."""
    try:
        return make(*args, **params)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def hamiltonian_from(block: dict, constants: Constants) -> HermitianOperator:
    from .operators import build_hamiltonian

    return _built("hamiltonian block", build_hamiltonian, constants=constants, **block)


def state_from(block: dict, dim: int) -> StateVector:
    from .operators import StateVector

    kind = block["kind"]
    if kind == "basis":
        index = block.get("index", 0)
        if not 0 <= index < dim:
            raise ConfigError(f"basis index {index} out of range for dimension {dim}")
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[index] = 1.0
        return StateVector(amplitudes)
    if kind == "uniform":
        return StateVector(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))
    if kind == "random":
        rng = np.random.default_rng(block.get("seed", 0))
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return StateVector(raw / np.linalg.norm(raw))
    # "amplitudes", the schema's last kind
    re = np.asarray(block["re"], dtype=float)
    im = np.asarray(block.get("im", np.zeros_like(re)), dtype=float)
    if re.size != dim or im.size != dim:
        raise ConfigError(f"amplitude lists must have length {dim}, got {re.size} and {im.size}")
    return StateVector(re + 1j * im)


def grid_from(block: dict) -> np.ndarray:
    # the schema holds a grid to exactly one of its two forms
    if "points" in block:
        return np.asarray(block["points"], dtype=float)
    return np.linspace(block["start"], block["stop"], block["num"])


def reference_from(block: dict) -> ThermoReference:
    from .fluctuations import ThermoReference

    params = dict(block)
    make = ThermoReference.ideal_gas if params.pop("preset", None) else ThermoReference
    return _built("thermodynamic reference", make, **params)


def region_from(block: dict) -> RegionSpec:
    from .gravity import RegionSpec

    return _built("region block", RegionSpec, **block)


def _block_or_file(value, base_dir: Path, definition: str, what: str):
    """An inline block as it is, or the validated file that the string ``value``
    names relative to ``base_dir``; with the directory its own paths resolve against."""
    if not isinstance(value, str):
        return value, base_dir
    path = base_dir / value
    return _read_json(path, definition, what), path.parent


def source_from(value, base_dir: Path) -> SourceDistribution:
    from .gravity import _descriptor_to_source

    descriptor, base_dir = _block_or_file(value, base_dir, "source_descriptor", "source file")
    try:
        return _descriptor_to_source(descriptor, base_dir)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad source: {exc}") from exc


def system_from(value, base_dir: Path) -> OnsagerSystem:
    from .onsager import OnsagerSystem

    system, _ = _block_or_file(value, base_dir, "onsager_system", "system file")
    return _built("system", OnsagerSystem.from_dict, system)


def patch_from(block: dict) -> SymplecticPatch:
    from .fluctuations import disk_patch, fourier_patch, rectangle_patch, two_plane_patch

    patches = {"rectangle": rectangle_patch, "disk": disk_patch,
               "two_plane": two_plane_patch, "fourier": fourier_patch}
    params = dict(block)
    return _built("patch block", patches[params.pop("kind")], **params)
