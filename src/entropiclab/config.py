"""Run configuration: JSON schema validation and object builders.

Configurations, and the source and system files they name, are plain JSON
documents validated against the schema shipped with the package
(``runconfig.schema.json``); unknown keys are rejected everywhere.  The
builders below turn validated blocks into the package's domain objects.
"""
from __future__ import annotations

import functools
import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .constants import NATURAL, Constants
from .fluctuations import (
    SymplecticPatch,
    ThermoReference,
    disk_patch,
    fourier_patch,
    rectangle_patch,
    two_plane_patch,
)
from .gravity import RegionSpec, SourceDistribution, _descriptor_to_source
from .onsager import OnsagerSystem
from .operators import HermitianOperator, StateVector, build_hamiltonian

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


# Draft 2020-12 counts 5.0 as an integer; counts, sizes and seeds must be JSON integers
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _validate(document: dict, definition: str | None, what: str) -> None:
    target = schema()
    if definition is not None:
        target = {"$defs": target["$defs"], "$ref": f"#/$defs/{definition}"}
    errors = sorted(_Validator(target).iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for error in errors:
            where = "/".join(str(part) for part in error.absolute_path) or "<root>"
            # a failed oneOf says why each of its branches failed
            reasons = "; ".join(sorted({branch.message for branch in error.context}))
            lines.append(f"  at {where}: {error.message}" + (f" ({reasons})" if reasons else ""))
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
    return _built("hamiltonian block", build_hamiltonian, constants=constants, **block)


def state_from(block: dict, dim: int) -> StateVector:
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
    has_points = "points" in block
    has_linspace = all(key in block for key in ("start", "stop", "num"))
    if has_points == has_linspace:
        raise ConfigError("grid needs either 'points' or all of 'start'/'stop'/'num'")
    if has_points:
        return np.asarray(block["points"], dtype=float)
    return np.linspace(block["start"], block["stop"], block["num"])


def reference_from(block: dict) -> ThermoReference:
    params = dict(block)
    make = ThermoReference.ideal_gas if params.pop("preset", None) else ThermoReference
    return _built("thermodynamic reference", make, **params)


def region_from(block: dict) -> RegionSpec:
    return _built("region block", RegionSpec, **block)


def _block_or_file(value, base_dir: Path, definition: str, what: str):
    """An inline block as it is, or the validated file that the string ``value``
    names relative to ``base_dir``; with the directory its own paths resolve against."""
    if not isinstance(value, str):
        return value, base_dir
    path = base_dir / value
    return _read_json(path, definition, what), path.parent


def source_from(value, base_dir: Path) -> SourceDistribution:
    descriptor, base_dir = _block_or_file(value, base_dir, "source_descriptor", "source file")
    try:
        return _descriptor_to_source(descriptor, base_dir)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad source: {exc}") from exc


def system_from(value, base_dir: Path) -> OnsagerSystem:
    system, _ = _block_or_file(value, base_dir, "onsager_system", "system file")
    return _built("system", OnsagerSystem.from_dict, system)


_PATCHES = {
    "rectangle": rectangle_patch,
    "disk": disk_patch,
    "two_plane": two_plane_patch,
    "fourier": fourier_patch,
}


def patch_from(block: dict) -> SymplecticPatch:
    params = dict(block)
    return _built("patch block", _PATCHES[params.pop("kind")], **params)
