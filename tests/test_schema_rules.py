"""Every discriminated block of the shipped schema names the keys of each form.

A block whose ``properties`` give a discriminator (``kind``, ``shape`` or
``preset``) an ``enum`` must carry, for each value of it, an ``allOf`` rule
``if: {<discriminator>: value, required} then: {propertyNames: ...}``.
Without one, the keys of another form pass validation and are ignored.
"""
from entropiclab.config import schema

DISCRIMINATORS = ("kind", "shape", "preset")


def schema_nodes(node, path=""):
    """(path, node) of every object in the schema document."""
    if isinstance(node, dict):
        yield path or "/", node
        for key, value in node.items():
            yield from schema_nodes(value, f"{path}/{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from schema_nodes(value, f"{path}/{index}")


def ruled_values(block: dict, discriminator: str) -> set:
    """Values of ``discriminator`` that an ``allOf`` rule gives a ``propertyNames``."""
    values = set()
    for rule in block.get("allOf", []):
        condition = rule.get("if", {})
        value = condition.get("properties", {}).get(discriminator, {}).get("const")
        if discriminator in condition.get("required", []) and "propertyNames" in rule.get(
            "then", {}
        ):
            values.add(value)
    return values


def unruled_forms(document: dict) -> list:
    """``path: discriminator=value`` for each form that lacks its keys rule."""
    missing = []
    for path, node in schema_nodes(document):
        properties = node.get("properties")
        if not isinstance(properties, dict):
            continue
        for discriminator in DISCRIMINATORS:
            values = properties.get(discriminator, {}).get("enum", [])
            ruled = ruled_values(node, discriminator)
            missing += [f"{path}: {discriminator}={value}" for value in values
                        if value not in ruled]
    return missing


def test_every_form_names_its_keys():
    assert unruled_forms(schema()) == []


def test_a_block_without_rules_is_reported():
    document = {"$defs": {"thing": {
        "type": "object",
        "properties": {"kind": {"enum": ["a", "b"]}, "x": {}, "y": {}},
        "allOf": [{
            "if": {"properties": {"kind": {"const": "a"}}, "required": ["kind"]},
            "then": {"propertyNames": {"enum": ["kind", "x"]}},
        }],
    }}}
    assert unruled_forms(document) == ["/$defs/thing: kind=b"]
