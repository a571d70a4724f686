"""Every discriminated block of the shipped schema names the keys of each form,
and the package's own validator implements every keyword the schema uses.

A block whose ``properties`` give a discriminator (``kind``, ``shape`` or
``preset``) an ``enum`` must carry, for each value of it, an ``allOf`` rule
``if: {<discriminator>: value, required} then: {propertyNames: ...}``.
Without one, the keys of another form pass validation and are ignored.

``config._errors`` implements just the keywords of ``runconfig.schema.json``,
each in the form the schema gives it.  A keyword it lacks would raise only
when a document reaches it, so the schema is checked here as a whole.
"""
from entropiclab.config import _KEYWORDS, _TYPES, schema

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


# keywords whose value is one subschema, a map of them, or a list of them
SUBSCHEMA = {"items", "not", "if", "then", "else", "propertyNames"}
SUBSCHEMA_MAP = {"properties", "$defs"}
SUBSCHEMA_LIST = {"allOf", "oneOf"}


def keywords_used(node: dict) -> list:
    """``(keyword, value)`` of every keyword in the schema ``node`` and its subschemas."""
    used = list(node.items())
    for keyword, value in node.items():
        if keyword in SUBSCHEMA:
            used += keywords_used(value)
        for child in value.values() if keyword in SUBSCHEMA_MAP else []:
            used += keywords_used(child)
        for child in value if keyword in SUBSCHEMA_LIST else []:
            used += keywords_used(child)
    return used


def unsupported(document: dict) -> list:
    """Each keyword of ``document`` that the walker lacks, or whose form it does not read."""
    forms = {
        "type": lambda value: isinstance(value, str) and value in _TYPES,
        "additionalProperties": lambda value: value is False,
        # compared with ==, as JSON compares strings
        "enum": lambda value: all(isinstance(each, str) for each in value),
        "const": lambda value: isinstance(value, str),
        "$ref": lambda value: value.removeprefix("#/$defs/") in document.get("$defs", {}),
    }
    found = []
    for keyword, value in keywords_used(document):
        if keyword not in _KEYWORDS:
            found.append(keyword)
        elif not forms.get(keyword, lambda value: True)(value):
            found.append(f"{keyword}: {value!r}")
    return sorted(set(found))


def test_the_walker_implements_every_keyword_of_the_schema():
    assert unsupported(schema()) == []
    # and no keyword the schema does not use
    assert {keyword for keyword, _ in keywords_used(schema())} == set(_KEYWORDS)


def test_a_keyword_or_form_the_walker_lacks_is_reported():
    document = {"$defs": {"thing": {
        "type": ["object", "null"],
        "additionalProperties": {"type": "number"},
        "properties": {"x": {"anyOf": [{"type": "number"}]}, "y": {"const": 1},
                       "z": {"$ref": "#/$defs/other"}},
    }}}
    assert unsupported(document) == [
        "$ref: '#/$defs/other'", "additionalProperties: {'type': 'number'}", "anyOf",
        "const: 1", "type: ['object', 'null']",
    ]
