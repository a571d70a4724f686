"""Every public name of the package is reached by a command or a criterion.

The walk is static: it starts from the names that ``cli.py``, ``config.py``
and ``suite.py`` reference, and follows each one to its top-level
definition in the package, then on to the names that definition references.
A name reaches its definition through a package-relative import, whether the
module makes it at the top or inside a function, as the command runners and
the config builders do.  The public names are those of the package's lazy
``__init__`` table.  A public name outside that closure is code that no
claim and no command uses.  A second walk finds each function that parses
an input file format, so that a second parser of one format cannot come
back unseen, and each function that reaches the fork pool, so that no
second route into it can.
"""
import ast
import inspect
from pathlib import Path

import entropiclab

PACKAGE = Path(entropiclab.__file__).parent
ROOTS = ("cli", "config", "suite")
# wired into the fluctuation-covariance criterion by a planned change
PENDING = {"to_canonical", "log_probability", "CanonicalPoint"}
# read by the benchmark harness, not by the package
EXTERNAL = {"criterion_names"}


def namespace(module: str):
    """Top-level definitions and package-relative imports of one module.

    An import made inside a function binds its name for the whole module
    here, so one name must not be imported from two places in one module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                origin = (node.module, alias.name)
                name = alias.asname or alias.name
                assert imports.setdefault(name, origin) == origin, f"{module}.{name} is ambiguous"
    return tree, defs, imports


def reached_closure():
    """(module, name) of every top-level definition reachable from the roots."""
    spaces = {path.stem: namespace(path.stem) for path in PACKAGE.glob("*.py")}
    reached = set()
    pending = [(module, node.id) for module in ROOTS
               for node in ast.walk(spaces[module][0]) if isinstance(node, ast.Name)]
    while pending:
        module, name = pending.pop()
        _, defs, imports = spaces[module]
        if name in imports:
            pending.append(imports[name])
        elif name in defs and (module, name) not in reached:
            reached.add((module, name))
            pending += [(module, node.id) for node in ast.walk(defs[name])
                        if isinstance(node, ast.Name)]
    return reached


def exported():
    """Each public name of the package, by its defining module in the lazy
    ``__init__`` table, which must hold every public attribute of the package."""
    table = entropiclab._MODULE_OF
    loaded = [name for name, value in vars(entropiclab).items()
              if not name.startswith("_") and not inspect.ismodule(value)]
    assert set(loaded) <= set(table)
    return {name: (module, name) for name, module in table.items()}


def test_every_export_is_reached():
    reached = reached_closure()
    unreached = {name for name, origin in exported().items() if origin not in reached}
    assert unreached == PENDING | EXTERNAL


def functions_using(module_name: str, attributes):
    """``module.function`` of each package function whose body names one of
    ``module_name``'s ``attributes``, such as ``json.load``."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef) and any(
                isinstance(node, ast.Attribute) and node.attr in attributes
                and isinstance(node.value, ast.Name) and node.value.id == module_name
                for node in ast.walk(function)
            ):
                found.add(f"{path.stem}.{function.name}")
    return found


def test_one_parser_per_input_format():
    # schema() parses the package's own schema, the one the reader validates against
    assert functions_using("json", {"load", "loads"}) == {"config._read_json", "config.schema"}
    assert functions_using("np", {"fromfile"}) == {"gravity._descriptor_to_source"}


def test_one_route_into_the_worker_pool():
    # ordered is the package's only way into the fork pool
    from entropiclab import _fanout

    assert functions_using("_fanout", set(vars(_fanout)) - {"ordered"}) == set()
    assert functions_using("_fanout", {"ordered"}) == {
        "cli._csv_lines", "gravity._split_rows", "suite.run_all"}


def functions_naming(name: str):
    """``module.function`` of each package function whose body names ``name``,
    called or passed on, bare or as a module's attribute (not ``self``'s)."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef) and any(
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name) and node.value.id != "self")
                for node in ast.walk(function)
            ):
                found.add(f"{path.stem}.{function.name}")
    return found


def test_one_exponential_and_one_sampling_path():
    # every eigenbasis exponential is a _exp_rows row, bar the closed-form
    # reference it is compared against; every sample is drawn by _draw_group
    assert functions_naming("_rows") == {"operators._exp_rows",
                                         "entropy_picture._closed_form_rows"}
    assert functions_naming("_fill_block") == {"fluctuations._draw_group"}


def test_hermiticity_is_checked_where_a_matrix_enters():
    # the operator constructor and uncertainty_product's observables; a matrix
    # the package derives itself, such as a commutator, is not checked again
    assert functions_naming("_check_hermitian") == {"operators.__init__",
                                                    "entropy_picture.uncertainty_product"}
