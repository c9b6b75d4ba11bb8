"""A static check in place of a linter: every module-level import of the
package and of its tests binds a name that the module reads, and no
function of the package imports anything."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of `source` that no
    expression in it reads, as '<line>: <name>'."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom a import b as c, d\n\n\ndef f():\n    return sys, d\n"
    assert unused_imports(source) == ["1: os", "3: c"]


def test_no_module_level_import_is_unused():
    files = sorted([*(ROOT / "src" / "pugkit").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(files) > 20
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {path: names for path, names in found.items() if names} == {}


def function_imports(source: str) -> list[str]:
    """The import statements inside the functions of `source`, as
    '<line>: <first name bound>'."""
    found = {node for fn in ast.walk(ast.parse(source))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"{node.lineno}: {node.names[0].asname or node.names[0].name}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_the_scan_finds_an_import_in_a_function():
    source = ("import os\n\n\ndef f():\n    from .rng import rng_for\n    return os\n\n\n"
              "class C:\n    def g(self):\n        def h():\n            import sys as s\n")
    assert function_imports(source) == ["5: rng_for", "12: s"]


def test_no_package_function_imports():
    # every package import is at module level, where `unused_imports` and
    # a reader see it
    found = {path.name: function_imports(path.read_text())
             for path in sorted((ROOT / "src" / "pugkit").glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}



def cli_reach(source: str) -> set[str]:
    """What `source` takes from the CLI: 'pugkit.cli' if it imports that
    module or a name from it, 'CliError' if it names that class."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pugkit" if node.level else None, node.module]))
            found.update({base, *(f"{base}.{alias.name}" for alias in node.names)} & {"pugkit.cli"})
        elif isinstance(node, ast.Import):
            found.update({alias.name for alias in node.names} & {"pugkit.cli"})
        if "CliError" in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None)):
            found.add("CliError")
    return found


def test_only_the_cli_knows_the_cli():
    """Each file format lives with its type: no package module but `cli.py`
    imports `pugkit.cli` or names `CliError`, and `cli.py` defines no file
    reader or writer."""
    assert cli_reach("from .cli import main\nfrom . import cli\nimport pugkit.cli as c\n") == \
        {"pugkit.cli"}
    assert cli_reach("from . import labels\nraise x.CliError(3, 'm')\n") == {"CliError"}
    for path in sorted((ROOT / "src" / "pugkit").glob("*.py")):
        source = path.read_text()
        if path.name == "cli.py":
            codecs = [node.name for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef)
                      and node.name.startswith(("write_", "parse_"))]
            assert codecs == [], codecs
        else:
            assert cli_reach(source) == set(), path.name
