"""Every name a package module imports is read somewhere in that module,
and every name the package exports is read outside its own module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lehmer_ff"
# __init__ imports names only to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# exports kept for the tests to check the package against, with no caller
# needed in src/ or bench/
NAMED_ORACLES = {
    "factor_bruteforce",
    "lehmer_set_bruteforce",
    "partitions_of",
    "totient_bruteforce",
}
# types and values that public functions return, exported so that callers
# can name them
RETURNED = {"ExponentMap", "IntPoly", "NEG_INF", "TotientReport", "ZsigmondyResult"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unused_import_is_found():
    source = "from math import gcd, isqrt\nimport os.path\n\nisqrt(4)\n"
    assert unused_imports(source) == ["gcd", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(source: str) -> set[str]:
    """Names a source reads as a name, an attribute or an import alias;
    text inside strings does not count."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
    return read


def exports() -> dict[str, str]:
    """Each name in the package's ``__all__``, mapped to the module that
    ``__init__`` imports it from."""
    home = {}
    exported = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            home.update((a.asname or a.name, node.module) for a in node.names)
        elif isinstance(node, ast.Assign) and node.targets[0].id == "__all__":
            exported = ast.literal_eval(node.value)
    return {name: home[name] for name in exported}


def test_names_read_skips_strings():
    source = "import a.b as c\nfrom m import f\nx.y\nz = 'w' + v\n"
    assert names_read(source) == {"a", "b", "f", "v", "x", "y"}


def test_every_export_is_read_outside_its_module():
    read_in = {p.stem: names_read(p.read_text()) for p in MODULES}
    bench = set().union(
        *(names_read(p.read_text()) for p in (ROOT / "bench").glob("*.py"))
    )
    unread = [
        name
        for name, module in exports().items()
        if name not in NAMED_ORACLES | RETURNED
        and name not in bench
        and not any(name in read for stem, read in read_in.items() if stem != module)
    ]
    assert unread == []


def test_listed_exports_exist():
    assert (NAMED_ORACLES | RETURNED) <= set(exports())
