"""Every name a package module imports is read somewhere in that module,
every name the package exports is read outside its own module, every
cache is bounded, and only the CLI's renderer writes to stdout."""

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
RETURNED = {"IntPoly", "NEG_INF", "TotientReport", "ZsigmondyResult"}


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


# -- bounded caches ------------------------------------------------------------

CACHES = {"cache", "lru_cache"}


def unbounded_caches(source: str) -> list[str]:
    """Functions that take parameters under a ``cache`` or ``lru_cache``
    decorator that sets no ``maxsize`` other than None: such a cache
    grows with every new argument for the life of the process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        a = node.args
        if not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            sizes = []
            if call:
                sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            if name in CACHES and all(
                isinstance(v, ast.Constant) and v.value is None for v in sizes
            ):
                found.append(node.name)
    return found


def test_unbounded_cache_is_found():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\ndef a(x): pass\n"
        "@lru_cache\ndef b(x): pass\n"
        "@lru_cache()\ndef c(*x): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef d(x=1): pass\n"
        "@lru_cache(None)\ndef e(*, x): pass\n"
        "@lru_cache(maxsize=4)\ndef f(x): pass\n"
        "@lru_cache(SIZE)\ndef g(x): pass\n"
        "@cache\ndef h(): pass\n"
        "@property\ndef i(self): pass\n"
    )
    assert unbounded_caches(source) == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []


# -- the output boundary -------------------------------------------------------

CLI = PACKAGE / "cli.py"
RENDERER = "_emit"
OUTPUT_MODULES = {"csv", "io", "json"}


def _is_print(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    )


def output_uses(source: str) -> list[str]:
    """The ``print`` calls and the imports of csv, io or json in a source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if _is_print(node):
            found.append(f"print at line {node.lineno}")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in OUTPUT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module in OUTPUT_MODULES:
            found.append(node.module)
    return found


def _writes_stdout(node) -> bool:
    """A ``print`` with no ``file=``, or a read of ``sys.stdout``."""
    if _is_print(node):
        return not any(k.arg == "file" for k in node.keywords)
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def stdout_writes_outside(source: str, renderer: str) -> list[int]:
    """Lines that write to stdout outside the function ``renderer``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == renderer
        for node in ast.walk(func)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside and _writes_stdout(node)
    )


def test_output_rules_find_what_they_name():
    source = (
        "import io, os\n"
        "from json import dumps\n"
        "def render(x):\n"
        "    print(x)\n"
        "    sys.stdout.write(x)\n"
        "def run(x):\n"
        "    print(x, file=sys.stderr)\n"
        "    print(x)\n"
        "    w = csv.writer(sys.stdout)\n"
    )
    assert output_uses(source) == [
        "io", "json", "print at line 4", "print at line 7", "print at line 8",
    ]
    assert stdout_writes_outside(source, "render") == [8, 9]


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {CLI}), ids=lambda p: p.name
)
def test_only_the_cli_prints_or_serializes(path):
    assert output_uses(path.read_text()) == []


def test_only_the_renderer_writes_to_stdout():
    assert stdout_writes_outside(CLI.read_text(), RENDERER) == []
