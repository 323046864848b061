"""Every name a package module imports is read somewhere in that module,
every name the package exports is read outside its own module, every
module constant is read by the package or the benchmark, every cache is
bounded, one function takes Frobenius steps, only the CLI's renderer
writes to stdout, and importing the CLI loads no standard module that
start-up does not need."""

import ast
import json
import os
import subprocess
import sys
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
    "mersenne_divisibility",
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


def bench_reads() -> set[str]:
    return set().union(*(names_read(p.read_text()) for p in (ROOT / "bench").glob("*.py")))


def test_every_export_is_read_outside_its_module():
    read_in = {p.stem: names_read(p.read_text()) for p in MODULES}
    bench = bench_reads()
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


# -- module constants ----------------------------------------------------------


def unread_constants(sources: dict[str, str], bench: set[str]) -> list[str]:
    """``module.NAME`` for each UPPER_CASE name that a module of ``sources``
    (module -> source) assigns at its top level and that no module loads,
    as a name or an attribute, and that ``bench`` does not hold.  An
    import alone is not a load, and reads in the tests do not count."""
    assigned, loaded = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            assigned += [
                (module, name.id)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and name.id.isupper()
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return [f"{m}.{name}" for m, name in assigned if name not in loaded | bench]


def test_unread_constant_is_found():
    sources = {
        "a": "LIMIT = 3\nUSED = 4\n_HIDDEN = 5\nlower = 6\nX, Y = 1, 2\n"
             "def f(n):\n    return n < USED\n",
        "b": "from .a import LIMIT\nfrom . import a\nZ: int = 7\n"
             "def g():\n    return a._HIDDEN + X\n",
    }
    assert unread_constants(sources, bench=set()) == ["a.LIMIT", "a.Y", "b.Z"]
    assert unread_constants(sources, bench={"Y", "Z"}) == ["a.LIMIT"]


def test_every_constant_is_read_by_the_package_or_the_benchmark():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_constants(sources, bench_reads()) == []


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


# -- one distinct-degree walk --------------------------------------------------

FROBENIUS_WALK = "fpoly._degree_groups"


def _is_frobenius_step(node) -> bool:
    """A call ``_powmod_cv(spec, g, spec.q, f)``: g^q mod f."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    exponent = node.args[2:3] + [k.value for k in node.keywords if k.arg == "e"]
    return name == "_powmod_cv" and [ast.unparse(e) for e in exponent] == ["spec.q"]


def frobenius_callers(source: str) -> list[str]:
    """The innermost function around each Frobenius step of a source."""
    found = []

    def visit(node, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if _is_frobenius_step(child):
                found.append(name)
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def test_frobenius_step_is_found():
    source = (
        "def walk(spec, h, f):\n"
        "    return _powmod_cv(spec, h, spec.q, f)\n"
        "def outer(spec, h, f):\n"
        "    def inner():\n"
        "        return fpoly._powmod_cv(spec, h, e=spec.q, f=f)\n"
        "    return _powmod_cv(spec, h, spec.q - 1, f), _powmod_cv(spec, h, 2, f)\n"
    )
    assert frobenius_callers(source) == ["walk", "inner"]


def test_one_function_takes_frobenius_steps():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in frobenius_callers(path.read_text())
    ]
    assert found == [FROBENIUS_WALK]


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


# -- start-up cost -------------------------------------------------------------

# dataclasses brings inspect, ast, dis and tokenize; csv and signal serve
# only CSV output and the console entry point, which import them there
STARTUP_EXCLUDED = {"dataclasses", "inspect", "csv", "signal"}

_IMPORT_CLI_SCRIPT = """
import json, sys
before = set(sys.modules)
import lehmer_ff.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_no_excluded_module():
    src = ROOT / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    new = set(json.loads(proc.stdout))
    assert "lehmer_ff.cli" in new
    assert new & STARTUP_EXCLUDED == set()


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module a source imports, at any depth;
    relative imports within the package do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_finds_nested_and_dotted_imports():
    source = (
        "import os.path, csv\n"
        "from dataclasses import dataclass\n"
        "from . import cyclo\n"
        "def f():\n"
        "    import signal\n"
    )
    assert imported_modules(source) == {"os", "csv", "dataclasses", "signal"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text())
