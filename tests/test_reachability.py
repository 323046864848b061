"""Every package function is entered by a short list of CLI calls, or is
kept on a named list that says why.

The calls run in-process under ``sys.setprofile``, which sees each
Python function a call enters.  A function that no call enters and no
entry of ``KEPT`` names fails the rule, and so does a ``KEPT`` entry
that a call enters or that names no function."""

import ast
import contextlib
import io
import sys
from pathlib import Path

import lehmer_ff
from lehmer_ff.cli import run

# code objects carry the file names the modules were imported from
PACKAGE = Path(lehmer_ff.__file__).parent

# one call per subcommand and call path, spread over the three formats;
# each suite runs once, at small options where it takes any
CALLS = [
    (0, "totient", "x^4+x", "--q", "2"),
    (0, "totient", "(t+1)*x^2+t*x+1", "--q", "4", "--format", "json"),
    (0, "totient", "x^2+1", "--q", "9", "--format", "csv"),
    # the generator search of F_256 multiplies in its powers over F_2
    (0, "totient", "x^3+t", "--q", "256"),
    (0, "lehmer", "--q", "3", "--max-degree", "4", "--expand-units", "--format", "csv"),
    (0, "cyclotomic", "--n", "12", "--eval", "2"),
    (0, "cyclotomic", "--n", "30", "--format", "json"),
    (0, "zsigmondy", "--a", "2", "--n", "6"),
    (0, "zsigmondy", "--a", "2", "--n", "29", "--format", "json"),
    (0, "partitions", "--a", "2", "--n-max", "8", "--all", "--format", "csv"),
    (0, "partitions", "--a", "3", "--n-max", "6"),
    (0, "candidates", "--n-max", "60", "--format", "json"),
    (0, "verify", "--suite", "main-theorem", "--q", "3", "--max-degree", "3"),
    (0, "verify", "--suite", "prop31"),
    (0, "verify", "--suite", "prop36", "--format", "json"),
    (0, "verify", "--suite", "cyclo-lemmas"),
    # the totient bound fails at 3, 6, 12, 16, 24 and 48: a mismatch, exit 1
    (1, "verify", "--suite", "bounds", "--n-max", "100", "--format", "csv"),
    (0, "verify", "--suite", "oracle"),
]

FIELD_ELEMENTS = (
    "library API: FieldElement arithmetic, which bench/probe.py times and "
    "the kernel tests use as their schoolbook reference"
)
SPEC_VALUE = (
    "library API: FieldSpec compares, hashes and pickles by (p, k), so "
    "fields stay equal after the intern cache evicts and across processes"
)
POLY_API = "library API: Poly arithmetic, through which the tests check the kernels"
BENCH_POLY = "bench/ calls it on Poly values in checks.py, probe.py or workloads.py"
ONE_POLY_ORACLE = (
    "named oracle for one polynomial up to ORACLE_CAP: tests/test_totient.py, the "
    "criterion 7 test, tests/test_external_oracle.py and bench/probe.py call it"
)

# package functions that no call in CALLS enters, each with why it stays
KEPT = {
    "cli.main": "the console script's entry point; the calls enter run() below it",
    "ffield.FieldSpec.__reduce__": SPEC_VALUE,
    "ffield.FieldSpec.__eq__": SPEC_VALUE,
    "ffield.FieldSpec.__repr__": "names the field in error messages of the element API",
    "ffield.FieldSpec.zero": FIELD_ELEMENTS,
    "ffield.FieldSpec.one": FIELD_ELEMENTS,
    "ffield.FieldSpec.element": "bench/probe.py builds its field-op samples with it",
    "ffield.FieldSpec.elements": FIELD_ELEMENTS,
    "ffield.FieldElement.is_zero": FIELD_ELEMENTS,
    "ffield.FieldElement._coerce": FIELD_ELEMENTS,
    "ffield.FieldElement.__add__": FIELD_ELEMENTS,
    "ffield.FieldElement.__sub__": FIELD_ELEMENTS,
    "ffield.FieldElement.__mul__": FIELD_ELEMENTS,
    "ffield.FieldElement.__neg__": FIELD_ELEMENTS,
    "ffield.FieldElement.__truediv__": FIELD_ELEMENTS,
    "ffield.FieldElement.__pow__": FIELD_ELEMENTS,
    "ffield.FieldElement.inverse": FIELD_ELEMENTS,
    "ffield.FieldElement.__eq__": FIELD_ELEMENTS,
    "ffield.FieldElement.__hash__": FIELD_ELEMENTS,
    "ffield.FieldElement.__str__": FIELD_ELEMENTS,
    "ffield.FieldElement.__repr__": FIELD_ELEMENTS,
    "fpoly.Poly.__init__": BENCH_POLY,
    "fpoly.Poly.zero": POLY_API,
    "fpoly.Poly.x": BENCH_POLY,
    "fpoly.Poly.coeffs": POLY_API,
    "fpoly.Poly.is_monic": BENCH_POLY,
    "fpoly.Poly.__add__": POLY_API,
    "fpoly.Poly.__sub__": BENCH_POLY,
    "fpoly.Poly.__divmod__": BENCH_POLY,
    "fpoly.Poly.__floordiv__": POLY_API,
    "fpoly.Poly.__mod__": POLY_API,
    "fpoly.Poly.__eq__": BENCH_POLY,
    "fpoly.Poly.__repr__": POLY_API,
    "fpoly.Factorization.expand": POLY_API,
    "fpoly.poly_gcd": BENCH_POLY,
    "fpoly.poly_powmod": BENCH_POLY,
    "lehmer_search.mersenne_divisibility": (
        "named oracle: the tests and bench/probe.py check the one search against it"
    ),
    "totient.totient_bruteforce": ONE_POLY_ORACLE,
    "totient._trial_divisors": ONE_POLY_ORACLE,
    "lehmer_search.Partition.__str__": (
        "names the partition in exponent_map's InvalidInput, which no CLI call can raise"
    ),
}


def defined_functions(source: str) -> list[str]:
    """The qualified name of every ``def`` in a module source, spelled as
    the interpreter spells it: ``Class.method``, ``outer.<locals>.inner``."""
    names = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return names


def entered_functions(calls, modules: dict[str, str]) -> set[str]:
    """``module.qualname`` of each function that the zero-argument
    ``calls`` enter, for the code of the files that ``modules`` maps to
    module names."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return {
        f"{modules[code.co_filename]}.{code.co_qualname}"
        for code in codes
        if code.co_filename in modules
    }


def reach_findings(defined: dict, entered: set[str], kept: dict) -> list[str]:
    """Each function of ``defined`` (module -> qualnames) that is neither
    entered nor kept, then each kept name that is entered or undefined."""
    names = {
        f"{module}.{name}" for module, qualnames in defined.items() for name in qualnames
    }
    return (
        [f"not entered: {name}" for name in sorted(names - entered - set(kept))]
        + [f"kept but entered: {name}" for name in sorted(set(kept) & entered)]
        + [f"kept but not defined: {name}" for name in sorted(set(kept) - names)]
    )


SYNTHETIC = '''
def used():
    return helper() + Box().size

def helper():
    def inner():
        return 1
    return inner()

def spare():
    pass

class Box:
    @property
    def size(self):
        return 2

    def unused(self):
        pass
'''


def test_reach_rule_finds_what_it_names():
    namespace = {}
    exec(compile(SYNTHETIC, "synthetic.py", "exec"), namespace)
    defined = {"syn": defined_functions(SYNTHETIC)}
    assert defined["syn"] == [
        "used", "helper", "helper.<locals>.inner", "spare", "Box.size", "Box.unused",
    ]
    entered = entered_functions([namespace["used"]], {"synthetic.py": "syn"})
    assert entered == {
        "syn.used", "syn.helper", "syn.helper.<locals>.inner", "syn.Box.size",
    }
    kept = {"syn.spare": "a reason", "syn.Box.unused": "a reason"}
    assert reach_findings(defined, entered, kept) == []
    for name in kept:
        fewer = {k: v for k, v in kept.items() if k != name}
        assert reach_findings(defined, entered, fewer) == [f"not entered: {name}"]
    assert reach_findings(defined, entered, {**kept, "syn.used": "r"}) == [
        "kept but entered: syn.used"
    ]
    assert reach_findings(defined, entered, {**kept, "syn.gone": "r"}) == [
        "kept but not defined: syn.gone"
    ]


def _clear_caches() -> None:
    """Empty every cache of the package, so that what a cache holds from
    earlier tests does not hide the functions that fill it."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("lehmer_ff."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_every_package_function_is_entered_or_kept():
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {str(path): path.stem for path in paths}
    defined = {path.stem: defined_functions(path.read_text()) for path in paths}
    codes = []

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(run(list(argv)))

    _clear_caches()
    entered = entered_functions(
        [lambda argv=argv: call(argv) for _, *argv in CALLS], modules
    )
    assert codes == [code for code, *_ in CALLS]
    assert reach_findings(defined, entered, KEPT) == []
    assert all(reason.strip() for reason in KEPT.values())
