"""The benchmark's own tests: smoke-size runs of every workload, proof
that a wrong answer is counted as a failed op, and agreement between the
metrics the harness prints and those BENCHMARK.json declares.

Run with ``python -m pytest bench/test_bench.py``.  Nothing here asserts
on a timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import session  # noqa: E402
from tracing import LAYERS, Tracer, layer_self_times  # noqa: E402
from workloads import BIGFIELD_DEGREE_LIMIT, WORKLOADS, generate  # noqa: E402

session.use_checkout_source()


def smoke_ops(workload):
    return session.set_up(workload, 7, "smoke")


def errors(results):
    return [r["error"] for r in results if r["error"] is not None]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_session_passes_its_checks(workload):
    results = session.run_ops(smoke_ops(workload))
    assert results and not errors(results)


def test_traced_replay_spans_every_op():
    # every op kind of every workload; prop31 stands in for the slower suites
    ops = [op for w in WORKLOADS for op in smoke_ops(w)
           if op["kind"] != "verify" or op["suite"] == "prop31"]
    tracer = Tracer()
    results = session.run_ops(ops, tracer)
    assert not errors(results)
    roots = [s for s in tracer.spans if s["name"] == "op"]
    assert len(roots) == len(ops)
    ids = {s["id"] for s in tracer.spans}
    assert all(s["parent"] in ids for s in tracer.spans if s["name"] != "op")
    own = layer_self_times(tracer.spans)
    assert set(own) == set(LAYERS)
    assert all(t > 0 for t in own.values())


def test_generator_is_seeded():
    assert generate("integer", 3) == generate("integer", 3)
    assert generate("integer", 3) != generate("integer", 4)
    assert generate("bigfield", 3, "smoke") == generate("bigfield", 3, "smoke")


def test_bigfield_stays_within_the_known_degree_limit():
    for op in generate("bigfield", 11):
        assert len(op["cv"]) - 1 <= BIGFIELD_DEGREE_LIMIT[op["q"]]


def _edit(select, change):
    """A perturbation that rewrites the JSON answer of the selected ops."""
    def perturb(op, out):
        if not select(op):
            return out
        payload = json.loads(out)
        change(payload)
        return json.dumps(payload)
    perturb.select = select
    return perturb


def _is(kind, **fields):
    return lambda op: op["kind"] == kind and all(op[k] == v for k, v in fields.items())


WRONG_PHI = _edit(_is("totient"), lambda p: p.update(phi=str(int(p["phi"]) + 1)))
MISSING_HIT = _edit(_is("lehmer", q=2), lambda p: p["rows"].pop(0))
SUITE_FLIPPED = _edit(_is("verify"), lambda p: p.update(ok=not p["ok"]))
WRONG_PART = _edit(_is("zsigmondy"),
                   lambda p: p.update(primitive_part=str(2 * int(p["primitive_part"]) + 1)))


@pytest.mark.parametrize("workload, perturb", [
    ("bigfield", WRONG_PHI),
    ("sweep", MISSING_HIT),
    ("sweep", SUITE_FLIPPED),
    ("integer", WRONG_PART),
    ("integer", SUITE_FLIPPED),
])
def test_perturbed_answer_is_a_failed_op(workload, perturb):
    ops = smoke_ops(workload)
    results = session.run_ops(ops, perturb=perturb)
    failed, attempted = bench_run.failures([{"ops": results}])
    assert failed == sum(map(perturb.select, ops)) > 0
    assert all(r["error"].startswith("wrong output") for r in results if r["error"])
    assert 0 < failed / attempted <= 1


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER)


def _last_line(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_exactly_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rc, lines = _last_line("--workload", "integer", "--seed", "5", "--seconds", "1",
                           "--trace", trace, "--size", "smoke")
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines = _last_line("--workload", "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0", cwd=tmp_path)
    assert rc != 0 and not lines
