"""CLI surface: subcommands, formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lehmer_ff import InvalidInput, Partition, mersenne_divisibility, partitions_of
from lehmer_ff.cli import build_parser, run
from lehmer_ff.fpoly import DEGREE_CAP
from lehmer_ff.intmath import euler_phi
from lehmer_ff.suites import SUITE_NAMES


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_totient_text(capsys):
    code, out, _ = run_cli(capsys, "totient", "x^4+x", "--q", "2")
    assert code == 0
    assert "x^4+x" in out and "x^2+x+1|1" in out


def test_totient_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "totient", "x^4+x", "--q", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["phi"] == "3" and payload["divides"] is True
    assert json.dumps(payload, indent=2, ensure_ascii=False) + "\n" == out


def test_totient_extension_field(capsys):
    code, out, _ = run_cli(
        capsys, "totient", "(t+1)*x^2+t*x+1", "--p", "2", "--k", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["q"] == 4


def test_totient_field_required(capsys):
    code, _, err = run_cli(capsys, "totient", "x^2+x")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("totient", "x", "--q", "2", "--k", "2"),
        ("totient", "x", "--q", "4", "--p", "2"),
        ("totient", "x", "--q", "4", "--p", "2", "--k", "2"),
        ("lehmer", "--q", "2", "--k", "1", "--max-degree", "4"),
    ],
)
def test_q_with_p_or_k_is_usage_error(capsys, argv):
    # --q names the whole field, so a --p or --k beside it would be dropped
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: give the field as --q or as --p [--k], not both\n"


def test_p_without_k_is_the_prime_field(capsys):
    code, out, _ = run_cli(capsys, "totient", "x^2+1", "--p", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["q"] == 3


def test_totient_bad_poly_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "totient", "x^^2", "--q", "2")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(capsys, "totient", "x", "--nope")[0] == 2


def test_lehmer_table(capsys):
    code, out, err = run_cli(
        capsys, "lehmer", "--q", "3", "--max-degree", "8", "--expand-units"
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("q ")]
    assert len(rows) == 6
    assert "6 polynomial" in err  # per-sweep diagnostics on stderr


def test_lehmer_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "lehmer", "--q", "2", "--max-degree", "6", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "q", "degree", "poly", "phi", "modulus_value", "divides", "reducible",
        "factors",
    ]
    assert len(rows) == 1 + 6
    assert rows[1][2] == "x^2+x"


def test_cyclotomic_text_and_eval(capsys):
    code, out, _ = run_cli(capsys, "cyclotomic", "--n", "12")
    assert code == 0
    assert "x^4-x^2+1" in out
    code, out, _ = run_cli(
        capsys, "cyclotomic", "--n", "6", "--eval", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["value"] == "3" and payload["degree"] == 2


def test_cyclotomic_eval_past_int_str_limit(capsys):
    from lehmer_ff import cyclotomic_eval

    code, out, err = run_cli(capsys, "cyclotomic", "--n", "1009", "--eval", "1000000")
    assert code == 0 and err == ""
    text = out.rstrip("\n").rsplit("value at 1000000: ", 1)[1]
    value = cyclotomic_eval(1009, 10**6)
    digits = len(text)
    assert 10 ** (digits - 1) <= value < 10**digits
    assert digits > 4300
    assert int(text[-18:]) == value % 10**18


def test_cyclotomic_degree_is_phi_of_n(capsys):
    for n in range(1, 301):
        code, out, _ = run_cli(capsys, "cyclotomic", "--n", str(n), "--format", "json")
        assert code == 0
        assert json.loads(out)["degree"] == euler_phi(n), n


@pytest.mark.parametrize(
    "poly, q, exponent",
    [
        ("x^100000000", "2", 100000000),
        (f"x^{DEGREE_CAP + 1}+1", "2", DEGREE_CAP + 1),
        ("(t^100000000)*x", "4", 100000000),
    ],
)
def test_exponent_past_the_cap_exits_3_at_once(capsys, poly, q, exponent):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "totient", poly, "--q", q)
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == ""
    assert err == f"error: exponent {exponent} exceeds the cap {DEGREE_CAP}\n"


def test_element_exponent_below_the_cap_stays_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "totient", "(t^5)*x", "--q", "4")
    assert code == 2 and out == ""
    assert err == "error: exponent 5 out of range in 't^5'\n"


def test_totient_over_f65536(capsys):
    code, out, _ = run_cli(
        capsys, "totient", "x^3+x+1", "--q", "65536", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == str(65536**3 - 1)
    assert payload["factors"] == [["x^3+x+1", 1]]


def test_zsigmondy_exception_reported(capsys):
    code, out, _ = run_cli(capsys, "zsigmondy", "--a", "2", "--b", "1", "--n", "6")
    assert code == 0
    assert "N6" in out
    code, out, _ = run_cli(
        capsys, "zsigmondy", "--a", "2", "--b", "1", "--n", "11", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["primitive_primes"] == ["23", "89"]


def test_zsigmondy_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "zsigmondy", "--a", "2", "--b", "1", "--n", "40",
        "--factoring-budget", "1000",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("n", ["10000000", "100000000"])
def test_over_budget_zsigmondy_exits_3_at_once(capsys, n):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "zsigmondy", "--a", "3", "--n", n)
    assert time.perf_counter() - t0 < 1
    assert code == 3 and out == ""
    assert err == f"error: 3^{n} - 1^{n} exceeds the factoring budget {2**64}\n"


def test_zsigmondy_bad_args_exit_code(capsys):
    assert run_cli(capsys, "zsigmondy", "--a", "2", "--b", "4", "--n", "3")[0] == 2


def test_partitions_passing_only(capsys):
    code, out, _ = run_cli(
        capsys, "partitions", "--a", "3", "--n-max", "6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    solutions = {(r["n"], tuple(r["parts"])) for r in payload["rows"]}
    assert (2, (1, 1)) in solutions and (4, (1, 1, 1, 1)) in solutions
    assert all(r["divides"] for r in payload["rows"])
    em = {r["n"]: r["exponent_map"] for r in payload["rows"]}
    assert em[2] == {"1": -1, "2": 1}


def test_partitions_all_includes_failures(capsys):
    _, out_pass, _ = run_cli(capsys, "partitions", "--a", "4", "--n-max", "5")
    _, out_all, _ = run_cli(capsys, "partitions", "--a", "4", "--n-max", "5", "--all")
    assert len(out_all.splitlines()) > len(out_pass.splitlines())


@pytest.mark.parametrize("a", ["2", "3"])
def test_partitions_are_the_passing_rows_of_all_in_order(capsys, a):
    argv = ("partitions", "--a", a, "--n-max", "14", "--format", "json")
    _, out_pass, _ = run_cli(capsys, *argv)
    _, out_all, _ = run_cli(capsys, *argv, "--all")
    rows_all = json.loads(out_all)["rows"]
    assert len(rows_all) == sum(len(list(partitions_of(n))) for n in range(2, 15))
    assert json.loads(out_pass)["rows"] == [r for r in rows_all if r["divides"]]


@pytest.mark.parametrize("a", [2, 3, 4, 10**20])
def test_partitions_all_rows_agree_with_the_divisibility_oracle(capsys, a):
    # --all reads the one search; the oracle divides each product directly
    argv = ("partitions", "--a", str(a), "--n-max", "14", "--all", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == sum(len(list(partitions_of(n))) for n in range(2, 15))
    assert [row["divides"] for row in rows] == [
        mersenne_divisibility(a, Partition(row["parts"])) for row in rows
    ]


def test_partitions_all_at_the_cap_with_a_large_base_runs(capsys):
    # a per-partition divisibility test would divide 50-digit powers for
    # each of the 28,598 rows
    t0 = time.perf_counter()
    code, _, _ = run_cli(
        capsys, "partitions", "--a", str(10**50), "--n-max", "30", "--all",
        "--format", "csv",
    )
    assert time.perf_counter() - t0 < 3
    assert code == 0


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--a", "3", "--n-max", "0"), "--n-max"),
        (("--a", "3", "--n-max", "-4"), "--n-max"),
        (("--a", "1", "--n-max", "1"), "--a"),
        (("--a", "0", "--n-max", "1"), "--a"),
    ],
)
def test_partitions_rejects_what_it_cannot_search(capsys, argv, flag):
    code, out, err = run_cli(capsys, "partitions", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be >= 2\n"


def test_totient_past_the_field_cap_fails_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "totient", "x+1", "--q", "1000000007")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert "supported cap 65536" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("totient", "x", "--p", "3", "--k", "10000000"),
        ("lehmer", "--p", "5", "--k", "20000000", "--max-degree", "2"),
        ("totient", "x", "--p", "3", "--k", "100000000"),
        ("totient", "x", "--p", str(2**11213 - 1)),  # a 3,376-digit prime
    ],
    ids=["p3-k1e7", "lehmer-p5-k2e7", "p3-k1e8", "p-mersenne-11213"],
)
def test_field_past_the_cap_by_p_or_k_fails_fast(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: q = ")
    assert err.endswith(" exceeds the supported cap 65536\n")


def test_candidates_output(capsys):
    code, out, _ = run_cli(capsys, "candidates", "--n-max", "60", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["refined"] == [8, 9, 10, 12, 14, 18, 20, 24, 30]
    # the stated coarse list up to 60 plus 28 and 36, as in criterion 6
    assert payload["coarse"] == list(range(7, 23)) + [
        24, 26, 28, 30, 34, 36, 38, 42, 46, 50, 54
    ]


def test_verify_prop36_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop36", "--n-max", "30")
    assert code == 0
    assert "PASS" in out and "MISMATCH" not in out


@pytest.mark.parametrize(
    "argv,label",
    [
        (("prop36", "--n-max", "50"), "for base 2, n <= 50"),
        (("prop31", "--a-max", "8", "--n-max", "30"), "a in [3, 8], n <= 30"),
    ],
)
def test_verify_partition_suites_reach(capsys, argv, label):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--suite", *argv, "--format", "json")
    assert time.perf_counter() - t0 < 5
    payload = json.loads(out)
    assert code == 0 and payload["ok"] is True
    assert [c["label"].endswith(label) for c in payload["checks"]] == [True]


def test_verify_prop31_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "prop31")
    assert code == 0


def test_verify_main_theorem_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "main-theorem", "--q", "3", "--max-degree", "6"
    )
    assert code == 0
    assert "q=3" in out


@pytest.mark.parametrize("q,degree", [("2", "1"), ("2", "4"), ("2", "5"), ("3", "1")])
def test_verify_main_theorem_below_the_classified_degrees(capsys, q, degree):
    # the classified hits have degrees 2, 4 and 6 (q = 2) and 2 (q = 3);
    # a sweep that stops short of them expects only those it reaches
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "main-theorem", "--q", q, "--max-degree", degree
    )
    assert code == 0
    assert "FAIL" not in out and out.endswith("suite main-theorem: ok\n")


def test_verify_main_theorem_over_oracle_cap_exits_3(capsys):
    # 5 + 25 + ... + 5^d monic polys: 2,441,405 at d = 9, refused before
    # any scanning
    for degree in ("12", "9"):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "main-theorem", "--q", "5",
            "--max-degree", degree,
        )
        assert code == 3
        assert out == "" and "oracle cap" in err


def test_verify_main_theorem_far_past_the_oracle_cap_exits_3_at_once(capsys):
    # 2^1000000 is past the cap by bit lengths alone: no power is taken and
    # the message formats the degree with decimal_str
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--suite", "main-theorem", "--q", "2", "--max-degree", "1000000"
    )
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert out == "" and "oracle cap" in err and "degree 1000000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("cyclotomic", "--n", "65537"),
        ("cyclotomic", "--n", str(10**18)),
        ("cyclotomic", "--n", "65536", "--eval", "1000000"),
        ("cyclotomic", "--n", "60000", "--eval", str(10**12)),
        ("cyclotomic", "--n", "65537", "--format", "json"),
        ("totient", f"x^{DEGREE_CAP + 1}+1", "--q", "2", "--format", "json"),
        ("partitions", "--a", "2", "--n-max", "31", "--all"),
        ("partitions", "--a", "2", "--n-max", str(10**12), "--all"),
    ],
)
def test_oversized_requests_exit_3_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert out == "" and "exceeds the cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lehmer", "--q", "2", "--max-degree", "4"),
        ("verify", "--suite", "main-theorem", "--q", "2", "--max-degree", "4"),
    ],
)
def test_failed_hit_guard_exits_1(capsys, monkeypatch, argv):
    # the package attribute ``lehmer_ff.totient`` is the function, so the
    # module is patched through importlib
    totient_module = importlib.import_module("lehmer_ff.totient")
    monkeypatch.setattr(
        totient_module, "hit_structure_violations", lambda spec, hits: ["injected"]
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and err == "error: injected\n"


@pytest.mark.parametrize(
    "argv,oracle_calls",
    [
        (("lehmer", "--q", "2", "--max-degree", "12"), 6),
        (("lehmer", "--q", "3", "--max-degree", "8", "--expand-units"), 3),
    ],
)
def test_lehmer_factors_each_monic_hit_once(capsys, monkeypatch, argv, oracle_calls):
    # each monic hit is factored once, by the trial-division oracle; its
    # report and those of its unit multiples reuse that factorization
    fpoly_module = importlib.import_module("lehmer_ff.fpoly")
    calls = {"_factor_cv": 0, "_factor_cv_bruteforce": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(fpoly_module, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(fpoly_module, name, counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert calls == {"_factor_cv": 0, "_factor_cv_bruteforce": oracle_calls}


def test_largest_requests_inside_the_caps_run(capsys):
    from lehmer_ff.cyclo import INDEX_CAP

    code, out, _ = run_cli(capsys, "cyclotomic", "--n", str(INDEX_CAP))
    assert code == 0 and out == f"Phi_{INDEX_CAP} = x^{INDEX_CAP // 2}+1\n"
    # phi(65521) * bit_length(3) = 131,040 bits, half the value cap
    code, out, _ = run_cli(
        capsys, "cyclotomic", "--n", "65521", "--eval", "3", "--format", "json"
    )
    assert code == 0
    value = json.loads(out)["value"]  # (3^65521 - 1) / 2
    assert len(value) == 31262
    assert int(value[-18:]) == (pow(3, 65521, 2 * 10**18) - 1) // 2


@pytest.mark.parametrize("n_max", [10001, 10**12])
def test_candidates_has_no_cap(capsys, n_max):
    # no n from lehmer_search.CANDIDATE_TAIL = 59 on enters either set, so
    # every n_max past it prints the sets of n_max = 200
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "candidates", "--n-max", str(n_max))
    assert time.perf_counter() - t0 < 1
    assert code == 0 and err == ""
    assert out == run_cli(capsys, "candidates", "--n-max", "200")[1]
    assert out.endswith(", 50, 54\nrefined: 8, 9, 10, 12, 14, 18, 20, 24, 30\n")


def test_partitions_all_at_the_cap_runs(capsys):
    from lehmer_ff.cli import PARTITIONS_ALL_N_MAX_CAP

    n_max = PARTITIONS_ALL_N_MAX_CAP
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "partitions", "--a", "2", "--n-max", str(n_max), "--all", "--format", "csv"
    )
    assert time.perf_counter() - t0 < 10
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == sum(len(list(partitions_of(n))) for n in range(2, n_max + 1))


def test_lehmer_beyond_oracle_reach(capsys):
    code, out, _ = run_cli(
        capsys, "lehmer", "--q", "2", "--max-degree", "40", "--format", "json"
    )
    assert code == 0
    polys = [row["poly"] for row in json.loads(out)["rows"]]
    assert polys == [
        "x^2+x", "x^4+x", "x^6+x^2+x", "x^6+x^4+x+1", "x^6+x^5+x", "x^6+x^5+x^2+1",
    ]


def test_verify_bounds_reports_known_failures(capsys):
    # the totient lower bound genuinely fails at six small n; the suite
    # must say so and exit 1 rather than hide it
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "bounds", "--n-max", "1000", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    phi_check = payload["checks"][1]
    assert phi_check["found"] == [3, 6, 12, 16, 24, 48]
    assert payload["checks"][0]["ok"] is True


@pytest.mark.parametrize("n_max", ["1000001", str(10**12)])
def test_verify_bounds_has_no_cap(capsys, n_max):
    # the primorial tail settles every n >= 2310, so any n_max takes the
    # same work and finds the same six n
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify", "--suite", "bounds", "--n-max", n_max, "--format", "json"
    )
    assert time.perf_counter() - t0 < 1
    assert code == 1 and err == ""
    h_check, phi_check = json.loads(out)["checks"]
    assert h_check["ok"] and h_check["label"].endswith(f"for n <= {n_max}")
    assert phi_check["found"] == [3, 6, 12, 16, 24, 48]
    assert phi_check["label"].endswith(f"for 2 <= n <= {n_max}")


def test_verify_runs_twice_identically(capsys):
    # the oracle suite's first run fills the totient mask cache, its second reads it
    importlib.import_module("lehmer_ff.totient")._multiple_masks.cache_clear()
    for suite in (("prop36", "--n-max", "20"), ("oracle",)):
        args = ("verify", "--suite", *suite, "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, out1) == (code2, out2)


def test_verify_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--format", "json"
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n" == out


# the benchmark's sweep passes --workers 1; the flag is accepted and ignored
@pytest.mark.parametrize(
    "argv",
    [
        ("lehmer", "--q", "2", "--max-degree", "6", "--workers", "1", "--format", "json"),
        ("verify", "--suite", "oracle", "--workers", "1", "--format", "json"),
    ],
)
def test_benchmark_argv_runs_as_without_workers(capsys, argv):
    i = argv.index("--workers")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert (code, out) == run_cli(capsys, *argv[:i], *argv[i + 2:])[:2]


@pytest.mark.parametrize("command", [("lehmer", "--q", "2", "--max-degree", "4")] + [
    ("verify", "--suite", name) for name in SUITE_NAMES
])
def test_workers_below_one_is_a_usage_error(capsys, command):
    for workers in ("0", "-2"):
        code, out, err = run_cli(capsys, *command, "--workers", workers)
        assert code == 2 and out == "" and "workers must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("main-theorem", "--q", "2", "--max-degree", "0"),
        ("main-theorem", "--q", "2", "--max-degree", "-1"),
        ("prop31", "--n-max", "0"),
        ("prop31", "--a-max", "0"),
        ("prop31", "--a-max", "-3"),
        ("prop36", "--n-max", "0"),
        ("prop36", "--n-max", "-1"),
        ("bounds", "--n-max", "0"),
    ],
)
def test_verify_rejects_nonpositive_options(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--suite", *argv)
    assert code == 2 and out == "" and "must be >= 1" in err


@pytest.mark.parametrize(
    "argv,flags",
    [
        (("cyclo-lemmas", "--n-max", "5"), "--n-max"),
        (("oracle", "--q", "2"), "--q"),
        (("main-theorem", "--q", "2", "--n-max", "5", "--a-max", "3"), "--n-max, --a-max"),
        (("prop31", "--max-degree", "4"), "--max-degree"),
        (("prop36", "--a-max", "4", "--n-max", "12"), "--a-max"),
        (("bounds", "--q", "3", "--n-max", "100"), "--q"),
    ],
)
def test_verify_rejects_options_the_suite_does_not_read(capsys, argv, flags):
    code, out, err = run_cli(capsys, "verify", "--suite", *argv)
    assert code == 2 and out == ""
    assert err == f"error: suite {argv[0]} does not read {flags}\n"


def test_run_suite_defaults_only_missing_options():
    from lehmer_ff.suites import run_suite

    # bench/probe.py passes workers= to every suite
    for name, opts in (("prop36", {"n_max": 12}), ("cyclo-lemmas", {})):
        with_workers = run_suite(name, workers=1, **opts).as_payload()
        assert with_workers == run_suite(name, **opts).as_payload()
    default = run_suite("prop36", n_max=None).as_payload()
    assert default == run_suite("prop36", n_max=30).as_payload()
    with pytest.raises(InvalidInput):
        run_suite("prop36", n_max=0)
    with pytest.raises(InvalidInput):
        run_suite("main-theorem", q=2, max_degree=0)


@pytest.mark.parametrize("name", ["nope", "Bounds"])
def test_run_suite_refuses_an_unknown_name(name):
    from lehmer_ff.suites import run_suite

    with pytest.raises(InvalidInput, match="^unknown suite"):
        run_suite(name)


def test_run_suite_checks_every_option():
    from lehmer_ff.suites import run_suite

    with pytest.raises(InvalidInput, match="^suite oracle does not read --n-max$"):
        run_suite("oracle", n_max=3)
    with pytest.raises(InvalidInput, match="^workers must be >= 1$"):
        run_suite("oracle", workers=0, n_max=3)
    # options the suite reads are checked in the order it lists them
    with pytest.raises(InvalidInput, match="^a_max must be >= 1, got 0$"):
        run_suite("prop31", n_max=0, a_max=0)


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# -- one parser per process ----------------------------------------------------


def test_parser_is_built_once_across_runs(capsys):
    build_parser.cache_clear()
    for argv in (
        ["candidates", "--n-max", "30"],
        ["cyclotomic", "--n", "12", "--eval", "2"],
        ["totient", "x", "--nope"],
        ["partitions", "--a", "3", "--n-max", "6"],
    ) * 5:
        run(argv)
    capsys.readouterr()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 19)


@pytest.mark.parametrize(
    "argv",
    [
        ("totient", "x^4+x", "--q", "2"),
        ("zsigmondy", "--a", "2", "--n", "6", "--format", "csv"),
        ("verify", "--suite", "prop31", "--format", "json"),
        ("totient", "x^2+x"),  # usage error from the command
        ("cyclotomic", "--n"),  # usage error from argparse
    ],
)
def test_same_argv_gives_identical_results(capsys, argv):
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_usage_error_between_calls_changes_nothing(capsys):
    argv = ("partitions", "--a", "4", "--n-max", "6", "--format", "json")
    first = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, "partitions", "--a", "4", "--n-max", "x")
    assert code == 2 and out == "" and "invalid int value" in err
    assert run_cli(capsys, *argv) == first


def test_options_do_not_leak_into_the_next_call(capsys):
    argv = ["verify", "--suite", "prop36"]
    run_cli(capsys, *argv, "--n-max", "12", "--format", "csv")
    after = run_cli(capsys, *argv)
    reused = vars(build_parser().parse_args(argv))
    build_parser.cache_clear()
    assert run_cli(capsys, *argv) == after
    assert vars(build_parser().parse_args(argv)) == reused
    assert "n <= 30" in after[1]  # the default n_max, not the 12 before


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_factoring_budget_below_one_is_a_usage_error(capsys, budget):
    # no budget below 1 admits any value, so it is bad input, not a limit
    code, out, err = run_cli(
        capsys, "zsigmondy", "--a", "2", "--n", "3", "--factoring-budget", budget
    )
    assert code == 2 and out == ""
    assert err == f"error: factoring budget must be >= 1, got {budget}\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
def test_closed_stdout_ends_quietly_by_sigpipe():
    # 117 KB of rows, more than a pipe buffer holds, so the writer meets
    # the closed pipe
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lehmer_ff.cli", "partitions", "--a", "2",
         "--n-max", "16", "--all"],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert b"Traceback" not in err


# -- no runtime dependency -----------------------------------------------------

# a fresh interpreter: the test process itself imports mpmath as an oracle
_NO_MPMATH_SCRIPT = """
import contextlib, io, json, sys
from lehmer_ff.cli import run
argvs = (
    ["candidates", "--n-max", "200"],
    ["partitions", "--a", "3", "--n-max", "8"],
    ["verify", "--suite", "bounds", "--n-max", "1000"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in argvs]
print(json.dumps({"codes": codes, "mpmath": "mpmath" in sys.modules}))
"""


def test_cli_runs_without_loading_mpmath():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # bounds exits 1 on the known counterexamples of criterion 10
    assert json.loads(proc.stdout) == {"codes": [0, 0, 1], "mpmath": False}


# -- pinned output bytes -------------------------------------------------------

FORMAT_VARIANTS = (("--format", "text"), ("--format", "json"), ("--format", "csv"))


def _in_formats(*argvs):
    return [(*argv, *fmt) for argv in argvs for fmt in FORMAT_VARIANTS]


# calls whose (argv, exit code, stdout, stderr) are pinned, by subcommand:
# every format, and the package's own usage and limit errors
PINNED_CALLS = {
    "totient": _in_formats(
        ("totient", "x^4+x", "--q", "2"),
        ("totient", "(t+1)*x^2+t*x+1", "--p", "2", "--k", "2"),
        ("totient", "2*x^3+x+1", "--q", "9"),
    ) + [
        ("totient", "x^2+x"),
        ("totient", "x^^2", "--q", "2"),
        ("totient", "1", "--q", "2"),
        ("totient", "x", "--q", "4", "--p", "2"),
        ("totient", "x+1", "--q", "1000000007"),
        ("totient", "x+1", "--q", "6"),
    ],
    "lehmer": _in_formats(
        ("lehmer", "--q", "2", "--max-degree", "12"),
        ("lehmer", "--q", "3", "--max-degree", "8", "--expand-units"),
        ("lehmer", "--p", "2", "--k", "2", "--max-degree", "6", "--workers", "1"),
    ) + [
        ("lehmer", "--q", "2", "--max-degree", "4", "--workers", "0"),
        ("lehmer", "--q", "2", "--k", "1", "--max-degree", "4"),
        ("lehmer", "--max-degree", "4"),
    ],
    "cyclotomic": _in_formats(
        ("cyclotomic", "--n", "12"),
        ("cyclotomic", "--n", "1"),
        ("cyclotomic", "--n", "6", "--eval", "2"),
        ("cyclotomic", "--n", "105", "--eval", "-3"),
    ) + [
        ("cyclotomic", "--n", "0"),
        ("cyclotomic", "--n", "65537"),
        ("cyclotomic", "--n", "65536", "--eval", "1000000"),
    ],
    "zsigmondy": _in_formats(
        ("zsigmondy", "--a", "2", "--n", "11"),
        ("zsigmondy", "--a", "2", "--n", "6"),
        ("zsigmondy", "--a", "3", "--n", "2"),
        ("zsigmondy", "--a", "5", "--b", "3", "--n", "12"),
    ) + [
        ("zsigmondy", "--a", "2", "--b", "4", "--n", "3"),
        ("zsigmondy", "--a", "2", "--n", "1"),
        ("zsigmondy", "--a", "2", "--n", "40", "--factoring-budget", "1000"),
    ],
    "partitions": _in_formats(
        ("partitions", "--a", "3", "--n-max", "8"),
        ("partitions", "--a", "4", "--n-max", "6", "--all"),
        ("partitions", "--a", "2", "--n-max", "2"),
    ) + [
        ("partitions", "--a", "1", "--n-max", "5"),
        ("partitions", "--a", "3", "--n-max", "1"),
    ],
    "candidates": _in_formats(("candidates", "--n-max", "60")) + [
        ("candidates", "--n-max", "5"),
        ("candidates", "--n-max", "10001"),
    ],
    "verify": _in_formats(
        ("verify", "--suite", "main-theorem", "--q", "2", "--max-degree", "6"),
        ("verify", "--suite", "main-theorem", "--q", "3", "--max-degree", "4"),
        ("verify", "--suite", "prop31"),
        ("verify", "--suite", "prop36", "--n-max", "20"),
        ("verify", "--suite", "bounds", "--n-max", "2000"),
    ) + [
        ("verify", "--suite", "main-theorem", "--format", "json"),
        ("verify", "--suite", "cyclo-lemmas"),
        ("verify", "--suite", "oracle", "--format", "json"),
        ("verify", "--suite", "oracle", "--q", "2"),
        ("verify", "--suite", "prop36", "--n-max", "0"),
        ("verify", "--suite", "prop31", "--workers", "0"),
        ("verify", "--suite", "main-theorem", "--q", "5", "--max-degree", "9"),
        ("verify", "--suite", "bounds", "--n-max", "1000001"),
    ],
}

# sha256 over the calls of each subcommand
PINNED_DIGESTS = {
    "totient": "c5621ca59c064488e0b376051983034b4f55f367740ce6c57bb545b8bab42c07",
    "lehmer": "3fe0a08f6ba8c757f3270bcd1b88def500dff085b01c257a46ea45fda61b4565",
    "cyclotomic": "7be0aef6518e7ad496f854fa54476a96a4f7620c9afc47f4300a6bd0f68e1c9b",
    "zsigmondy": "eaea8c9beafabb5171680cf6991713c0774d625cff9082012a8ded9700e01c68",
    "partitions": "51de79471a54c98d6394b7af686b0a108875eb63cccbd0c65b874c7546088542",
    "candidates": "a5ab72acae9232f214aa6c24b370a80678a9ba6a168d1d90b3b9d50374714f42",
    "verify": "070fa40697cb447c40055688687403433ca0f5b1960c98699f4d6947b2990adc",
}

# argparse words its errors differently across Python versions, so only
# the exit code of these calls is pinned
ARGPARSE_ERRORS = [
    ("cyclotomic", "--n"),
    ("totient", "x", "--nope"),
    ("partitions", "--a", "4", "--n-max", "x"),
    ("lehmer", "--q", "2", "--max-degree", "4", "--format", "xml"),
    ("verify", "--suite", "nope"),
    ("nope",),
]


def output_digest(calls) -> str:
    digest = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
        record = [list(argv), code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def test_output_bytes_are_pinned():
    # a refactor of the output path must leave every byte as it is; a
    # changed digest names its subcommand in the dict diff
    digests = {command: output_digest(calls) for command, calls in PINNED_CALLS.items()}
    assert digests == PINNED_DIGESTS
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [run(list(argv)) for argv in ARGPARSE_ERRORS]
    assert codes == [2] * len(ARGPARSE_ERRORS)
