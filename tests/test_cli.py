import ast
import io
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from negmono import acceptance, cli, matcore, monogamy, search, specialcase
from negmono.cli import main
from negmono.errors import NoConvergenceError, RootNotBracketedError, StepFailedError
from negmono.matcore import complex_gaussian, matrix_from_dict, matrix_to_dict
from negmono.monogamy import ineq2_report, ineq3_report, ineq4_report, monotonicity_report
from negmono.qstate import _random_coeffs, coeff_matrices, random_state, state_from_dict
from negmono.search import deserialize_instance
from negmono.specialcase import BOUNDS, STEPS, interlacing_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_ndjson(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


def test_verify_conjecture_basic(capsys):
    code, out, _ = run_cli(
        capsys, "verify-conjecture", "--dims", "2x2x2", "--trials", "3", "--seed", "1"
    )
    assert code == 0
    records = parse_ndjson(out)
    # five reports per trial: three bounds plus two monotonicity checks
    assert len(records) == 15
    names = {r["name"] for r in records}
    assert names == {"ineq2", "ineq3", "ineq4", "monotonicity_AB", "monotonicity_AC"}
    assert all(r["holds"] for r in records)
    assert all(r["seed"] == 1 for r in records)


def test_verify_conjecture_reruns_byte_identical(capsys):
    args = ("verify-conjecture", "--dims", "2x3x3", "--trials", "4", "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("NEGMONO_SEED", "12")
    _, out_env, _ = run_cli(capsys, "verify-conjecture", "--trials", "2")
    monkeypatch.delenv("NEGMONO_SEED")
    _, out_flag, _ = run_cli(capsys, "verify-conjecture", "--trials", "2", "--seed", "12")
    assert out_env == out_flag
    assert parse_ndjson(out_env)[0]["seed"] == 12
    # explicit flag wins over the environment
    monkeypatch.setenv("NEGMONO_SEED", "99")
    _, out_both, _ = run_cli(capsys, "verify-conjecture", "--trials", "2", "--seed", "12")
    assert out_both == out_flag


SEEDED = ["verify-conjecture", "special-case", "perm-lemma", "drury-check", "selftest"]


@pytest.mark.parametrize("command", SEEDED)
def test_negative_seed_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--seed=-1")
    assert code == 2 and out == ""
    assert err.strip().splitlines() == ["error: --seed must be a non-negative integer, got '-1'"]


@pytest.mark.parametrize("command", SEEDED)
@pytest.mark.parametrize("value", ["abc", "1.5", "-4"])
def test_bad_seed_environment_is_a_usage_error(capsys, monkeypatch, command, value):
    monkeypatch.setenv("NEGMONO_SEED", value)
    code, out, err = run_cli(capsys, command)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [
        f"error: NEGMONO_SEED must be a non-negative integer, got '{value}'"
    ]


@pytest.mark.parametrize("argv,message", [
    (("verify-conjecture", "--dims", "axbxc"),
     "--dims must be AxBxC with positive integer sizes, got 'axbxc'"),
    (("search", "--target", "ineq4", "--dims", "2x2"),
     "--dims must be AxBxC with positive integer sizes, got '2x2'"),
    (("verify-conjecture", "--dims", "2x0x2"),
     "--dims must be AxBxC with positive integer sizes, got '2x0x2'"),
    (("verify-conjecture", "--dims", "2x-1x2"),
     "--dims must be AxBxC with positive integer sizes, got '2x-1x2'"),
    (("im-approx", "--grid", "0:1:2.5"), "--grid must be lo:hi:n with an integer n, got '0:1:2.5'"),
    (("im-approx", "--grid", "0:1"), "--grid must be lo:hi:n with an integer n, got '0:1'"),
    (("im-approx", "--grid", "a:1:5"), "--grid must be lo:hi:n with an integer n, got 'a:1:5'"),
    (("im-approx", "--s-list", "1,a"), "--s-list must be comma-separated numbers, got '1,a'"),
], ids=["dims-letters", "dims-two", "dims-zero", "dims-negative", "grid-float-n", "grid-two",
        "grid-letter", "s-list"])
def test_unparsable_option_names_the_option(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


def _module_env():
    # python -m negmono from a checkout, with src on the path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_import_loads_no_process_pool():
    # import negmono loads every module but cli, so no argparse; search
    # imports its pool on the --jobs > 1 path only, and numpy.random when it
    # first draws
    code = ("import sys, negmono; "
            "print(sorted(m for m in sys.modules if m.startswith('negmono'))); "
            "print([m for m in ('argparse', 'multiprocessing', 'numpy.random') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=_module_env(),
                          capture_output=True, text=True, check=True)
    modules = ["acceptance", "errors", "imfunc", "matcore", "monogamy", "permlemma", "qstate",
               "search", "specialcase"]
    assert proc.stdout.splitlines() == [str(["negmono"] + [f"negmono.{m}" for m in modules]), "[]"]


def test_readme_library_example_runs(capsys):
    # the one documented import path: each name from its module
    readme = open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "README.md")).read()
    example = readme.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    slacks, reports = capsys.readouterr().out.splitlines()
    assert slacks.split()[-1] == "True"
    assert [holds for _, holds in ast.literal_eval(reports)] == [True] * len(STEPS + BOUNDS)


def test_module_entry_point_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "negmono", "--help"], env=_module_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: negmono")
    assert "verify-conjecture" in proc.stdout


def test_bad_dims_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify-conjecture", "--dims", "2x2")
    assert code == 2
    assert "error" in err.lower()


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; neither a run nor a usage error
    # changes what the next call prints or returns
    argvs = [
        ("special-case", "--d", "2", "--seed", "1"),
        ("search", "--target", "nope"),
        ("verify-conjecture", "--dims", "2x2"),
        ("search", "--target", "ineqid", "--d", "2", "--trials", "3", "--local-steps", "1"),
    ]
    first = [run_cli(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 2, 2, 0]
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    assert cli.build_parser() is cli.build_parser()


def test_special_case_random(capsys):
    code, out, _ = run_cli(capsys, "special-case", "--d", "3", "--seed", "2")
    assert code == 0
    records = parse_ndjson(out)
    names = [r["name"] for r in records]
    assert "step_a_interlacing" in names and "ineqid2_plus" in names
    assert all(r["holds"] for r in records)


def test_special_case_from_file(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(matrix_to_dict(np.array([[0.0, 1.0], [0.0, 0.0]]))))
    code, out, _ = run_cli(capsys, "special-case", "--file", str(path))
    assert code == 0
    by_name = {r["name"]: r for r in parse_ndjson(out)}
    assert abs(by_name["ineqid2_minus"]["slack"]) <= 1e-12


def test_special_case_pads_rectangles(capsys, tmp_path):
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(matrix_to_dict(np.array([[1.0, 2.0, 0.5]]))))
    code, out, _ = run_cli(capsys, "special-case", "--file", str(path))
    assert code == 0
    assert parse_ndjson(out)[0]["d"] == 3


@pytest.mark.parametrize("blob", ['{"rows": 2}', "[1, 2]"])
def test_special_case_malformed_file_is_usage_error(capsys, tmp_path, blob):
    path = tmp_path / "bad.json"
    path.write_text(blob)
    code, out, err = run_cli(capsys, "special-case", "--file", str(path))
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "matrix JSON" in err


# The three readers of numbers in records, each as a template for one JSON
# value, and the message each gives for a value that breaks the number rule
NUMBER_READERS = {
    "matrix-re": (matrix_from_dict, '{"rows": 1, "cols": 1, "data": [[%s, 0]]}',
                  "matrix JSON data must be a list of [re, im] pairs of finite numbers"),
    "matrix-im": (matrix_from_dict, '{"rows": 1, "cols": 1, "data": [[1, %s]]}',
                  "matrix JSON data must be a list of [re, im] pairs of finite numbers"),
    "state-re": (state_from_dict, '{"dA": 1, "dB": 1, "dC": 1, "coeffs": [[%s, 0]]}',
                 "state JSON coeffs must be a list of [re, im] pairs of finite numbers"),
    "state-im": (state_from_dict, '{"dA": 1, "dB": 1, "dC": 1, "coeffs": [[1, %s]]}',
                 "state JSON coeffs must be a list of [re, im] pairs of finite numbers"),
    "mu": (deserialize_instance, '{"kind": "mu_pi", "mu": [%s], "pi": [1]}',
           "mu_pi JSON mu must be a list of finite numbers, and pi a list"),
}
NOT_NUMBERS = {"true": "true", "string": '"1"', "null": "null", "nan": "NaN", "inf": "Infinity",
               "-inf": "-Infinity", "huge-int": "1" + "0" * 400}


@pytest.mark.parametrize("reader,value", [
    *[pytest.param(reader, value, id=f"{reader}-{name}")
      for reader in NUMBER_READERS for name, value in NOT_NUMBERS.items()],
    # "1, 0" in a pair slot makes a pair of three numbers
    *[pytest.param(reader, "1, 0", id=f"{reader}-triple") for reader in NUMBER_READERS
      if reader != "mu"],
])
def test_json_readers_share_one_number_rule(capsys, tmp_path, reader, value):
    # a JSON true was read as the coefficient 1 by the pair readers, while
    # mu refused it; NaN and Infinity met a different check in each
    read, template, message = NUMBER_READERS[reader]
    text = template % value
    with pytest.raises(ValueError) as info:
        read(json.loads(text))
    assert str(info.value) == message
    if read is matrix_from_dict:
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "special-case", "--file", str(path))
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [f"error: {message}"]


def test_special_case_failed_step_is_replayable(capsys, monkeypatch):
    # --tol does not reach the certified steps, so a negative step budget is
    # patched in to fail the chain; stderr names the step and then carries
    # the matrix, which replays to the same failure
    monkeypatch.setattr(specialcase, "TAU_CHECK", -1.0)
    code, out, err = run_cli(capsys, "special-case", "--d", "3", "--seed", "2")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("certified chain failed at step_")
    b = matrix_from_dict(json.loads(lines[1])["instance"])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(2,)))
    np.testing.assert_array_equal(b, complex_gaussian(rng, (3, 3)))
    with pytest.raises(StepFailedError) as exc:
        interlacing_trace(b)
    assert lines[0].startswith(f"certified chain failed at {exc.value.step}:")
    monkeypatch.undo()
    assert all(rep.holds for rep in interlacing_trace(b).reports)


def test_selftest_failed_step_is_reported_not_raised(capsys, monkeypatch):
    # criterion 4 runs the certified chain; a failed step ends selftest with
    # the same two stderr lines as special-case, after the earlier records
    monkeypatch.setattr(specialcase, "TAU_CHECK", -1.0)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 1
    assert [r["index"] for r in parse_ndjson(out)] == [1, 2, 3]
    lines = err.strip().splitlines()
    assert len(lines) == 5 and all(" criterion " in line for line in lines[:3])
    assert lines[3].startswith("certified chain failed at step_")
    # the instance is the first B that criterion 4 draws
    b = matrix_from_dict(json.loads(lines[4])["instance"])
    np.testing.assert_array_equal(b, complex_gaussian(matcore._rng(0, 4), (2, 2)))


@pytest.mark.parametrize("tol", ["0", "-1e-30"])
def test_special_case_steps_keep_their_roundoff_budget(capsys, tol):
    # step_b_equal_spectra compares two spectra that agree up to about 1e-14
    # of eigenvalue roundoff here; a zero or tiny negative --tol must not
    # turn that into a failed proof step
    code, out, err = run_cli(capsys, "special-case", "--d", "5", "--seed", "3",
                             f"--tol={tol}")
    assert code == 0 and err == ""
    records = parse_ndjson(out)
    assert [r["name"] for r in records] == list(STEPS + BOUNDS)
    assert all(r["holds"] for r in records)


def test_special_case_negative_tol_fails_a_bound_not_a_step(capsys):
    code, out, err = run_cli(capsys, "special-case", "--d", "5", "--seed", "3",
                             "--tol=-10")
    assert code == 1
    records = parse_ndjson(out)
    assert all(r["holds"] for r in records if r["name"] in STEPS)
    worst = min((r for r in records if not r["holds"]), key=lambda r: r["slack"])
    assert worst["name"] in BOUNDS
    assert err.strip().splitlines() == [
        f"proven statement violated: {worst['name']} slack {worst['slack']:.3e}"
    ]


def test_perm_lemma(capsys):
    code, out, _ = run_cli(capsys, "perm-lemma", "--d", "4", "--samples", "3")
    assert code == 0
    records = parse_ndjson(out)
    assert len(records) == 3
    for rec in records:
        assert rec["holds"]
        assert sorted(rec["argworst"]) == [1, 2, 3, 4]


def test_perm_lemma_too_large(capsys):
    assert run_cli(capsys, "perm-lemma", "--d", "11")[0] == 2


@pytest.mark.parametrize("command", ["perm-lemma", "drury-check"])
def test_exhaustive_limit_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, command, "--d", "9")
    assert code == 2 and out == ""
    assert err.strip().splitlines() == ["error: d=9 exceeds the exhaustive limit 8"]


# the stdout of the d = 8 commands at seed 29, every rearranged sum folded
# left from +0.0 and squared as a product: numpy's pairwise sum of 8 terms
# and libm's pow gave the last two perm-lemma lhs and drury-check rhs values
# 1 or 2 ulp larger
D8_STDOUT = {
    "perm-lemma": (
        '{"name":"commutative","lhs":5.989412861959915,"rhs":9.059263010885514,'
        '"slack":3.0698501489255996,"holds":true,"d":8,"seed":29,"sample":0,'
        '"argworst":[4,5,6,7,8,1,2,3]}\n'
        '{"name":"commutative","lhs":10.664310170792424,"rhs":17.316767865955065,'
        '"slack":6.65245769516264,"holds":true,"d":8,"seed":29,"sample":1,'
        '"argworst":[4,5,6,7,8,1,2,3]}\n'
        '{"name":"commutative","lhs":10.355307448197058,"rhs":17.10241701708634,'
        '"slack":6.747109568889281,"holds":true,"d":8,"seed":29,"sample":2,'
        '"argworst":[4,5,6,7,8,1,2,3]}\n'
    ),
    "drury-check": (
        '{"name":"drury","lhs":11.795306792032253,"rhs":16.069110815775772,'
        '"slack":4.273804023743519,"holds":true,"d":8,"seed":29,"trial":0}\n'
        '{"name":"drury","lhs":11.230932929945062,"rhs":15.094721866636654,'
        '"slack":3.8637889366915914,"holds":true,"d":8,"seed":29,"trial":1}\n'
        '{"name":"drury","lhs":12.400502587348223,"rhs":15.415660295888559,'
        '"slack":3.015157708540336,"holds":true,"d":8,"seed":29,"trial":2}\n'
    ),
}


@pytest.mark.parametrize("command,count", [("perm-lemma", "--samples"),
                                           ("drury-check", "--trials")])
def test_d8_stdout_is_pinned(capsys, command, count):
    code, out, _ = run_cli(capsys, command, "--d", "8", count, "3", "--seed", "29")
    assert code == 0
    assert out == D8_STDOUT[command]


def test_drury_check(capsys):
    code, out, _ = run_cli(capsys, "drury-check", "--d", "3", "--trials", "4")
    assert code == 0
    records = parse_ndjson(out)
    assert len(records) == 4 and all(r["holds"] for r in records)


def test_im_approx_csv(capsys):
    code, out, _ = run_cli(capsys, "im-approx", "--s-list", "1,100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,sup_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.0, 100.0]
    # the scaled error drops by the expected factor of ten
    assert float(rows[1][1]) == pytest.approx(float(rows[0][1]) / 10.0, rel=1e-6)


def test_im_approx_ndjson(capsys):
    code, out, _ = run_cli(
        capsys, "im-approx", "--s-list", "4", "--format", "ndjson",
        "--grid=-5:5:101",
    )
    assert code == 0
    rec = parse_ndjson(out)[0]
    assert rec["s"] == 4.0 and rec["sup_error"] > 0


def test_im_approx_unattainable_tolerance_is_usage_error(capsys):
    # far below the rounding error of the quadrature: fails at the first
    # panel instead of subdividing to the depth limit
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "im-approx", "--quad-tol", "1e-30",
                             "--s-list", "1")
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "rounding error" in err


@pytest.mark.parametrize("argv,message", [
    (("--grid", "0:inf:5"), "grid_hi must be finite, got inf"),
    (("--grid=-inf:0:5",), "grid_lo must be finite, got -inf"),
    (("--grid", "nan:0:5"), "grid_lo must be finite, got nan"),
    (("--grid", "0:nan:5"), "grid_hi must be finite, got nan"),
    (("--s-list", "inf"), "scale must be finite and positive, got inf"),
    (("--theta", "inf"), "theta must be finite and positive, got inf"),
    (("--quad-tol", "nan"), "quad_tol must be finite and positive, got nan"),
], ids=["grid_hi", "grid_lo", "grid_lo-nan", "grid_hi-nan", "s", "theta", "quad_tol"])
def test_im_approx_non_finite_parameter_is_usage_error(capsys, argv, message):
    # refused up front with the field's name, before any quadrature warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "im-approx", *argv)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv,message", [
    (("--theta=-1",), "theta must be finite and positive, got -1.0"),
    (("--theta", "0"), "theta must be finite and positive, got 0.0"),
    (("--quad-tol=-1",), "quad_tol must be finite and positive, got -1.0"),
], ids=["theta-negative", "theta-zero", "quad_tol-negative"])
def test_im_approx_non_positive_parameter_names_the_field(capsys, argv, message):
    code, out, err = run_cli(capsys, "im-approx", *argv)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


def _fail_lapack(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("argv", [
    ("verify-conjecture", "--dims", "2x2x2", "--trials", "2"),
    ("search", "--target", "ineq4", "--dims", "2x2x2", "--trials", "2"),
])
def test_lapack_failure_is_internal_error(capsys, monkeypatch, argv):
    # exit 1 is kept for proven bounds that fail; a crash is not a finding
    monkeypatch.setattr(np.linalg, "eigvalsh", _fail_lapack)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.strip().splitlines() == ["internal error: Eigenvalues did not converge"]


def test_svd_failure_is_internal_error(capsys, monkeypatch):
    # the A|BC SVD of verify_batch goes through matcore._lapack like eigvalsh
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    code, out, err = run_cli(capsys, "verify-conjecture", "--dims", "2x2x2", "--trials", "2")
    assert code == 3 and out == ""
    assert err.strip().splitlines() == ["internal error: SVD did not converge"]
    with pytest.raises(NoConvergenceError, match="^SVD did not converge$"):
        monogamy.verify_batch(_random_coeffs((2, 2, 2), np.random.default_rng(14), 2))


def test_bracketing_failure_is_internal_error(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RootNotBracketedError("no positive root for level 0.25")

    monkeypatch.setattr(cli, "sup_error_table", fail)
    code, out, err = run_cli(capsys, "im-approx", "--s-list", "1")
    assert code == 3 and out == ""
    assert err.strip().splitlines() == ["internal error: no positive root for level 0.25"]


# A kernel of each subcommand, and a short run that reaches it.
_CRASH_RUNS = {
    "verify-conjecture": ((cli, "verify_batch"), ("--trials", "2")),
    "special-case": ((specialcase, "_chain_batch"), ("--d", "3")),
    "search": ((search, "ineq4_batch"), ("--target", "ineq4", "--dims", "2x2x2",
                                         "--trials", "2")),
    "selftest": ((acceptance, "_z1"), ()),
}


@pytest.mark.parametrize("exc", [MemoryError(), IndexError("index 3 is out of bounds"),
                                 RuntimeError("kernel gave up")],
                         ids=["MemoryError", "IndexError", "RuntimeError"])
@pytest.mark.parametrize("command", list(_CRASH_RUNS))
def test_any_crash_is_one_internal_error_line(capsys, monkeypatch, command, exc):
    # never exit 1, which means a proven bound failed, and never a traceback;
    # an exception with no message is named by its class
    (module, name), argv = _CRASH_RUNS[command]

    def crash(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, crash)
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 3 and out == ""
    assert err.strip().splitlines() == [f"internal error: {str(exc) or type(exc).__name__}"]
    assert "Traceback" not in err


def test_search_ndjson_and_result_line(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--target", "ineqid", "--d", "2", "--trials", "5",
        "--seed", "4",
    )
    assert code == 0
    records = parse_ndjson(out)
    trials = [r for r in records if "trial" in r]
    finals = [r for r in records if "result" in r]
    assert len(trials) == 5 and len(finals) == 1
    res = finals[0]["result"]
    assert res["violations"] == 0
    assert res["min_slack"] == min(r["slack"] for r in trials)


def test_search_rejects_csv(capsys):
    code = run_cli(
        capsys, "search", "--target", "ineqid", "--d", "2", "--format", "csv"
    )[0]
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(
        capsys, "search", "--target", "ineqid", "--d", "2", "--trials", "2",
        "--jobs", jobs,
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "--jobs" in err


@pytest.mark.parametrize("argv, message", [
    (("--target", "ineqid", "--d", "3", "--jobs", "0"), "--jobs must be at least 1, got 0"),
    (("--target", "ineqid", "--trials", "2"), "target ineqid needs a matrix size d >= 1"),
    (("--target", "ineqid", "--d", "2", "--dims", "2x2x2"), "target ineqid takes d, not dims"),
    (("--target", "ineq4", "--dims", "2x2x2", "--d", "2"), "target ineq4 takes dims, not d"),
    (("--target", "ineq4", "--dims", "2x2x2", "--trials", str(2**32 + 1)),
     f"trials must be at most 2**32, got {2**32 + 1}"),
])
def test_bad_search_configuration_is_a_usage_error(capsys, argv, message):
    # --jobs is checked with the other counts, and SearchConfig's own
    # rejections print as every other usage error
    code, out, err = run_cli(capsys, "search", *argv)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [
    ("perm-lemma", "--d", "4", "--samples", "5"),
    ("drury-check", "--d", "3", "--trials", "5"),
])
def test_failed_run_names_the_lowest_slack_once(capsys, argv):
    # a tolerance of -10 fails every report; one stderr line names the worst
    code, out, err = run_cli(capsys, *argv, "--tol=-10")
    assert code == 1
    records = parse_ndjson(out)
    assert len(records) == 5 and not any(r["holds"] for r in records)
    worst = min(records, key=lambda r: r["slack"])
    assert err.strip().splitlines() == [
        f"proven statement violated: {worst['name']} slack {worst['slack']:.3e}"
    ]


@pytest.mark.parametrize("target, code, kind", [
    (("--target", "ineq4", "--dims", "2x2x2"), 0, "finding"),
    (("--target", "ineqid", "--d", "3"), 1, "proven statement violated"),
])
def test_search_violations_exit_by_kind(capsys, target, code, kind):
    # --tol -10 fails every trial: a conjectured target's violations are a
    # finding (exit 0), a proven target's a failure (exit 1)
    got, out, err = run_cli(capsys, "search", *target, "--trials", "5", "--tol=-10")
    assert got == code
    assert err.strip().splitlines() == [f"{kind}: 5 violation(s) for target {target[1]}"]
    assert parse_ndjson(out)[-1]["result"]["violations"] == 5


def test_search_missing_dims(capsys):
    assert run_cli(capsys, "search", "--target", "ineq4", "--trials", "2")[0] == 2


def test_search_jobs_agree_with_serial(capsys):
    base = ("search", "--target", "ineq4", "--dims", "2x2x2", "--trials", "8",
            "--seed", "5")
    _, out1, _ = run_cli(capsys, *base)
    _, out2, _ = run_cli(capsys, *base, "--jobs", "2")
    final1 = parse_ndjson(out1)[-1]["result"]
    final2 = parse_ndjson(out2)[-1]["result"]
    assert final1 == final2


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.ndjson"
    code, out, _ = run_cli(
        capsys, "verify-conjecture", "--trials", "2", "--out", str(path)
    )
    assert code == 0 and out == ""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == 10


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_quietly(unbuffered):
    # the reader stops after 10 bytes, as `negmono ... | head -c 10` does;
    # the records that follow hit a closed pipe, which is not a usage error
    proc = subprocess.Popen([sys.executable, "-m", "negmono", "verify-conjecture",
                             "--trials", "3000"],
                            env={**_module_env(), "PYTHONUNBUFFERED": unbuffered},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_unwritable_out_path_is_still_a_usage_error(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "negmono", "verify-conjecture",
                           "--out", str(tmp_path / "missing" / "report.ndjson")],
                          env=_module_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: [Errno 2]")


def test_encoder_writes_numpy_scalars_as_python_values():
    record = {"flag": np.bool_(True), "count": np.int64(3), "x": np.float64(0.5),
              "xs": (np.float32(0.25), [np.int32(-1)])}
    assert cli._encode(record) == '{"flag":true,"count":3,"x":0.5,"xs":[0.25,[-1]]}'


def _single_state_ndjson(dims, trials, seed):
    """verify-conjecture records built one state at a time from the public
    single-state reports."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    lines = []
    for trial in range(trials):
        state = random_state(dims, rng)
        mats = coeff_matrices(state)
        for rep in (ineq2_report(state), ineq3_report(mats), ineq4_report(mats),
                    *monotonicity_report(state)):
            rec = rep.with_meta(seed=seed, trial=trial).to_dict()
            lines.append(json.dumps(rec, separators=(",", ":")) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 3), (3, 2, 4)])
def test_verify_records_match_single_state_reports(capsys, dims):
    text = "x".join(str(d) for d in dims)
    code, out, _ = run_cli(capsys, "verify-conjecture", "--dims", text,
                           "--trials", "40", "--seed", "4")
    assert code == 0
    assert out == _single_state_ndjson(dims, 40, 4)


def test_verify_output_does_not_depend_on_chunk(capsys, monkeypatch):
    # stdout, stderr and the exit code, with the --tol -10 path: findings,
    # proven failures and exit 1; chunks of 1, 7, 64 and 512 states by the
    # state bound, then of 32, 5 and 512 states (2x2x2, 3x2x4, 1x1x1) by the
    # entries bound
    trials = 520  # one full chunk and one partial at CHUNK 512
    for dims in ("2x2x2", "3x2x4", "1x1x1"):
        for tol in ("1e-9", "-10"):
            args = ("verify-conjecture", "--dims", dims, "--trials", str(trials),
                    "--seed", "8", f"--tol={tol}")
            runs = set()
            for chunk, entries in ((1, 2**17), (7, 2**17), (64, 2**17), (512, 2**17), (512, 2**10)):
                monkeypatch.setattr(cli, "CHUNK", chunk)
                monkeypatch.setattr(cli, "CHUNK_ENTRIES", entries)
                runs.add(run_cli(capsys, *args))
            assert len(runs) == 1, (dims, tol)
            code, out, err = runs.pop()
            assert len(out.splitlines()) == (5 + 3 * (tol == "-10")) * trials
            assert code == (1 if tol == "-10" else 0)
            assert (err == "") == (tol == "1e-9")


@pytest.mark.parametrize("dims, states", [
    ((1, 1, 1), 512), ((2, 2, 2), 512), ((3, 2, 4), 512), ((4, 4, 4), 256),
    ((8, 4, 4), 64), ((8, 8, 8), 16),
])
def test_verify_chunk_states(dims, states):
    # at most 512 states and 2**17 entries of Z1 and Z2 per chunk
    assert cli._chunk_states(dims) == states
    assert states * ((dims[0] * dims[1]) ** 2 + (dims[0] * dims[2]) ** 2) <= 2**17


def test_verify_chunks_are_made_lazily():
    # a huge --trials holds no list of chunks, states or records
    text, failed = next(cli._verify_rows((2, 2, 2), 2**62, 1e-9, 0))
    assert text.count("\n") == 5 * cli.CHUNK and failed == []


def test_verify_counts_per_chunk(monkeypatch, call_counts):
    # per chunk: two stacked eigvalsh (Z1, Z2) and one SVD (the A|BC
    # coefficient matrices); no per-state validation or eigensolver call,
    # and no report object: the records are rendered from the chunk's
    # arrays; one ineq4_batch row per state, and one write of an all-hold chunk
    counts, count = call_counts
    for name in ("eigvalsh", "svd"):
        count(np.linalg, name)
    for name in ("require_hermitian", "hermitian_eigenvalues", "make_report"):
        count(matcore, name)
    count(monogamy, "verify_reports")
    rows = []
    orig = monogamy.ineq4_batch

    def ineq4_batch(c):
        rows.append(len(c))
        return orig(c)

    monkeypatch.setattr(monogamy, "ineq4_batch", ineq4_batch)
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": writes.append})())
    width = cli._chunk_states((3, 2, 4))
    trials = 2 * width + 3
    assert main(["verify-conjecture", "--dims", "3x2x4", "--trials", str(trials)]) == 0
    chunks = 3
    assert counts == {"eigvalsh": 2 * chunks, "svd": chunks,
                      "require_hermitian": 0, "hermitian_eigenvalues": 0,
                      "make_report": 0, "verify_reports": 0}
    assert rows == [width, width, 3]
    assert [text.count("\n") for text in writes] == [5 * width, 5 * width, 15]


def _verdict_of_reports(capsys, dims, columns, tol, seed):
    """Exit code, stdout and stderr of _verdict over the records of
    monogamy.verify_reports, built state by state from the verify_batch
    entries in columns (one tuple per trial)."""
    reports = [rep for trial, values in enumerate(columns)
               for rep in monogamy.verify_reports(dims, values, tol, seed=seed, trial=trial)]
    out = io.StringIO()
    code = cli._verdict(cli._rows(reports), out)
    return code, out.getvalue(), capsys.readouterr().err


def _failing(kernel, trials):
    """kernel with ineq2-4 (findings) and monotonicity_AB (a proven
    failure) failed at the given trials, counted across its calls."""
    seen = [0]

    def failing(c):
        lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc = (v.copy() for v in kernel(c))
        for t in trials:
            i = t - seen[0]
            if 0 <= i < len(c):
                lhs[i] += 10.0
                n_ab[i] = n_abc[i] + 1.0
        seen[0] += len(c)
        return lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc

    return failing


@pytest.mark.parametrize("tol", [1e-9, 0.0, -10.0])
@pytest.mark.parametrize("chunk", [1, 7, 16, 64])
@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 3), (3, 2, 4)])
def test_verify_rows_match_the_report_oracle(capsys, monkeypatch, dims, chunk, tol):
    # --tol -10 fails every report: three findings and two proven failures
    # per state, exit 1. Then the kernel fails trial 10 (mid-chunk, or a
    # chunk of its own) and the last state of the first chunk.
    monkeypatch.setattr(cli, "CHUNK", chunk)
    trials, seed = 20, 6
    argv = ("verify-conjecture", "--dims", "x".join(map(str, dims)),
            "--trials", str(trials), "--seed", str(seed), f"--tol={tol!r}")
    got = run_cli(capsys, *argv)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    columns = [[v[0] for v in monogamy.verify_batch(random_state(dims, rng).coeffs[None])]
               for _ in range(trials)]
    assert got == _verdict_of_reports(capsys, dims, columns, tol, seed)
    if tol == -10.0:
        assert got[0] == 1 and got[1].count('"finding"') == 3 * trials
    failed = (10, min(chunk, trials) - 1)
    monkeypatch.setattr(cli, "verify_batch", _failing(monogamy.verify_batch, failed))
    got = run_cli(capsys, *argv)
    oracle = _failing(lambda rows: [np.array(col) for col in zip(*rows)], failed)
    assert got == _verdict_of_reports(capsys, dims, list(zip(*oracle(columns))), tol, seed)
    assert got[0] == 1 and got[1].count('"finding"') == (3 * trials if tol == -10.0 else 6)


def test_verify_records_read_their_own_columns(capsys, monkeypatch):
    # column j of trial t holds j + 1 + t / 1000, so each side names its
    # column; chunks of two states carry the trial across calls
    seen = [0]

    def kernel(c):
        t = np.arange(seen[0], seen[0] + len(c)) / 1000
        seen[0] += len(c)
        return tuple(j + 1 + t for j in range(7))

    monkeypatch.setattr(cli, "CHUNK", 2)
    monkeypatch.setattr(cli, "verify_batch", kernel)
    code, out, _ = run_cli(capsys, "verify-conjecture", "--trials", "5")
    assert code == 0
    sides = {"ineq2": (0, 1), "ineq3": (0, 2), "ineq4": (0, 3),
             "monotonicity_AB": (4, 6), "monotonicity_AC": (5, 6)}
    records = parse_ndjson(out)
    assert [r["name"] for r in records] == list(sides) * 5
    for i, r in enumerate(records):
        t = i // 5
        lhs, rhs = sides[r["name"]]
        assert (r["lhs"], r["rhs"], r["trial"]) == (lhs + 1 + t / 1000, rhs + 1 + t / 1000, t)
        assert ("slack_rel" in r) == (r["name"] in ("ineq2", "ineq3", "ineq4"))


def test_verify_non_finite_entries_render_as_the_encoder_writes_them(capsys, monkeypatch):
    orig = cli.verify_batch

    def kernel(c):
        lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc = (v.copy() for v in orig(c))
        rhs2[0] = np.inf    # slack inf, slack_rel NaN
        lhs[1] = np.nan     # every bound NaN: three findings
        rhs3[2] = 0.0       # no slack_rel
        rhs4[3] = -np.inf   # no slack_rel, slack -inf
        lhs[4] = -np.inf    # slack inf, slack_rel inf
        n_ab[5] = np.inf    # a proven link fails at -inf
        n_abc[6] = np.nan   # both links NaN
        return lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc

    monkeypatch.setattr(cli, "verify_batch", kernel)
    dims, trials, seed = (2, 3, 3), 9, 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(capsys, "verify-conjecture", "--dims", "2x3x3",
                      "--trials", str(trials), "--seed", str(seed))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    columns = list(zip(*kernel(_random_coeffs(dims, rng, trials))))
    assert got == _verdict_of_reports(capsys, dims, columns, 1e-9, seed)
    assert got[0] == 1
    for text in ("NaN", "Infinity", "-Infinity"):
        assert f":{text}," in got[1]


def test_verify_he_vidal_violation_is_a_finding_in_all_three_forms(capsys, monkeypatch):
    # a counterexample to He-Vidal fails ineq2, ineq3 and ineq4 together:
    # three findings per state, exit 0, no proven failure
    orig = monogamy.ineq4_batch

    def ineq4_batch(c):
        n1, n2, lhs, rhs = orig(c)
        return n1, n2, 20 * lhs, rhs

    monkeypatch.setattr(monogamy, "ineq4_batch", ineq4_batch)
    code, out, err = run_cli(capsys, "verify-conjecture", "--trials", "3")
    assert code == 0
    findings = [(r["name"], r["trial"]) for r in parse_ndjson(out) if "finding" in r]
    assert findings == [(name, t) for t in range(3) for name in ("ineq2", "ineq3", "ineq4")]
    assert "proven statement violated" not in err
    assert len(err.strip().splitlines()) == 9


def test_verify_exit_message_names_the_proven_failure(capsys, monkeypatch):
    # an ineq4 finding with a lower slack must not take the place of the
    # failed proven link in the exit-1 message
    orig = cli.verify_batch

    def kernel(c):
        lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc = orig(c)
        rhs4 = rhs4.copy()
        rhs4[0] = lhs[0] - 10.0
        n_ab = n_ab.copy()
        n_ab[1] = n_abc[1] + 1.0
        return lhs, rhs2, rhs3, rhs4, n_ab, n_ac, n_abc

    monkeypatch.setattr(cli, "verify_batch", kernel)
    code, out, err = run_cli(capsys, "verify-conjecture", "--trials", "3")
    assert code == 1
    records = parse_ndjson(out)
    findings = [r for r in records if "finding" in r]
    assert len(findings) == 1
    assert findings[0]["name"] == "ineq4" and findings[0]["trial"] == 0
    assert findings[0]["slack"] == pytest.approx(-10.0)
    failed = [r for r in records if not r["holds"] and "finding" not in r]
    assert [(r["name"], r["trial"]) for r in failed] == [("ineq4", 0), ("monotonicity_AB", 1)]
    lines = err.strip().splitlines()
    assert lines[0].startswith("finding: ineq4 violated at trial 0")
    assert lines[-1].startswith("proven statement violated: monotonicity_AB slack -1.000e+00")


@pytest.mark.parametrize("argv", [
    ("verify-conjecture", "--tol", "nan", "--trials", "1"),
    ("verify-conjecture", "--tol", "inf"),
    ("verify-conjecture", "--tol=-inf"),
    ("special-case", "--tol", "nan"),
    ("perm-lemma", "--tol", "inf"),
    ("drury-check", "--tol", "nan"),
    ("search", "--target", "ineqid", "--d", "2", "--tol", "inf"),
])
def test_non_finite_tol_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "--tol must be finite" in err


@pytest.mark.parametrize("argv", [
    ("verify-conjecture", "--trials", "0"),
    ("perm-lemma", "--samples", "0"),
    ("drury-check", "--trials", "-2"),
    ("search", "--target", "ineqid", "--d", "2", "--trials", "0"),
    ("special-case", "--d", "-1"),
    ("special-case", "--d", "0"),
    ("perm-lemma", "--d", "0"),
    ("drury-check", "--d", "0"),
    ("search", "--target", "ineqid", "--d", "0"),
])
def test_no_trials_is_usage_error(capsys, argv):
    # the offending option is the last of argv, and the message names it
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[-2]} must be at least 1, got {argv[-1]}\n"


SEARCH_TARGETS = [
    ("--target", "ineq4", "--dims", "2x2x2"),
    ("--target", "ineqid", "--d", "3"),
    ("--target", "ineqid1", "--d", "3"),
    ("--target", "ineqid2", "--d", "3"),
    ("--target", "commutative", "--d", "4"),
]


@pytest.mark.parametrize("target", SEARCH_TARGETS, ids=lambda t: t[1])
@pytest.mark.parametrize("scale", ["inf", "1e308"])
def test_search_rejects_overflowing_step_scale(capsys, target, scale):
    # inf is refused with the configuration; 1e308 overflows the first steps
    code, out, err = run_cli(capsys, "search", *target, "--trials", "2",
                             "--step-scale", scale)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "step_scale" in err


@pytest.mark.parametrize("target", SEARCH_TARGETS[:4], ids=lambda t: t[1])
def test_search_rejects_step_scale_whose_weight_overflows(capsys, target):
    # the candidates stay finite, but their squared weight overflows
    code, out, err = run_cli(capsys, "search", *target, "--trials", "2",
                             "--step-scale", "1e200")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "step_scale" in err
