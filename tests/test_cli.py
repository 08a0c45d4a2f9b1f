import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import freecalc
from freecalc import cli, experiments
from freecalc.freepoly import FreePoly, PolyMatrix, diag_delta, row_delta
from freecalc.funcalc import sharp
from freecalc.matrix_core import MatrixTuple, random_tuple
from freecalc.realization import Colligation, eval_colligation, random_isometric
from freecalc.serialize import decode_job, decode_matrix, dumps_canonical, encode
from test_serialize import JSON_LEAVES, mutated_document


# The child process imports the same freecalc as this test run.
SRC = os.path.dirname(os.path.dirname(freecalc.__file__))


def run_cli_process(*argv, env_extra=None):
    """``python -m freecalc`` in a child process."""
    env = dict(os.environ)
    env.pop("FREECALC_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "freecalc", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli(*argv, env_extra=None):
    """``cli.main(argv)`` in this process, with its output captured, the
    environment as run_cli_process sets it (restored afterwards) and
    ``SystemExit`` mapped to its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("FREECALC_SEED", None)
        os.environ.update(env_extra or {})
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return str(path)


def test_version_flag():
    res = run_cli_process("--version")
    assert res.returncode == 0
    assert res.stdout.strip().startswith("freecalc ")


def test_validate_accepts_and_names_the_kind(tmp_path):
    path = _write(tmp_path, "pt.json", random_tuple(2, 2, 0.5, 1))
    res = run_cli("validate", path)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload == {"ok": True, "kind": "tuple", "path": path}


def test_validate_rejects_broken_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rows": 1,', encoding="utf-8")
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    assert "invalid JSON" in res.stderr


def test_validate_rejects_schema_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]}), encoding="utf-8"
    )
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_missing_file_is_an_input_error():
    res = run_cli("validate", "/nonexistent/nowhere.json")
    assert res.returncode == 1


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "nested-too-deeply",
                                  "integer-too-long"])
def test_unreadable_file_is_an_input_error(tmp_path, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    elif kind == "nested-too-deeply":
        path.write_text("[" * 200_000, encoding="utf-8")
    else:  # past the interpreter's 4300-digit limit for int("...")
        path.write_text("[" + "1" * 5000 + "]", encoding="utf-8")
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and str(path) in res.stderr
    assert "Traceback" not in res.stderr


def test_integer_past_float_range_is_an_input_error(tmp_path):
    huge = "1" + "0" * 400
    mpath = tmp_path / "matrix.json"
    mpath.write_text('{"rows": 1, "cols": 1, "data": [[%s, 0]]}' % huge, encoding="utf-8")
    job = {
        "F": encode(random_isometric(1, 1, 2, 1, 1, 5)),
        "delta": encode(row_delta(1)),
        "T": encode(random_tuple(2, 1, 0.5, 6)),
    }
    jpath = tmp_path / "job.json"
    jpath.write_text(json.dumps(job)[:-1] + ', "params": {"tol": %s}}' % huge,
                     encoding="utf-8")
    for argv, where in ((("validate", str(mpath)), "$.data[0][0]"),
                        (("calc", "--job", str(jpath)), "$.params.tol")):
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert f"{where}: expected a finite number" in res.stderr


def test_matrix_dimension_past_numpy_limits_is_an_input_error(tmp_path):
    path = _write(tmp_path, "matrix.json", {"rows": 2**63, "cols": 0, "data": []})
    res = run_cli("validate", path)
    assert res.returncode == 1
    assert res.stderr == f"error: $.rows: {2**63} is past numpy's array limits\n"
    assert "Traceback" not in res.stderr


def test_eval_matches_library(tmp_path):
    F = random_isometric(1, 1, 2, 1, 1, 3)
    y = np.array([[0.25 + 0.1j]])
    cpath = _write(tmp_path, "model.json", F)
    ppath = _write(tmp_path, "point.json", y)
    res = run_cli("eval", "--colligation", cpath, "--point", ppath)
    assert res.returncode == 0
    got = decode_matrix(json.loads(res.stdout))
    assert np.allclose(got, eval_colligation(F, y))


def test_calc_job_roundtrip(tmp_path):
    F = random_isometric(2, 2, 1, 1, 1, 5)
    delta = diag_delta(2)
    T = random_tuple(2, 2, 0.5, 6)
    job = {
        "F": encode(F),
        "delta": encode(delta),
        "T": encode(T),
        "params": {"s": 1.0},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    res = run_cli("calc", "--job", str(path))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"] is True
    assert rep["t"] == pytest.approx(0.5, rel=1e-9)
    assert rep["tail_bound"] <= 1e-10
    # tol * (1 - t) underflows to 0 at the smallest subnormal tolerance
    tiny = run_cli("calc", "--job", str(path), "--tol", "5e-324")
    assert tiny.returncode == 0, tiny.stderr
    assert json.loads(tiny.stdout)["ok"] is True


def test_tol_override_does_not_carry_to_the_next_call(tmp_path):
    # the parser is built once per process; each call parses afresh
    job = {
        "F": encode(random_isometric(2, 2, 1, 1, 1, 5)),
        "delta": encode(diag_delta(2)),
        "T": encode(random_tuple(2, 2, 0.5, 6)),
        "params": {"s": 1.0, "tol": 1e-12},
    }
    path = _write(tmp_path, "job.json", job)
    parts = decode_job(job)
    own = dumps_canonical(encode(sharp(parts["F"], parts["delta"], parts["T"], parts["params"])))
    loose = run_cli("calc", "--job", path, "--tol", "1e-3")
    plain = run_cli("calc", "--job", path)
    assert loose.returncode == plain.returncode == 0
    assert json.loads(loose.stdout)["terms_used"] < json.loads(own)["terms_used"]
    assert plain.stdout == own


def test_calc_heuristic_divergence_is_a_domain_error(tmp_path):
    # D = 3 at t = 0.9/0.95: the loop has spectral radius above 1, so the
    # heuristic series overflows; that must be an input error, not warnings.
    F = Colligation([[0.0]], [[1.0]], [[1.0]], [[3.0]], 1, 1)
    job = {"F": encode(F), "delta": encode(row_delta(1)), "T": encode(MatrixTuple([[[0.9]]]))}
    path = _write(tmp_path, "job.json", job)
    res = run_cli_process("calc", "--job", path)
    assert res.returncode == 1
    assert res.stderr.startswith("error: series diverged at degree ")
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("argv", [
    ("calc", "--job", "{job}", "--out", "{dir}"),
    ("validate", "{job}", "--out", "{dir}"),
    ("calc", "--job", "{job}", "--tol", "inf"),
])
def test_bad_output_path_or_tolerance_is_an_input_error(tmp_path, argv):
    job = {
        "F": encode(random_isometric(1, 1, 2, 1, 1, 5)),
        "delta": encode(row_delta(1)),
        "T": encode(random_tuple(2, 1, 0.5, 6)),
    }
    names = {"job": _write(tmp_path, "job.json", job), "dir": str(tmp_path)}
    res = run_cli(*(arg.format(**names) for arg in argv))
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_calc_series_cap_exits_2_with_partial_report(tmp_path):
    F = random_isometric(1, 1, 2, 1, 1, 13)
    if F.nilpotent_index is not None:
        pytest.skip("random loop happened to be nilpotent")
    job = {
        "F": encode(F),
        "delta": encode(row_delta(1)),
        "T": encode(random_tuple(2, 1, 0.97, 12)),
        "params": {"s": 1.0, "tol": 1e-14, "max_terms": 5},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    res = run_cli("calc", "--job", str(path))
    assert res.returncode == 2
    assert "did not settle" in res.stderr
    partial = json.loads(res.stdout)
    assert partial["terms_used"] == 4
    assert partial["tail_bound"] is None


def test_supnorm_json_and_determinism(tmp_path):
    ppath = _write(tmp_path, "poly.json", FreePoly.letter(1, 1))
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    argv = ("supnorm", "--poly", ppath, "--delta", dpath,
            "--levels", "1,2", "--trials", "10", "--ascent", "5", "--seed", "3")
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical reruns
    rep = json.loads(a.stdout)
    assert rep["kind"] == "sup_norm"
    assert rep["estimate"] <= 0.999 + 1e-9


def test_supnorm_csv_layout(tmp_path):
    ppath = _write(tmp_path, "poly.json", FreePoly.letter(1, 1))
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    out = tmp_path / "report.csv"
    res = run_cli("supnorm", "--poly", ppath, "--delta", dpath,
                  "--levels", "1,3", "--trials", "8", "--ascent", "0",
                  "--format", "csv", "--out", str(out))
    assert res.returncode == 0
    assert res.stdout == ""  # the report went to the file
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "level,trials,estimate,witness_id"
    assert len(lines) == 3
    level, trials, estimate, witness = lines[1].split(",")
    assert (level, trials) == ("1", "8")
    assert float(estimate) > 0
    assert witness.startswith("L1T")


def test_spectral_check_passes_inside(tmp_path):
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    tpath = _write(tmp_path, "tuple.json", random_tuple(1, 1, 0.4, 8))
    family = [encode(FreePoly.one(1)), encode(FreePoly.letter(1, 1))]
    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps(family), encoding="utf-8")
    res = run_cli("spectral-check", "--delta", dpath, "--tuple", tpath,
                  "--family", str(fpath), "--levels", "1", "--trials", "10",
                  "--ascent", "0")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"] is True and rep["violations"] == []


def test_spectral_check_flags_violation(tmp_path):
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    tpath = _write(tmp_path, "tuple.json", MatrixTuple([np.array([[5.0]])]))
    family = [encode(FreePoly.letter(1, 1))]
    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps(family), encoding="utf-8")
    res = run_cli_process("spectral-check", "--delta", dpath, "--tuple", tpath,
                          "--family", str(fpath), "--levels", "1", "--trials", "10",
                          "--ascent", "0")
    assert res.returncode == 2
    rep = json.loads(res.stdout)
    assert rep["ok"] is False
    assert rep["violations"][0]["lhs"] == pytest.approx(5.0)


@pytest.mark.parametrize("k", ["0", "nan", "inf"])
def test_spectral_check_rejects_bad_k(tmp_path, k):
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    tpath = _write(tmp_path, "tuple.json", random_tuple(1, 1, 0.4, 8))
    fpath = tmp_path / "family.json"
    fpath.write_text(json.dumps([encode(FreePoly.letter(1, 1))]), encoding="utf-8")
    res = run_cli("spectral-check", "--delta", dpath, "--tuple", tpath,
                  "--family", str(fpath), "--levels", "1", "--trials", "5", "--k", k)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "spectral constant K" in res.stderr


def test_spectral_check_rejects_empty_family(tmp_path):
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    tpath = _write(tmp_path, "tuple.json", random_tuple(1, 1, 0.4, 8))
    fpath = tmp_path / "family.json"
    fpath.write_text("[]", encoding="utf-8")
    res = run_cli("spectral-check", "--delta", dpath, "--tuple", tpath,
                  "--family", str(fpath))
    assert res.returncode == 1
    assert "nonempty" in res.stderr


def test_experiment_rowball_smoke_and_seed_env(tmp_path):
    argv = ("experiment", "rowball", "-p", "d=2", "-p", "identity_trials=5",
            "-p", "level=2")
    explicit = run_cli(*argv, "--seed", "7")
    via_env = run_cli(*argv, env_extra={"FREECALC_SEED": "7"})
    default = run_cli(*argv)
    assert explicit.returncode == 0
    assert explicit.stdout == via_env.stdout  # env var fills the default seed
    assert json.loads(default.stdout)["seed"] == 0
    rep = json.loads(explicit.stdout)
    assert rep["experiment"] == "rowball" and rep["seed"] == 7 and rep["ok"]


def test_seedless_commands_ignore_seed_env(tmp_path):
    path = _write(tmp_path, "job.json", {
        "F": encode(random_isometric(2, 2, 1, 1, 1, 5)),
        "delta": encode(diag_delta(2)),
        "T": encode(random_tuple(2, 2, 0.5, 6)),
    })
    for argv in (("validate", path), ("calc", "--job", path)):
        clean = run_cli(*argv)
        bad_env = run_cli(*argv, env_extra={"FREECALC_SEED": "abc"})
        assert clean.returncode == 0
        assert (bad_env.returncode, bad_env.stdout) == (0, clean.stdout)
    assert run_cli("calc", "--job", path, "--seed", "1").returncode == 1


def test_experiment_rejects_bad_seed_env():
    for raw in ("often", "-5"):
        res = run_cli("experiment", "rowball", env_extra={"FREECALC_SEED": raw})
        assert res.returncode == 1
        assert "FREECALC_SEED" in res.stderr
        assert "Traceback" not in res.stderr


def test_negative_seed_names_the_option(tmp_path):
    ppath = _write(tmp_path, "poly.json", FreePoly.letter(1, 1))
    dpath = _write(tmp_path, "delta.json", row_delta(1))
    res = run_cli("supnorm", "--poly", ppath, "--delta", dpath, "--levels", "1",
                  "--trials", "2", "--seed", "-1")
    assert res.returncode == 1
    assert res.stderr.startswith("error: --seed:") and "non-negative" in res.stderr


def test_custom_experiment_needs_a_job():
    res = run_cli("experiment", "custom")
    assert res.returncode == 1
    assert "job" in res.stderr


def test_custom_experiment_runs_job(tmp_path):
    F = random_isometric(2, 2, 1, 1, 1, 5)
    job = {
        "F": encode(F),
        "delta": encode(diag_delta(2)),
        "T": encode(random_tuple(2, 2, 0.5, 6)),
        "params": {"s": 1.0},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    res = run_cli("experiment", "custom", "--job", str(path))
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["experiment"] == "custom" and rep["ok"]


def test_experiment_commutator_reads_its_probe_from_a_file(tmp_path):
    path = _write(tmp_path, "T.json", random_tuple(3, 2, 0.5, 1))
    res = run_cli("experiment", "commutator", "-p", "levels=[1]", "-p", "trials_per_level=1",
                  "-p", "eigen_checks=1", "-p", "emptiness_trials=1", "-p", f"T={path}")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["config"]["probe_supplied"] is True and rep["config"]["osc_size"] is None
    assert rep["results"]["probe_level"] == 3


def test_experiment_lens_refuses_a_polynomial_matrix_file(tmp_path):
    x = FreePoly.letter(1, 2)
    path = _write(tmp_path, "g.json", PolyMatrix([[x, x]]))
    res = run_cli("experiment", "lens", "-p", f"g={path}")
    assert res.returncode == 1
    assert "must hold a free polynomial" in res.stderr


def test_unknown_subcommand_fails():
    res = run_cli("frobnicate")
    assert res.returncode != 0


def test_usage_error_exits_1_not_2():
    # exit 2 means "a check failed"; a mistyped option is an input error
    res = run_cli("calc", "--bogus")
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("argv", [
    ("experiment", "gap", "-p", "foo=1"),
    ("experiment", "rowball", "-p", 'd="x"'),
    ("experiment", "lens", "-p", "size=0"),
    ("experiment", "gap", "--jobs", "2"),
    ("experiment", "lens", "--job", "/nonexistent.json"),
    ("experiment", "rowball", "-p", "level=0"),
    ("experiment", "rowball", "-p", "level=-1"),
    ("experiment", "polydisc", "-p", "level=0"),
    ("experiment", "gap", "-p", "jobs=2"),
    ("experiment", "commutator", "-p", "levels=[-1]"),
    ("experiment", "gap", "-p", "shift_size=-1"),
    ("experiment", "commutator", "-p", "trials_per_level=0"),
    ("experiment", "lens", "-p", "size=100000000"),
    ("experiment", "commutator", "-p", "osc_size=100000"),
    ("experiment", "rowball", "-p", "level=100000"),
    ("experiment", "gap", "-p", "shift_size=100000"),
    ("experiment", "gap", "-p", "compress_to=0"),
    ("experiment", "commutator", "-p", "levels=[]"),
    ("experiment", "rowball", "-p", "identity_trials=0"),
    ("experiment", "polydisc", "-p", "identity_trials=0"),
    ("experiment", "polydisc", "-p", "spectral_trials=0"),
    ("experiment", "polydisc", "-p", "family_max_len=12"),
    ("experiment", "polydisc", "-p", "family_max_len=-1"),
    ("experiment", "commutator", "-p", "eigen_checks=0"),
    ("experiment", "commutator", "-p", "emptiness_trials=0"),
    ("experiment", "polydisc", "-p", "d=100000", "-p", "family_max_len=0"),
    ("experiment", "custom", "--job", "/nonexistent-a.json", "-p", "job=/nonexistent-b.json"),
    ("experiment", "rowball", "--seed", "-1"),
    ("supnorm", "--poly", "/nonexistent-p.json", "--delta", "/nonexistent-d.json", "--seed", "-1"),
])
def test_bad_experiment_options_are_input_errors(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


def test_option_integer_past_the_digit_limit_is_an_input_error():
    res = run_cli("experiment", "rowball", "-p", "d=" + "1" * 5000)
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "option 'd'" in res.stderr


def test_rowball_coordinates_are_bounded_before_anything_is_built(monkeypatch):
    class Built(Exception):
        pass

    def build(d):
        raise Built(d)

    monkeypatch.setattr(experiments, "row_delta", build)
    res = run_cli("experiment", "rowball", "-p", "d=1025")
    assert res.returncode == 1
    assert res.stderr == "error: option d = 1025 lies outside 1..1024\n"
    with pytest.raises(Built):  # the bound itself is admitted
        experiments.run_rowball(d=experiments.MAX_ROWBALL_D)


def test_custom_job_param_is_an_unknown_option():
    # -p values are JSON: "job=true" once reached open(True), which opened
    # and then closed this process's stdout
    for value in ("true", "1.5", "[1]", "/x.json"):
        res = run_cli("experiment", "custom", "-p", f"job={value}")
        assert res.returncode == 1
        assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
        assert "unknown custom-experiment option(s): ['job']" in res.stderr
        for fd in (0, 1, 2):
            os.fstat(fd)


def test_memory_exhaustion_is_an_input_error(monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 PiB")

    monkeypatch.setattr(cli, "run_experiment", exhaust)
    assert cli.main(["experiment", "rowball"]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 1.00 PiB\n"



# --- the CLI fuzzer -------------------------------------------------------------
#
# Argument vectors drawn from the real subcommands and option names, run
# in-process through run_cli.  A file argument is drawn as ("file", doc): a
# stock document, the same with one node replaced or one key dropped or added,
# or any JSON value; the test writes it out and passes its path.  Count and
# size options are drawn only as small, non-positive or ill-typed values, so
# every example stays cheap.

_STOCK = {
    "job": {
        "F": encode(random_isometric(2, 2, 1, 1, 1, 5)),
        "delta": encode(diag_delta(2)),
        "T": encode(random_tuple(2, 2, 0.5, 6)),
        "params": {"s": 1.0, "tol": 1e-6, "max_terms": 50},
    },
    "colligation": encode(random_isometric(1, 2, 1, 1, 1, 3)),
    "point": encode(np.array([[0.25, 0.1j]])),
    "poly": encode(FreePoly.letter(1, 2) * FreePoly.letter(2, 2)),
    "delta": encode(diag_delta(2)),
    "tuple": encode(random_tuple(2, 2, 0.5, 7)),
    "family": [encode(FreePoly.letter(1, 2)), encode(FreePoly.one(2))],
}

# counts and sizes: small, non-positive, or not an integer at all
_SMALL = st.one_of(st.integers(-2, 3), st.none(), st.booleans(), st.floats(),
                   st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.none(),
                                                        max_size=1))
# option texts, valid two times in three
_SMALL_TEXT = st.one_of(st.just("1"), st.just("2"),
                        st.sampled_from(["0", "-1", "x", "", "nan", "1.5", "1e3000"]))
_REAL_TEXT = st.one_of(st.sampled_from(["0.5", "1"]),
                       st.sampled_from(["2", "1e308", "5e-324"]),
                       st.sampled_from(["0", "-1", "nan", "inf", "-inf", "x", ""]))
_LEVELS_TEXT = st.one_of(st.sampled_from(["1", "2"]), st.just("1,2"),
                         st.sampled_from(["0", "-1", "x", "", ",", "1,,2", "1.5"]))
_SEED_TEXT = st.sampled_from(["0", "1", "-1", "x", str(2**70)])

# experiment options that bound a count or a size, with cheap values for each
_CHEAP = {
    "gap": {"levels": [2], "trials_per_level": 2, "refine_trials": 1, "ascent_steps": 1,
            "min_admissible": 1, "shift_size": 2, "compress_to": 1},
    "rowball": {"d": 2, "identity_trials": 1, "level": 2},
    "polydisc": {"d": 1, "identity_trials": 1, "level": 1, "family_max_len": 0,
                 "spectral_trials": 1},
    "commutator": {"levels": [1], "trials_per_level": 1, "eigen_checks": 1, "osc_size": 2,
                   "emptiness_trials": 1},
    "lens": {"size": 1},
    "custom": {},
}
# the other options: any JSON value (a path for T and g)
_FREE = {"gap": ["eps"], "rowball": ["target_t"], "polydisc": [], "commutator": ["T"],
         "lens": ["r", "g"], "custom": ["job"]}


def _file(data, kind):
    """A file argument: the stock document of a kind, mutated, any value, or
    a path that does not exist."""
    how = data.draw(st.sampled_from(["stock"] * 3 + ["mutated"] * 2 + ["any", "missing"]))
    if how == "missing":
        return "/nonexistent/input.json"
    if how == "any":
        return ("file", data.draw(JSON_LEAVES))
    doc = _STOCK[kind]
    return ("file", doc if how == "stock" else mutated_document(doc, data))


def _param(data, name, key):
    """``-p key=value`` for an experiment, the value as JSON or as bare text."""
    if key in _CHEAP[name]:
        value = data.draw(st.lists(_SMALL, max_size=3) if isinstance(_CHEAP[name][key], list)
                          else _SMALL)
    elif key in ("T", "g", "job"):
        value = data.draw(st.one_of(JSON_LEAVES, st.just("/nonexistent/x.json")))
    else:
        value = data.draw(JSON_LEAVES)
    raw = json.dumps(value) if data.draw(st.booleans()) else data.draw(st.text(max_size=4))
    return ["-p", f"{key}={raw}"]


@st.composite
def _argvs(draw):
    data = draw(st.data())
    cmd = draw(st.sampled_from(["eval", "calc", "supnorm", "spectral-check", "experiment",
                                "validate", "frobnicate"]))
    argv = [cmd]
    if cmd == "eval":
        argv += ["--colligation", _file(data, "colligation"), "--point", _file(data, "point")]
    elif cmd == "calc":
        argv += ["--job", _file(data, "job")]
        if draw(st.booleans()):
            argv += ["--tol", draw(_REAL_TEXT)]
    elif cmd in ("supnorm", "spectral-check"):
        if cmd == "supnorm":
            argv += ["--poly", _file(data, "poly"), "--delta", _file(data, "delta")]
            if draw(st.booleans()):
                argv += ["--format", draw(st.sampled_from(["json", "csv", "xml"]))]
        else:
            argv += ["--delta", _file(data, "delta"), "--tuple", _file(data, "tuple"),
                     "--family", _file(data, "family"), "--k", draw(_REAL_TEXT)]
        argv += ["--levels", draw(_LEVELS_TEXT), "--trials", draw(_SMALL_TEXT),
                 "--ascent", draw(_SMALL_TEXT)]
        if draw(st.booleans()):
            argv += ["--margin", draw(_REAL_TEXT)]
    elif cmd == "experiment":
        name = draw(st.sampled_from(sorted(_CHEAP)))
        argv.append(name)
        options = dict(_CHEAP[name])
        for key in draw(st.lists(st.sampled_from(sorted(options) + _FREE[name] + ["bogus"]),
                                 max_size=2, unique=True)):
            options.pop(key, None)
            argv += _param(data, name, key)
        for key, value in options.items():
            argv += ["-p", f"{key}={json.dumps(value)}"]
        if name == "custom" or draw(st.integers(0, 9)) == 0:
            argv += ["--job", _file(data, "job")]
    elif cmd == "validate":
        argv.append(_file(data, draw(st.sampled_from(sorted(_STOCK)))))
    if cmd != "validate" and draw(st.booleans()):
        argv += ["--seed", draw(_SEED_TEXT)]
    if draw(st.integers(0, 9)) == 0:  # a usage error: a stray token or a dropped one
        spot = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and spot < len(argv):
            del argv[spot]
        else:
            argv.insert(spot, draw(st.sampled_from(["--bogus", "-p", "--out", "", "x=1"])))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=_argvs())
@example(argv=["experiment", "custom", "-p", "job=true"])
@example(argv=["validate", ("file", {"rows": 2**63, "cols": 0, "data": []})])
@example(argv=["validate", ("file", {"rows": 2**62, "cols": 0, "data": []})])
def test_cli_fuzz_exits_0_1_or_2(argv, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("fuzz")
    args = []
    for idx, arg in enumerate(argv):
        if isinstance(arg, tuple):
            path = workdir / f"input-{idx}.json"
            path.write_text(json.dumps(arg[1]), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    res = run_cli(*args, "--out", str(workdir / "report.json"))
    assert res.returncode in (0, 1, 2), (args, res.stderr)
    assert "Traceback" not in res.stderr
    for fd in (0, 1, 2):
        os.fstat(fd)
