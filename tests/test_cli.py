import json
import os
import subprocess
import sys

import numpy as np
import pytest

import freecalc
from freecalc.freepoly import FreePoly, diag_delta, row_delta
from freecalc.matrix_core import MatrixTuple, random_tuple
from freecalc.realization import Colligation, eval_colligation, random_isometric
from freecalc.serialize import decode_matrix, dumps_canonical, encode


# The child process imports the same freecalc as this test run.
SRC = os.path.dirname(os.path.dirname(freecalc.__file__))


def run_cli(*argv, env_extra=None):
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


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return str(path)


def test_version_flag():
    res = run_cli("--version")
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


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_file_is_an_input_error(tmp_path, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{\x00}\x00")
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and str(path) in res.stderr
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


def test_calc_heuristic_divergence_is_a_domain_error(tmp_path):
    # D = 3 at t = 0.9/0.95: the loop has spectral radius above 1, so the
    # heuristic series overflows; that must be an input error, not warnings.
    F = Colligation([[0.0]], [[1.0]], [[1.0]], [[3.0]], 1, 1)
    job = {"F": encode(F), "delta": encode(row_delta(1)), "T": encode(MatrixTuple([[[0.9]]]))}
    path = _write(tmp_path, "job.json", job)
    res = run_cli("calc", "--job", path)
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
    c = run_cli(*argv, "--jobs", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout == c.stdout  # byte-identical reruns
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
    res = run_cli("spectral-check", "--delta", dpath, "--tuple", tpath,
                  "--family", str(fpath), "--levels", "1", "--trials", "10",
                  "--ascent", "0")
    assert res.returncode == 2
    rep = json.loads(res.stdout)
    assert rep["ok"] is False
    assert rep["violations"][0]["lhs"] == pytest.approx(5.0)


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
    for flag in ("--seed", "--jobs"):
        assert run_cli("calc", "--job", path, flag, "1").returncode == 1


def test_experiment_rejects_bad_seed_env():
    res = run_cli("experiment", "rowball", env_extra={"FREECALC_SEED": "often"})
    assert res.returncode == 1
    assert "FREECALC_SEED" in res.stderr


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
    ("experiment", "gap", "--jobs", "0"),
    ("experiment", "rowball", "-p", "level=0"),
    ("experiment", "rowball", "-p", "level=-1"),
    ("experiment", "polydisc", "-p", "level=0"),
])
def test_bad_experiment_options_are_input_errors(argv):
    res = run_cli(*argv)
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr

