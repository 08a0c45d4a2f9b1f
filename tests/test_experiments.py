import numpy as np
import pytest

from freecalc.errors import DomainError
from freecalc.experiments import (
    EXPERIMENT_NAMES,
    default_lens_poly,
    lens_point,
    oscillator_pair,
    run_commutator,
    run_experiment,
    run_gap,
    run_lens,
    run_polydisc,
    run_rowball,
)
from freecalc.matrix_core import MatrixTuple, op_norm
from freecalc.serialize import dumps_canonical


def _small_gap(seed=0):
    return run_gap(
        seed=seed,
        levels=(2, 3),
        trials_per_level=120,
        refine_trials=10,
        ascent_steps=20,
        min_admissible=40,
    )


def test_report_envelope_shape():
    rep = run_rowball(seed=1, d=2, identity_trials=5, level=2)
    assert set(rep) == {
        "experiment", "tool_version", "seed", "config", "results", "checks", "ok",
    }
    assert rep["experiment"] == "rowball"
    assert all({"name", "passed", "detail"} <= set(c) for c in rep["checks"])
    assert rep["ok"] == all(c["passed"] for c in rep["checks"])


def test_reports_are_byte_deterministic():
    a = dumps_canonical(_small_gap(seed=3))
    b = dumps_canonical(_small_gap(seed=3))
    assert a == b
    assert dumps_canonical(_small_gap(seed=4)) != a


def test_gap_small_run_passes_its_checks():
    rep = _small_gap()
    assert rep["ok"], [c for c in rep["checks"] if not c["passed"]]
    bound = 0.1 + 4 * 0.1**2
    assert rep["results"]["estimate"] <= bound
    assert rep["results"]["compression"]["compressed_norm"] == pytest.approx(10.0,
                                                                             abs=1e-9)


def test_rowball_identity_and_certificates():
    rep = run_rowball(seed=0, d=3, identity_trials=10, level=3)
    assert rep["ok"], [c for c in rep["checks"] if not c["passed"]]
    assert rep["results"]["identity_max_rel_gap"] <= 1e-12


def test_rowball_closed_form_runs_on_the_series_loop():
    # on the row ball I = 1, so the loop has n*m = 12 states whatever d is;
    # a loop on the n*J*m states would have 2052 here and be refused
    rep = run_rowball(seed=0, d=171, identity_trials=1)
    calc = rep["results"]["calc_report"]
    assert rep["ok"]
    assert "two_path_agreement" in [c["name"] for c in calc["certificates"]]
    assert not any("closed form unavailable" in note for note in calc["notes"])


def test_polydisc_passes():
    rep = run_polydisc(seed=0, d=2, identity_trials=10, level=2,
                       family_max_len=1, spectral_trials=20)
    assert rep["ok"], [c for c in rep["checks"] if not c["passed"]]
    # the calc step's loop is checked before sampling
    with pytest.raises(DomainError, match="loop too large"):
        run_polydisc(d=32, level=64, family_max_len=0)


def test_oscillator_pair_properties():
    x = oscillator_pair(8)
    a, astar = x.coords
    assert np.allclose(astar, a.conj().T)
    # the commutator is 1/2 down the whole diagonal except the top rung,
    # which drops to -(size-1)/2 -- that is size/2 below the ideal value
    q = a @ astar - astar @ a
    assert q[0, 0] == pytest.approx(0.5)
    assert q[-1, -1] == pytest.approx(-(8 - 1) / 2)
    with pytest.raises(DomainError):
        oscillator_pair(0)


def test_commutator_floor_small_run():
    rep = run_commutator(seed=0, levels=(1, 2, 3), trials_per_level=60,
                         eigen_checks=10, osc_size=8, emptiness_trials=20)
    assert rep["ok"], [c for c in rep["checks"] if not c["passed"]]
    assert rep["results"]["min_q_norm"] >= 1.0 - 1e-10
    assert rep["results"]["emptiness_report"]["estimate"] is None
    # the truncated oscillator shows the finite-level obstruction: (n+1)/2
    assert rep["results"]["q_at_probe"] == pytest.approx((8 + 1) / 2, rel=1e-12)


def test_commutator_accepts_external_probe():
    T = MatrixTuple([np.zeros((2, 2)), np.zeros((2, 2))])
    rep = run_commutator(seed=0, levels=(1,), trials_per_level=10,
                         eigen_checks=5, T=T, emptiness_trials=10)
    # q(0) = -1 has norm exactly 1: the floor, attained
    assert rep["results"]["q_at_probe"] == pytest.approx(1.0)
    assert rep["ok"]


def test_lens_point_stays_in_both_disks():
    for seed in range(5):
        T = lens_point(seed, 6, 0.75).coords[0]
        assert op_norm(T) <= 0.75 + 1e-12
        assert op_norm(T - np.eye(6)) <= 0.75 + 1e-12
    with pytest.raises(DomainError):
        lens_point(0, 4, 0.4)


def test_lens_matches_direct_evaluation():
    rep = run_lens(seed=2, r=0.7, size=5)
    assert rep["ok"], [c for c in rep["checks"] if not c["passed"]]
    assert rep["results"]["gap_vs_oracle"] <= 1e-9
    g = default_lens_poly()
    assert rep["results"]["l1_norm_of_g"] >= rep["results"]["value_norm"]
    assert g.degree() == 3


def test_run_experiment_dispatch_and_unknown_name():
    rep = run_experiment("rowball", 5, {"d": 2, "identity_trials": 4, "level": 2})
    assert rep["experiment"] == "rowball" and rep["seed"] == 5
    with pytest.raises(DomainError):
        run_experiment("nope", 0, {})
    assert "custom" in EXPERIMENT_NAMES
