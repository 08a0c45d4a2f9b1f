import math
import tracemalloc

import numpy as np
import pytest

from freecalc import matrix_core, spectral
from freecalc.errors import CheckFailure, DomainError, ShapeError
from freecalc.freepoly import FreePoly, PolyMatrix, diag_delta, gap_delta, row_delta
from freecalc.matrix_core import MatrixTuple, cyclic_shift, op_norm, random_matrix, task_rng
from freecalc.serialize import dumps_canonical, encode
from freecalc.spectral import (
    SampleConfig,
    SpectralReport,
    Violation,
    compression_check,
    default_proposal,
    family_monomials,
    gap_domain_proposal,
    k_spectral_check,
    sample_admissible,
    sup_norm_estimate,
)

X1 = FreePoly.letter(1, 1)
POTENTIAL_NOTE = ("supremum estimates are sampled lower bounds: a pass is proved up to the "
                  "1e-10 relative slack, a violation is potential")


def test_config_validation():
    with pytest.raises(ShapeError):
        SampleConfig(levels=())
    with pytest.raises(ShapeError):
        SampleConfig(levels=(0,))
    with pytest.raises(ShapeError):
        SampleConfig(levels=(65,))
    with pytest.raises(DomainError):
        SampleConfig(margin=0.0)
    with pytest.raises(DomainError):
        SampleConfig(seed=-1)


@pytest.mark.parametrize("field, value, error", [
    ("levels", (2.5,), ShapeError),
    ("levels", (2.0,), ShapeError),
    ("levels", (True,), ShapeError),
    ("levels", ("3",), ShapeError),
    ("levels", 3, ShapeError),
    ("trials_per_level", 2.5, ShapeError),
    ("trials_per_level", True, ShapeError),
    ("ascent_steps", 1.5, ShapeError),
    ("seed", 1.5, DomainError),
    ("seed", False, DomainError),
    ("margin", "0.1", DomainError),
    ("margin", None, DomainError),
])
def test_config_refuses_fields_it_cannot_run_or_encode(field, value, error):
    with pytest.raises(error):
        SampleConfig(**{field: value})


def test_config_stores_numpy_integers_as_python_ints():
    plain = SampleConfig(levels=(2, 3), trials_per_level=4, ascent_steps=2, margin=0.01, seed=7)
    numpy = SampleConfig(levels=[np.int64(2), np.int32(3)], trials_per_level=np.int64(4),
                         ascent_steps=np.uint8(2), margin=np.float64(0.01), seed=np.int64(7))
    assert numpy == plain and type(numpy.levels) is tuple
    assert all(type(v) is int for v in (*numpy.levels, numpy.trials_per_level,
                                        numpy.ascent_steps, numpy.seed))
    x1, delta = FreePoly.letter(1, 2), diag_delta(2)
    assert (dumps_canonical(encode(sup_norm_estimate(x1, delta, numpy)))
            == dumps_canonical(encode(sup_norm_estimate(x1, delta, plain))))


def test_constant_objective_estimate_is_exact():
    cfg = SampleConfig(levels=(1, 2), trials_per_level=10, ascent_steps=0)
    rep = sup_norm_estimate(FreePoly.constant(2.5, 1), row_delta(1), cfg)
    assert rep.estimate == pytest.approx(2.5, rel=1e-12)
    assert rep.admissible > 0
    assert any("lower bound" in n for n in rep.notes)


def test_coordinate_sup_approaches_the_boundary():
    cfg = SampleConfig(levels=(1,), trials_per_level=30, ascent_steps=120, seed=1)
    rep = sup_norm_estimate(X1, row_delta(1), cfg)
    # the true supremum is 1 - margin = 0.999; sampling plus ascent gets close
    # and must never cross it
    assert rep.estimate <= 0.999 + 1e-9
    assert rep.estimate >= 0.98
    assert rep.witness_domain_norm <= 0.999 + 1e-12


def test_estimate_monotone_in_trials_and_ascent():
    base = SampleConfig(levels=(1, 2), trials_per_level=15, ascent_steps=0, seed=7)
    more_trials = SampleConfig(levels=(1, 2), trials_per_level=45, ascent_steps=0, seed=7)
    with_ascent = SampleConfig(levels=(1, 2), trials_per_level=15, ascent_steps=40, seed=7)
    e0 = sup_norm_estimate(X1, row_delta(1), base).estimate
    e1 = sup_norm_estimate(X1, row_delta(1), more_trials).estimate
    e2 = sup_norm_estimate(X1, row_delta(1), with_ascent).estimate
    # per-task seeding: extending the budget never loses found candidates
    assert e1 >= e0
    assert e2 >= e0


def test_reports_are_deterministic_and_job_count_invariant():
    cfg = SampleConfig(levels=(1, 2, 3), trials_per_level=12, ascent_steps=10, seed=5)
    p = FreePoly(2, {(1, 2): 1.0, (2,): 0.5})
    delta = row_delta(2)
    a = sup_norm_estimate(p, delta, cfg)
    b = sup_norm_estimate(p, delta, cfg)
    assert a.estimate == b.estimate
    assert a.witness == b.witness
    assert a.per_level == b.per_level


def test_per_level_summaries_are_coherent():
    cfg = SampleConfig(levels=(1, 3), trials_per_level=20, ascent_steps=5, seed=2)
    rep = sup_norm_estimate(X1, row_delta(1), cfg)
    assert {s.level for s in rep.per_level} == {1, 3}
    assert sum(s.trials for s in rep.per_level) == rep.trials == 40
    assert sum(s.admissible for s in rep.per_level) == rep.admissible
    for s in rep.per_level:
        if s.best_value is not None:
            assert s.best_value <= rep.estimate


def test_witness_reproduces_the_estimate():
    cfg = SampleConfig(levels=(2,), trials_per_level=25, ascent_steps=30, seed=3)
    p = FreePoly(1, {(1, 1): 1.0})
    rep = sup_norm_estimate(p, row_delta(1), cfg)
    w = rep.witness
    assert isinstance(w, MatrixTuple)
    assert op_norm(PolyMatrix([[p]]).eval(w)) == pytest.approx(rep.estimate, rel=1e-12)
    assert op_norm(row_delta(1).eval(w)) == pytest.approx(rep.witness_domain_norm,
                                                          rel=1e-12)


def test_extra_candidates_join_the_pool(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_NORM_TARGETS", (0.1, 0.2, 0.3, 0.4, 0.5))
    cfg = SampleConfig(levels=(1,), trials_per_level=5, ascent_steps=0, seed=0)
    hot = MatrixTuple([np.array([[0.9985]])])
    rep = sup_norm_estimate(X1, row_delta(1), cfg, extra_candidates=(hot,))
    # the supplied candidate beats every sampled proposal and is tagged
    # with a negative trial id
    assert rep.estimate == pytest.approx(0.9985, rel=1e-12)
    assert rep.witness_trial == -1
    assert rep.trials == 6


def test_empty_domain_reports_none():
    delta = PolyMatrix([[X1 + 4.0]])  # unreachable for norm targets <= 1.5
    cfg = SampleConfig(levels=(1, 2), trials_per_level=10, ascent_steps=0)
    rep = sup_norm_estimate(X1, delta, cfg)
    assert rep.estimate is None and rep.witness is None
    assert rep.admissible == 0
    assert any("no admissible sample" in n for n in rep.notes)
    assert sample_admissible(delta, cfg) == []


def test_sample_admissible_honors_the_constraint():
    cfg = SampleConfig(levels=(1, 2), trials_per_level=30, seed=4)
    delta = row_delta(2)
    pts = sample_admissible(delta, cfg)
    assert pts
    for x in pts:
        assert op_norm(delta.eval(x)) <= 1.0 - cfg.margin


def test_objective_alphabet_mismatch():
    with pytest.raises(ShapeError):
        sup_norm_estimate(FreePoly.letter(1, 2), row_delta(1))


def _shaped(d=1, count_extra=0, level_extra=0):
    """A proposal of zero points whose stack is off by the given amounts."""
    def propose(level, trials, rngs, cfg):
        n = level + level_extra
        return np.zeros((len(trials) + count_extra, d, n, n))

    return propose


def test_proposal_alphabet_mismatch():
    cfg = SampleConfig(levels=(1,), trials_per_level=1)
    two_letters = _shaped(d=2)
    with pytest.raises(ShapeError, match="proposal returned"):
        sup_norm_estimate(FreePoly.letter(1, 1), row_delta(1), cfg, proposal=two_letters)
    with pytest.raises(ShapeError, match="proposal returned"):
        sample_admissible(row_delta(1), cfg, proposal=two_letters)


@pytest.mark.parametrize("count_extra, level_extra", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_proposal_count_or_level_mismatch(count_extra, level_extra):
    cfg = SampleConfig(levels=(2, 3), trials_per_level=3)
    proposal = _shaped(count_extra=count_extra, level_extra=level_extra)
    with pytest.raises(ShapeError, match="proposal returned"):
        sup_norm_estimate(FreePoly.letter(1, 1), row_delta(1), cfg, proposal=proposal)
    with pytest.raises(ShapeError, match="proposal returned"):
        sample_admissible(row_delta(1), cfg, proposal=proposal)


def test_proposal_must_be_finite():
    def nan_at_last(level, trials, rngs, cfg):
        points = np.zeros((len(trials), 1, level, level))
        points[-1, 0, -1, -1] = np.nan
        return points

    cfg = SampleConfig(levels=(2,), trials_per_level=4)
    with pytest.raises(DomainError, match="proposal entries must be finite"):
        sample_admissible(row_delta(1), cfg, proposal=nan_at_last)


def _per_trial_admissible(delta, cfg, proposal):
    """Reference for sample_admissible: the proposal called one trial at a
    time, each point tested on its own."""
    points = []
    for level in cfg.levels:
        for trial in range(cfg.trials_per_level):
            rng = task_rng(cfg.seed, level, trial)
            (x,) = proposal(level, range(trial, trial + 1), [rng], cfg)
            if op_norm(delta.eval(MatrixTuple(x))) <= 1.0 - cfg.margin:
                points.append(MatrixTuple(x))
    return points


def _gap_point_reference(eps, level, rng, cfg):
    """One gap proposal written one matrix at a time, every draw in order."""
    cap = (1.0 + eps) * (1.0 - cfg.margin)
    u, _ = np.linalg.qr(random_matrix(level, level, rng))
    v, _ = np.linalg.qr(random_matrix(level, level, rng))
    sing = rng.uniform(0.88, cap, size=level)
    x = u @ np.diag(sing.astype(np.complex128)) @ v
    e = random_matrix(level, level, rng)
    e_norm = op_norm(e)
    if e_norm > 0:
        e = e * (rng.uniform(0.0, 1.0) * eps * (1.0 - cfg.margin) / e_norm)
    y = (np.eye(level, dtype=np.complex128) + e) @ np.linalg.inv(x)
    return np.array([x, y])


def _gaussian_point_reference(d, level, target, rng):
    """One default proposal written one matrix at a time."""
    stack = np.array([random_matrix(level, level, rng) for _ in range(d)])
    return (target / max(op_norm(c) for c in stack)) * stack


@pytest.mark.parametrize("level", [1, 3, 8])
def test_stacked_proposals_are_bitwise_their_per_matrix_reference(level):
    cfg = SampleConfig(seed=4)
    trials = range(5, 25)
    rngs = [task_rng(cfg.seed, level, t) for t in trials]
    refs = [task_rng(cfg.seed, level, t) for t in trials]
    got = gap_domain_proposal(0.1)(level, trials, rngs, cfg)
    for k, rng in enumerate(refs):
        assert got[k].tobytes() == _gap_point_reference(0.1, level, rng, cfg).tobytes()
        # the ascent goes on from the state the draws left
        assert rngs[k].bit_generator.state == rng.bit_generator.state
    got = default_proposal(3)(level, trials, rngs, cfg)
    for k, (t, rng) in enumerate(zip(trials, refs)):
        target = spectral.DEFAULT_NORM_TARGETS[t % len(spectral.DEFAULT_NORM_TARGETS)]
        assert got[k].tobytes() == _gaussian_point_reference(3, level, target, rng).tobytes()
        assert rngs[k].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.19])
def test_gap_proposal_is_its_uniform_reference_on_every_level(eps):
    # the singular values are rng.random draws mapped onto [0.88, cap) in one
    # pass, which must be numpy's uniform(0.88, cap) bit for bit
    trials = range(10)
    for seed in range(12):
        cfg = SampleConfig(seed=seed)
        for level in range(1, 9):
            got = gap_domain_proposal(eps)(
                level, trials, [task_rng(seed, level, t) for t in trials], cfg)
            for t in trials:
                want = _gap_point_reference(eps, level, task_rng(seed, level, t), cfg)
                assert got[t].tobytes() == want.tobytes()


class _ZeroNormals:
    """A generator whose Gaussian draws are all zeros; counts its uniform draws."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, 0

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out

    def random(self, size=None, out=None):
        self.uniforms += 1
        return self.rng.random(size, out=out)


@pytest.mark.parametrize("eps", [0.0, -0.5, 0.2, math.nan, math.inf])
def test_gap_proposal_refuses_eps_outside_its_range(eps):
    with pytest.raises(DomainError, match="eps must lie strictly between 0 and 0.2"):
        gap_domain_proposal(eps)


def test_gap_proposal_draws_no_radius_for_a_zero_perturbation():
    cfg, level, trials = SampleConfig(seed=6), 3, range(6)
    zero = {1, 4}
    rngs = [_ZeroNormals(task_rng(cfg.seed, level, t)) if t in zero
            else task_rng(cfg.seed, level, t) for t in trials]
    got = gap_domain_proposal(0.1)(level, trials, rngs, cfg)
    for t in trials:
        if t in zero:
            # only the singular values: e = 0 has no radius to scale to
            assert rngs[t].uniforms == 1
            assert np.allclose(got[t, 0] @ got[t, 1], np.eye(level), atol=1e-12)
        else:
            ref = task_rng(cfg.seed, level, t)
            assert got[t].tobytes() == _gap_point_reference(0.1, level, ref, cfg).tobytes()
            assert rngs[t].bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("delta, make, level", [
    (diag_delta(2), default_proposal, 64),
    (gap_delta(0.1), lambda d: gap_domain_proposal(0.1), 12),
])
def test_chunks_match_one_trial_at_a_time(delta, make, level):
    size = spectral._chunk_trials([delta], level)
    cfg = SampleConfig(levels=(3, level), trials_per_level=2 * size + 3, seed=11)
    propose, calls = _counting(make(delta.d))
    got = sample_admissible(delta, cfg, proposal=propose)
    # level 3 fits in one chunk; the wide level spans three, the last one short
    assert [(lvl, len(trials)) for lvl, trials in calls] == [
        (3, cfg.trials_per_level), (level, size), (level, size), (level, 3)]
    want = _per_trial_admissible(delta, cfg, make(delta.d))
    assert any(x.n == level for x in got) and len(got) == len(want)
    for a, b in zip(got, want):
        assert a.coords.tobytes() == b.coords.tobytes()


def test_a_level_one_chunk_counts_its_generators_in_the_budget():
    # row_delta(1) at level 1 has 16 bytes of arrays per trial, so most of
    # a chunk's memory is its trials' generators
    delta = row_delta(1)
    size = spectral._chunk_trials([delta], 1)
    assert size == 4032  # the arrays alone would admit 262,144 trials
    cfg = SampleConfig(levels=(1,), trials_per_level=size + 1)
    tracemalloc.start()
    try:
        _, trials, *_ = next(spectral._draws(delta, cfg, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trials) == size
    assert peak <= 1.5 * spectral.CHUNK_BYTES


def test_wide_delta_runs_in_chunks_of_one(monkeypatch):
    delta = row_delta(64)  # a 64 x 4096 value per point at level 64
    assert spectral._chunk_trials([delta], 64) == 1
    monkeypatch.setattr(spectral, "DEFAULT_NORM_TARGETS", (0.05,))
    cfg = SampleConfig(levels=(64,), trials_per_level=3, ascent_steps=1, seed=2)
    propose, calls = _counting(default_proposal(64))
    rep = sup_norm_estimate(FreePoly.letter(1, 64), delta, cfg, proposal=propose)
    assert calls == [(64, (0,)), (64, (1,)), (64, (2,))]
    assert rep.trials == 3 and rep.admissible == 3


def test_k_spectral_holds_when_tuple_is_inside():
    cfg = SampleConfig(levels=(1, 2), trials_per_level=15, ascent_steps=0, seed=6)
    T = MatrixTuple([np.array([[0.4 + 0.1j]])])
    rep = k_spectral_check(row_delta(1), T, 1.0, family_monomials(1, 3), cfg)
    assert rep.ok  # T is fed as its own candidate, so K = 1 cannot fail
    assert rep.kind == "k_spectral"


def test_k_spectral_flags_outside_tuple():
    cfg = SampleConfig(levels=(1,), trials_per_level=15, ascent_steps=0, seed=8)
    T = MatrixTuple([np.array([[5.0]])])
    rep = k_spectral_check(row_delta(1), T, 1.0, [X1], cfg)
    assert not rep.ok
    v = rep.violations[0]
    assert v.lhs == pytest.approx(5.0)
    assert v.rhs <= 1.0
    assert v.status == "potential"
    assert any("outside the sampled domain" in n for n in rep.notes)
    for K in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            k_spectral_check(row_delta(1), T, K, [X1], cfg)


def _counting(proposal):
    calls = []

    def propose(level, trials, rngs, cfg):
        calls.append((level, tuple(trials)))
        return proposal(level, trials, rngs, cfg)

    return propose, calls


def _k_spectral_reference(delta, T, K, family, cfg):
    """k_spectral_check assembled from one sup_norm_estimate per member."""
    t_norm = op_norm(delta.eval(T))
    t_inside = t_norm <= 1.0 - cfg.margin
    violations, skipped = [], 0
    for idx, p in enumerate(family):
        rep = sup_norm_estimate(p, delta, cfg, extra_candidates=(T,) if t_inside else ())
        lhs = op_norm(p.eval(T))
        if rep.estimate is None:
            skipped += 1
            continue
        rhs = K * rep.estimate
        if lhs > rhs + 1e-10 * max(1.0, rhs):
            violations.append(Violation(idx, str(p.entry(0, 0)), lhs, rhs, "potential"))
    notes = []
    if not t_inside:
        notes.append(f"the test tuple is outside the sampled domain (||delta(T)|| = {t_norm:.6g})")
    if skipped:
        notes.append(
            f"{skipped} family member(s) skipped: no admissible sample, domain possibly empty"
        )
    notes.append(POTENTIAL_NOTE)
    return SpectralReport("k_spectral", None, None, None, None, t_norm, 0, 0, (), cfg,
                          tuple(violations), tuple(notes))


def _complex_family():
    """The constant 1, the two coordinates, and three sparse polynomials with
    complex coefficients, as 1 x 1 polynomial matrices."""
    polys = (
        FreePoly.one(2),
        FreePoly.letter(1, 2),
        FreePoly.letter(2, 2),
        FreePoly(2, {(1, 2): 0.7 - 0.4j, (2,): 1.1j}),
        FreePoly(2, {(2, 2, 1): -0.9 + 0.3j}),
        FreePoly(2, {(1,): 0.5, (2, 1, 2): 1.2 + 0.8j}),
    )
    return [PolyMatrix([[p]]) for p in polys]


def _diag_tuple(scale):
    return MatrixTuple([np.array([[scale, 0.3], [0.0, -0.5 * scale]]),
                        np.array([[0.2j, scale], [0.4, 0.1]])])


@pytest.mark.parametrize("scale, trials, steps", [
    pytest.param(1.6, 6, 12, id="1.6"),
    pytest.param(0.5, 6, 12, id="0.5"),
    pytest.param(1.6, 2, 250, id="1.6-long-ascent"),
])
def test_k_spectral_draws_once_for_the_whole_family(scale, trials, steps):
    delta = diag_delta(2)
    T = _diag_tuple(scale)
    family = _complex_family()
    cfg = SampleConfig(levels=(1, 2), trials_per_level=trials, ascent_steps=steps, seed=5)
    propose, calls = _counting(default_proposal(2))
    rep = k_spectral_check(delta, T, 1.0, family, cfg, proposal=propose)
    # one chunk per level, and every (level, trial) task is drawn exactly once
    assert calls == [(level, tuple(range(cfg.trials_per_level))) for level in cfg.levels]
    # every member climbs as its own sup_norm_estimate would, byte for byte
    ref = _k_spectral_reference(delta, T, 1.0, family, cfg)
    assert dumps_canonical(encode(rep)) == dumps_canonical(encode(ref))
    inside = op_norm(delta.eval(T)) <= 1.0 - cfg.margin
    assert rep.ok == inside


def test_k_spectral_draws_each_step_once_whatever_the_family_size(monkeypatch):
    delta = diag_delta(2)
    T = _diag_tuple(0.5)
    family = _complex_family()
    gaussian, draws = spectral._complex_gaussian, []

    def counting(normals):
        draws.append(normals.shape[0])
        return gaussian(normals)

    monkeypatch.setattr(spectral, "_complex_gaussian", counting)
    # 250 steps take every climb past step 200, where the constant's climbs,
    # which never improve, have had their step decayed 20 times
    for steps in (12, 250):
        cfg = SampleConfig(levels=(1, 2), trials_per_level=6, ascent_steps=steps, seed=5)
        starts = sup_norm_estimate(family[3], delta, cfg, extra_candidates=(T,)).admissible
        counts = []
        for members in (family[:1], family[3:4], family):
            draws.clear()
            k_spectral_check(delta, T, 1.0, members, cfg)
            counts.append(sum(draws))
        # one proposal draw per trial, then one perturbation per step and start
        trials = len(cfg.levels) * cfg.trials_per_level
        assert counts == [trials + steps * starts] * 3
        assert starts > 1


def test_k_spectral_violations_are_only_potential():
    # T lies outside the domain, so the constant 1 has lhs = 1 against a
    # right side of 0.8: a violation whose climbs never move
    family = [PolyMatrix([[FreePoly.one(2)]]), PolyMatrix([[FreePoly.letter(1, 2)]])]
    cfg = SampleConfig(levels=(1, 2), trials_per_level=2, ascent_steps=250, seed=5)
    rep = k_spectral_check(diag_delta(2), _diag_tuple(1.6), 0.8, family, cfg)
    assert rep.violations[0].index == 0
    assert rep.violations[0].rhs == pytest.approx(0.8, rel=1e-12)
    assert {v.status for v in rep.violations} == {"potential"}
    assert rep.notes[-1] == POTENTIAL_NOTE


def _one_start_ascend(objectives, delta, start, start_norm, start_values, rng, cfg):
    """Reference for the stacked ascent: every objective climbs from one start
    in lockstep, one candidate and one membership test at a time."""
    count = len(objectives)
    cur, cur_val = [start] * count, list(start_values)
    best = [(start, value, start_norm) for value in start_values]
    step, rejections = [spectral.STEP_SIZE] * count, [0] * count
    for _ in range(cfg.ascent_steps):
        pert = spectral._complex_gaussian(
            rng.standard_normal((start.shape[0], 2, *start.shape[1:])))
        for i in range(count):
            accepted = False
            for shrink in (1.0, 0.5, 0.25, 0.125):
                cand = cur[i] + complex(step[i] * shrink) * pert
                cand_norm = spectral._op_norms(delta.eval(cand[None]))[0]
                if cand_norm <= 1.0 - cfg.margin:
                    cand_val = spectral._op_norms(objectives[i].eval(cand[None]))[0]
                    if cand_val > cur_val[i]:
                        cur[i], cur_val[i] = cand, cand_val
                        if cand_val > best[i][1]:
                            best[i] = (cand, cand_val, cand_norm)
                        accepted = True
                    break
            if accepted:
                rejections[i] = 0
            else:
                rejections[i] += 1
                if rejections[i] >= spectral.REJECTIONS_PER_DECAY:
                    rejections[i] = 0
                    step[i] *= spectral.STEP_DECAY
    return [(x, float(value), float(norm)) for x, value, norm in best]


def _copied(rng):
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def test_shrink_rounds_send_fewer_candidates_to_the_svd(monkeypatch):
    # refine ops of a gap-domain estimate: most shrink-round candidates have
    # a column longer than 1 - margin, so the screen refuses them unseen
    objective = FreePoly.letter(1, 2) * FreePoly.letter(2, 2) - 1
    cfg = SampleConfig(levels=(2, 3, 4), trials_per_level=20, ascent_steps=15, seed=1)
    svd, sent = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        sent.append(math.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    def run():
        sent.clear()
        rep = sup_norm_estimate(objective, gap_delta(0.1), cfg,
                                proposal=gap_domain_proposal(0.1))
        return dumps_canonical(encode(rep)), sum(sent)

    monkeypatch.setattr(np.linalg, "svd", counting)
    screened, screened_svds = run()
    monkeypatch.setattr(matrix_core, "_column_floor", lambda stack: np.zeros(stack.shape[:-2]))
    unscreened, unscreened_svds = run()
    assert screened == unscreened
    assert screened_svds < 0.5 * unscreened_svds


def _ascent_work(monkeypatch, objective, delta, cfg, proposal=None):
    """Run ``sup_norm_estimate`` and return its work: the delta evaluations
    made inside ``_ascend`` (matched by identity), the ascent steps taken, the
    matrices sent to the SVD, and the shrink index each climb landed at."""
    svd, evaluate, ascend, first_within = (
        np.linalg.svd, PolyMatrix.eval, spectral._ascend, spectral._first_within)
    work = {"evals": 0, "steps": 0, "svd": 0, "firsts": []}
    climbing = []

    def counting_svd(a, *args, **kwargs):
        work["svd"] += math.prod(a.shape[:-2])
        return svd(a, *args, **kwargs)

    def counting_eval(self, x):
        work["evals"] += bool(climbing) and self is delta
        return evaluate(self, x)

    def counting_ascend(objectives, delta_, starts, *args):
        work["steps"] += args[-1].ascent_steps
        climbing.append(True)
        try:
            return ascend(objectives, delta_, starts, *args)
        finally:
            climbing.pop()

    def recording(stack, bound):
        first, norms = first_within(stack, bound)
        work["firsts"].extend(first)
        return first, norms

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(PolyMatrix, "eval", counting_eval)
    monkeypatch.setattr(spectral, "_ascend", counting_ascend)
    monkeypatch.setattr(spectral, "_first_within", recording)
    sup_norm_estimate(objective, delta, cfg, proposal=proposal)
    return work


def test_an_ascent_step_evaluates_delta_once(monkeypatch):
    # the shrink-round screening config: a climb-by-climb search made 180
    # delta evaluations in its 45 steps, and sent these 1032 matrices to the SVD
    objective = FreePoly.letter(1, 2) * FreePoly.letter(2, 2) - 1
    cfg = SampleConfig(levels=(2, 3, 4), trials_per_level=20, ascent_steps=15, seed=1)
    work = _ascent_work(monkeypatch, objective, gap_delta(0.1), cfg,
                        gap_domain_proposal(0.1))
    assert work["steps"] == 45
    assert work["evals"] == work["steps"]
    assert work["svd"] == 1032


def test_full_step_landings_send_the_same_matrices_to_the_svd(monkeypatch):
    # most climbs land at the full step, where a stacked step evaluates the
    # three shrinks it does not read; it must still decompose only the
    # 1513 matrices a climb-by-climb search decomposes
    cfg = SampleConfig(levels=(2, 3), trials_per_level=10, ascent_steps=30, seed=1)
    work = _ascent_work(monkeypatch, FreePoly.letter(1, 2), diag_delta(2), cfg)
    firsts = np.array(work["firsts"])
    assert (firsts == 0).sum() > 0.5 * firsts.size
    assert work["evals"] == work["steps"] == 60
    assert work["svd"] == 1513


def test_stacked_ascent_is_bitwise_the_one_start_reference():
    delta = diag_delta(2)
    members = [PolyMatrix([[FreePoly.one(2)]]), PolyMatrix([[FreePoly.letter(1, 2)]])]
    cfg = SampleConfig(levels=(3,), trials_per_level=8, ascent_steps=250, seed=1)
    ((_, _, points, norms, inside, rngs),) = spectral._draws(delta, cfg, None)
    starts, norms = points[inside], norms[inside]
    rngs = [rng for rng, ok in zip(rngs, inside) if ok]
    refs = [_copied(rng) for rng in rngs]
    values = [spectral._op_norms(p.eval(starts)) for p in members]
    got = spectral._ascend(members, delta, starts, norms, values, rngs, cfg)
    assert len(got) == len(starts) >= 4
    for k, (ascents, rng, ref) in enumerate(zip(got, rngs, refs)):
        want = _one_start_ascend(members, delta, starts[k], norms[k],
                                 [v[k] for v in values], ref, cfg)
        for (x, value, norm), (x0, value0, norm0) in zip(ascents, want):
            assert x.tobytes() == x0.tobytes()
            assert (value, norm) == (value0, norm0)
        # every start drew one perturbation per step, all 250 of them
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("budget, steps, shapes", [
    # one start per group, its six members in 4 + 2 at level 1 and 3 + 3 at level 2
    pytest.param(6 << 10, 250, {(1, 1, 4), (1, 1, 2), (2, 1, 3)}, id="sliced-members"),
    # level 1: eight starts in groups of two; level 2: one whole start per group
    pytest.param(20 << 10, 250, {(1, 2, 6), (2, 1, 6)}, id="whole-starts"),
    pytest.param(1, 40, {(1, 1, 1), (2, 1, 1)}, id="one-climb-each"),
])
def test_grouped_climbs_match_the_ungrouped_run(monkeypatch, budget, steps, shapes):
    delta = diag_delta(2)
    T = _diag_tuple(1.6)
    family = _complex_family()
    cfg = SampleConfig(levels=(1, 2), trials_per_level=8, ascent_steps=steps, seed=5)
    want = k_spectral_check(delta, T, 0.8, family, cfg)
    ascend, groups = spectral._ascend, []

    def recording(objectives, delta_, starts, *args):
        groups.append((starts.shape[-1], len(starts), len(objectives)))
        return ascend(objectives, delta_, starts, *args)

    monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
    monkeypatch.setattr(spectral, "_ascend", recording)
    got = k_spectral_check(delta, T, 0.8, family, cfg)
    assert dumps_canonical(encode(got)) == dumps_canonical(encode(want))
    assert set(groups) == shapes
    # no group holds more climbs than a chunk of its level holds trials
    assert all(starts * members <= spectral._chunk_trials([delta, *family], level)
               for level, starts, members in groups)


def test_climbs_of_a_wide_objective_stay_within_the_chunk_budget(monkeypatch):
    # a 4 x 4 objective is 16 times as wide as row_delta(1)'s value, so its
    # start values and climbs must go in groups sized by the objective
    op_norms, first_within, sizes = spectral._op_norms, spectral._first_within, []

    def recording(stack):
        sizes.append(stack.nbytes)
        return op_norms(stack)

    def recording_within(stack, bound):
        sizes.append(stack.nbytes)
        return first_within(stack, bound)

    monkeypatch.setattr(spectral, "_op_norms", recording)
    monkeypatch.setattr(spectral, "_first_within", recording_within)
    x1 = FreePoly.letter(1, 1)
    objective = PolyMatrix([[x1] * 4] * 4)
    cfg = SampleConfig(levels=(8,), trials_per_level=1024, ascent_steps=2, seed=0)
    rep = sup_norm_estimate(objective, row_delta(1), cfg)
    assert max(sizes) <= spectral.CHUNK_BYTES
    assert rep.admissible > 2 * spectral._chunk_trials([objective], 8)  # several groups


def test_climbs_of_a_wide_delta_stay_within_the_chunk_budget(monkeypatch):
    # diag_delta(3) has a 3n x 3n value, nine times a 1 x 1 objective's, and
    # a step stacks four candidate values per climb, so the groups must count
    # four delta values per climb
    delta = diag_delta(3)
    evaluate, first_within, svd, sizes, groups = (
        PolyMatrix.eval, spectral._first_within, np.linalg.svd, [], [])
    ascend = spectral._ascend

    def recording_eval(self, x):
        value = evaluate(self, x)
        if self is delta:
            sizes.append(value.nbytes)
        return value

    def recording_within(stack, bound):
        sizes.append(stack.nbytes)
        return first_within(stack, bound)

    def recording_svd(a, *args, **kwargs):
        sizes.append(a.nbytes)
        return svd(a, *args, **kwargs)

    def recording_ascend(objectives, delta_, starts, *args):
        groups.append(len(starts) * len(objectives))
        return ascend(objectives, delta_, starts, *args)

    monkeypatch.setattr(spectral, "CHUNK_BYTES", 256 << 10)
    monkeypatch.setattr(PolyMatrix, "eval", recording_eval)
    monkeypatch.setattr(spectral, "_first_within", recording_within)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(spectral, "_ascend", recording_ascend)
    cfg = SampleConfig(levels=(8,), trials_per_level=40, ascent_steps=3, seed=4)
    rep = sup_norm_estimate(FreePoly.letter(1, 3), delta, cfg)
    assert max(sizes) <= spectral.CHUNK_BYTES
    assert len(groups) > 2 and max(groups) > 1  # several groups of several climbs
    assert rep.admissible == sum(groups)


def test_k_spectral_empty_family_draws_nothing_and_generators_work():
    delta = diag_delta(2)
    T = _diag_tuple(1.6)
    cfg = SampleConfig(levels=(1, 2), trials_per_level=4, ascent_steps=3, seed=1)
    propose, calls = _counting(default_proposal(2))
    rep = k_spectral_check(delta, T, 1.0, [], cfg, proposal=propose)
    assert calls == [] and rep.ok
    family = _complex_family()
    listed = k_spectral_check(delta, T, 1.0, family, cfg)
    streamed = k_spectral_check(delta, T, 1.0, (p for p in family), cfg)
    assert dumps_canonical(encode(streamed)) == dumps_canonical(encode(listed))
    assert streamed.violations


def test_k_spectral_checks_every_member_before_drawing():
    propose, calls = _counting(default_proposal(2))
    family = [FreePoly.letter(1, 2), FreePoly.letter(1, 1)]
    with pytest.raises(ShapeError, match="objective uses 1 letters"):
        k_spectral_check(diag_delta(2), _diag_tuple(0.5), 1.0, family, proposal=propose)
    assert calls == []


def test_sample_admissible_matches_the_estimate_tally():
    delta = diag_delta(2)
    cfg = SampleConfig(levels=(1, 2, 3), trials_per_level=12, ascent_steps=0, seed=7)
    rep = sup_norm_estimate(FreePoly.letter(1, 2), delta, cfg)
    assert 0 < len(sample_admissible(delta, cfg)) == rep.admissible < rep.trials


def test_compress_tuple_takes_corners():
    x = MatrixTuple([np.arange(16, dtype=np.complex128).reshape(4, 4)])
    rep = compression_check(row_delta(1), x, 2)
    assert (rep.full_level, rep.compressed_level) == (4, 2)
    assert rep.compressed_norm == pytest.approx(op_norm(np.array([[0, 1], [4, 5]])), rel=1e-12)


def test_compression_affine_never_grows():
    delta = row_delta(2)
    rng = np.random.default_rng(12)
    for _ in range(25):
        g = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
             for _ in range(2)]
        x = MatrixTuple(g)
        rep = compression_check(delta, x, 3, mode="assert")
        assert rep.holds and rep.affine
        assert rep.compressed_norm <= rep.full_norm + 1e-10


def test_compression_counter_instance_cyclic_pair():
    eps = 0.1
    delta = gap_delta(eps)
    c = cyclic_shift(40)
    pair = MatrixTuple([c, c.conj().T])
    # the pair inverts exactly, so only the coordinate blocks contribute
    full = op_norm(delta.eval(pair))
    assert full == pytest.approx(1.0 / 1.1, abs=1e-12)
    rep = compression_check(delta, pair, 20, mode="report")
    assert not rep.affine
    assert rep.compressed_norm == pytest.approx(10.0, abs=1e-9)
    assert not rep.holds
    assert any("not guaranteed" in n for n in rep.notes)
    # certification is refused outright for degree-2 entries
    with pytest.raises(DomainError):
        compression_check(delta, pair, 20, mode="assert")
    with pytest.raises(DomainError):
        compression_check(delta, pair, 20, mode="verify")


def test_family_monomials_enumeration():
    fam = family_monomials(2, 1)
    polys = [m.entry(0, 0) for m in fam]
    assert polys == [FreePoly.one(2), FreePoly.letter(1, 2), FreePoly.letter(2, 2)]
    assert len(family_monomials(2, 2)) == 7  # 1 + 2 + 4
    with pytest.raises(ShapeError):
        family_monomials(2, -1)


def test_gap_proposal_lands_inside_often():
    eps = 0.1
    delta = gap_delta(eps)
    cfg = SampleConfig(levels=(3,), trials_per_level=50, ascent_steps=0, seed=9)
    pts = sample_admissible(delta, cfg, proposal=gap_domain_proposal(eps))
    # the structured proposal hits the thin domain at a healthy rate, where
    # plain Gaussian pairs essentially never do
    assert len(pts) >= 15
    blind = sample_admissible(delta, cfg, proposal=default_proposal(2))
    assert len(blind) == 0
    for x in pts:
        assert op_norm(delta.eval(x)) <= 1.0 - cfg.margin


def test_check_failure_is_importable():
    # assert-mode failures surface as CheckFailure; the type participates in
    # the package error hierarchy
    from freecalc.errors import FreecalcError

    assert issubclass(CheckFailure, FreecalcError)
