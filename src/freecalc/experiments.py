"""Named end-to-end experiments behind the ``freecalc experiment`` command.

Each experiment is a deterministic function of its seed and config that
returns a JSON-ready dict: config echo, numeric results, and a list of named
pass/fail checks.  Anything randomized routes through task-keyed generators,
so re-running with the same arguments reproduces the report byte for byte.
"""

from __future__ import annotations

import inspect

import numpy as np

from .errors import DomainError, ValidationError
from .freepoly import (
    FreePoly,
    diag_delta,
    gap_delta,
    lens_delta,
    row_delta,
)
from .funcalc import CalcParams, compile_polynomial, default_scale, poly_consistency, sharp
from .matrix_core import (
    MatrixTuple,
    _task_rngs,
    cyclic_shift,
    op_norm,
    random_matrix,
    shift_matrix,
    task_rng,
)
from .realization import _check_loop_dim, random_isometric, xfirst_to_blocks
from .serialize import encode
from .spectral import (
    MAX_LEVEL,
    SampleConfig,
    compression_check,
    family_monomials,
    gap_domain_proposal,
    k_spectral_check,
    sup_norm_estimate,
)
from .version import VERSION

EXPERIMENT_NAMES = ("gap", "rowball", "polydisc", "commutator", "lens", "custom")

# Most monomials the polydisc spectral probe may take: every word of length
# <= 6 over 3 letters.  Each member runs a full sup-norm estimate, and that
# family alone takes about 77 s at the default trial counts.
MAX_FAMILY = 1093
# Most polydisc coordinates.  The identity check forms (n*d) x (n*d) matrices
# and the calc step's loop grows with level*d.  A family_max_len = 0 run
# (whose family does not bound d) at the default trial counts took 1.3, 2.6,
# 7.7, 31 and 144 s for d = 8, 16, 32, 64 and 128 on 2 CPUs with one BLAS
# thread.  32 is also the largest d that the default family_max_len = 2
# admits under MAX_FAMILY.
MAX_POLYDISC_D = 32
# Most rowball coordinates.  Everything the run builds grows with d: the row
# of letters, the (2 + 3d) x 5 isometry and d coordinate matrices per tuple.
# d = 1024 at level 64 took 5.5-6.5 s and 299 MiB peak RSS on 2 CPUs with one
# BLAS thread.
MAX_ROWBALL_D = 1024


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _require(lo: int, hi: float, **options) -> None:
    """Option values lie in lo..hi, checked before anything is allocated.

    Matrix sizes lie in 1..MAX_LEVEL.  Sample counts behind a check are at
    least 1, since a check over no samples would pass on no evidence.  A
    tuple value lists several values and must not be empty.
    """
    for name, value in options.items():
        values = value if isinstance(value, tuple) else (value,)
        if not values or not all(lo <= v <= hi for v in values):
            raise DomainError(f"option {name} = {value!r} lies outside {lo}..{hi}")


def _family_size(d: int, max_len: int) -> int:
    """Number of words of length <= max_len over d >= 1 letters, counted only
    until it passes MAX_FAMILY, so a huge max_len costs nothing."""
    size, words = 0, 1
    for _ in range(max_len + 1):
        size += words
        if size > MAX_FAMILY:
            break
        words *= d
    return size


def _report(name: str, seed: int, config: dict, results: dict, checks: list[dict]) -> dict:
    return {
        "experiment": name,
        "tool_version": VERSION,
        "seed": seed,
        "config": config,
        "results": results,
        "checks": checks,
        "ok": all(c["passed"] for c in checks),
    }


# --- gap: products pinned near 1 on a thin domain ---------------------------------


def run_gap(
    seed: int = 0,
    eps: float = 0.1,
    levels: tuple[int, ...] = (2, 3, 4),
    trials_per_level: int = 6000,
    refine_trials: int = 40,
    ascent_steps: int = 60,
    min_admissible: int = 10_000,
    shift_size: int = 40,
    compress_to: int = 20,
) -> dict:
    """Supremum of ||x y - 1|| over the gap domain, plus the compression blow-up.

    Two-phase estimate: a wide sampling pass (no ascent) for coverage and an
    ascent pass on fewer trials for refinement; the reported estimate is the
    max of the two.  The bound eps + 4 eps^2 should survive both.  The second
    half exhibits the circulant shift pair: inside the domain at full size,
    yet its corner compression tears through the domain wall.
    """
    _require(1, MAX_LEVEL, shift_size=shift_size, compress_to=compress_to)
    delta = gap_delta(eps)
    p = FreePoly.letter(1, 2) * FreePoly.letter(2, 2) - 1
    proposal = gap_domain_proposal(eps)

    mass_cfg = SampleConfig(
        levels=levels, trials_per_level=trials_per_level, ascent_steps=0, seed=seed
    )
    mass = sup_norm_estimate(p, delta, mass_cfg, proposal=proposal)
    refine_cfg = SampleConfig(
        levels=levels,
        trials_per_level=refine_trials,
        ascent_steps=ascent_steps,
        seed=seed + 1,
    )
    refine = sup_norm_estimate(p, delta, refine_cfg, proposal=proposal)

    candidates = [r for r in (mass.estimate, refine.estimate) if r is not None]
    estimate = max(candidates) if candidates else None
    bound = eps + 4.0 * eps * eps

    shift = cyclic_shift(shift_size)
    pair = MatrixTuple([shift, shift.conj().T])
    pair_norm = op_norm(delta.eval(pair))
    p_at_pair = op_norm(p.eval(pair))
    comp = compression_check(delta, pair, compress_to, mode="report")

    checks = [
        _check(
            "sup_below_bound",
            estimate is not None and estimate <= bound,
            f"sampled sup {estimate} vs bound eps + 4 eps^2 = {bound}",
        ),
        _check(
            "admissible_count",
            mass.admissible + refine.admissible >= min_admissible,
            f"{mass.admissible + refine.admissible} admissible samples "
            f"(required {min_admissible})",
        ),
        _check(
            "shift_pair_inside",
            pair_norm <= 1.0 - mass_cfg.margin,
            f"circulant pair has ||delta(S)|| = {pair_norm:.6f} < 1",
        ),
        _check(
            "compression_blowup",
            (not comp.holds) and comp.compressed_norm > 1.0,
            f"corner compression jumps {comp.full_norm:.6f} -> "
            f"{comp.compressed_norm:.6f}, leaving the domain",
        ),
    ]
    results = {
        "bound": bound,
        "estimate": estimate,
        "mass_pass": encode(mass),
        "refine_pass": encode(refine),
        "shift_pair_domain_norm": pair_norm,
        "shift_pair_objective": p_at_pair,
        "compression": encode(comp),
    }
    config = {
        "eps": eps,
        "levels": list(levels),
        "trials_per_level": trials_per_level,
        "refine_trials": refine_trials,
        "ascent_steps": ascent_steps,
        "min_admissible": min_admissible,
        "shift_size": shift_size,
        "compress_to": compress_to,
    }
    return _report("gap", seed, config, results, checks)


# --- rowball: row contractions -----------------------------------------------------


def run_rowball(
    seed: int = 0,
    d: int = 3,
    identity_trials: int = 50,
    level: int = 4,
    target_t: float = 0.6,
) -> dict:
    """Row-contraction domain: norm identity and calculus certificates.

    The defining row has ||delta(x)||^2 = ||sum_j x_j x_j*|| exactly; we check
    that identity on random tuples, then run the calculus on a random
    isometric model at a point with ||delta(T)|| = target_t and record its
    certificate set (contractivity and the geometric series envelope).
    """
    _require(1, MAX_LEVEL, level=level)
    _require(1, MAX_ROWBALL_D, d=d)
    _require(1, np.inf, identity_trials=identity_trials)
    delta = row_delta(d)
    worst_rel = 0.0
    for i, rng in enumerate(_task_rngs(seed, (0x10,), range(identity_trials))):
        n = 1 + i % 4
        x = MatrixTuple([random_matrix(n, n, rng) for _ in range(d)])
        lhs = op_norm(delta.eval(x)) ** 2
        gram = sum(c @ c.conj().T for c in x.coords)
        rhs = op_norm(gram)
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(1.0, abs(rhs)))

    F = random_isometric(1, d, 3, 2, 2, task_rng(seed, 0x11))
    rng = task_rng(seed, 0x12)
    T = MatrixTuple([random_matrix(level, level, rng) for _ in range(d)])
    t0 = op_norm(delta.eval(T))
    T = MatrixTuple([c * (target_t / t0) for c in T.coords])
    rep = sharp(F, delta, T, CalcParams())

    value_norm = float(op_norm(rep.value))
    geo = 1.0 / (1.0 - rep.t)
    checks = [
        _check(
            "row_norm_identity",
            worst_rel <= 1e-12,
            f"max relative gap between ||row||^2 and ||sum x x*|| is {worst_rel:.3e}",
        ),
        _check("calc_certificates", rep.ok, "all evaluation certificates passed"),
        _check(
            "contractive_value",
            value_norm <= 1.0 + 1e-8,
            f"||value|| = {value_norm:.6f} <= 1",
        ),
        _check(
            "geometric_envelope",
            value_norm <= geo + 1e-6,
            f"||value|| = {value_norm:.6f} <= 1/(1-t) = {geo:.6f}",
        ),
    ]
    results = {
        "identity_max_rel_gap": worst_rel,
        "calc_report": encode(rep),
    }
    config = {
        "d": d,
        "identity_trials": identity_trials,
        "level": level,
        "target_t": target_t,
    }
    return _report("rowball", seed, config, results, checks)


# --- polydisc: diagonal arrangement ----------------------------------------------


def run_polydisc(
    seed: int = 0,
    d: int = 3,
    identity_trials: int = 100,
    level: int = 3,
    family_max_len: int = 2,
    spectral_trials: int = 60,
) -> dict:
    """Diagonal domain: max-coordinate norm identity and a spectral-set probe.

    ||diag(x^1 .. x^d)|| is the max of the coordinate norms — exactly.  T is
    scaled to ||delta(T)|| = 0.7, inside the domain, so k_spectral_check feeds
    T in as a candidate and every member's sampled supremum is at least
    ||P(T)||: at K = 1 the spectral_no_violations check holds by construction.
    """
    _require(1, MAX_LEVEL, level=level)
    _require(1, MAX_POLYDISC_D, d=d)
    _require(1, np.inf, identity_trials=identity_trials, spectral_trials=spectral_trials)
    _require(0, np.inf, family_max_len=family_max_len)
    if _family_size(d, family_max_len) > MAX_FAMILY:
        raise DomainError(
            f"options d = {d}, family_max_len = {family_max_len} ask for more than "
            f"{MAX_FAMILY} monomials (all words of length <= {family_max_len})"
        )
    F = random_isometric(d, d, 2, 2, 2, task_rng(seed, 0x22))
    _check_loop_dim(F, level)  # the calc step's loop, before any sampling
    delta = diag_delta(d)
    worst = 0.0
    for i, rng in enumerate(_task_rngs(seed, (0x20,), range(identity_trials))):
        n = 1 + i % 4
        x = MatrixTuple([random_matrix(n, n, rng) for _ in range(d)])
        lhs = op_norm(delta.eval(x))
        rhs = max(op_norm(c) for c in x.coords)
        worst = max(worst, abs(lhs - rhs))

    rng = task_rng(seed, 0x21)
    T = MatrixTuple([random_matrix(level, level, rng) for _ in range(d)])
    t0 = op_norm(delta.eval(T))
    T = MatrixTuple([c * (0.7 / t0) for c in T.coords])
    cfg = SampleConfig(
        levels=(1, 2, level), trials_per_level=spectral_trials, ascent_steps=20,
        seed=seed,
    )
    ks = k_spectral_check(delta, T, 1.0, family_monomials(d, family_max_len), cfg)

    rep = sharp(F, delta, T, CalcParams())

    checks = [
        _check(
            "max_coordinate_identity",
            worst <= 1e-12,
            f"max |  ||delta(x)|| - max_j ||x^j||  | = {worst:.3e}",
        ),
        _check(
            "spectral_no_violations",
            not ks.violations,
            f"{len(ks.violations)} violation(s) among the monomial family",
        ),
        _check("calc_certificates", rep.ok, "all evaluation certificates passed"),
    ]
    results = {
        "identity_max_gap": worst,
        "spectral_report": encode(ks),
        "calc_report": encode(rep),
    }
    config = {
        "d": d,
        "identity_trials": identity_trials,
        "level": level,
        "family_max_len": family_max_len,
        "spectral_trials": spectral_trials,
    }
    return _report("polydisc", seed, config, results, checks)


# --- commutator: an empty domain with a nonempty closure --------------------------


def oscillator_pair(size: int) -> MatrixTuple:
    """Truncated raising/lowering pair scaled so the ideal commutator is 1/2.

    On the infinite ladder the pair (a, a*)/sqrt(2) satisfies
    x^1 x^2 - x^2 x^1 = 1/2, so q = x^1 x^2 - x^2 x^1 - 1 has norm exactly 1/2.
    Every finite truncation picks up a rank-one defect of size (size)/2 at the
    top rung, which is the point: no matrix tuple gets q below norm 1.
    """
    if size < 1:
        raise DomainError("oscillator size must be positive")
    a = np.zeros((size, size), dtype=np.complex128)
    for k in range(1, size):
        a[k - 1, k] = np.sqrt(k)
    a /= np.sqrt(2.0)
    return MatrixTuple([a, a.conj().T])


def run_commutator(
    seed: int = 0,
    levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    trials_per_level: int = 1300,
    eigen_checks: int = 100,
    osc_size: int = 16,
    T: MatrixTuple | None = None,
    emptiness_trials: int = 150,
) -> dict:
    """The commutator residual q = x^1 x^2 - x^2 x^1 - 1 never dips below 1.

    Samples random pairs across levels and records the minimum of ||q(x)||;
    cross-checks the first few via the trace argument (the commutator's
    eigenvalues sum to 0, so q's eigenvalues average -1 and the spectral
    radius is at least 1).  Also confirms the sampler reports the sublevel
    domain of q as possibly empty, and evaluates q at a supplied (or default
    truncated-ladder) tuple, reporting its distance from the ideal value 1/2.
    """
    _require(1, MAX_LEVEL, levels=levels, osc_size=osc_size)
    _require(1, np.inf, trials_per_level=trials_per_level, eigen_checks=eigen_checks,
             emptiness_trials=emptiness_trials)
    d = 2
    x1 = FreePoly.letter(1, d)
    x2 = FreePoly.letter(2, d)
    q = x1 * x2 - x2 * x1 - 1

    min_norm = float("inf")
    eigen_rows = []
    count = 0
    for level in levels:
        for tr, rng in enumerate(_task_rngs(seed, (0x30, level), range(trials_per_level))):
            x = MatrixTuple([random_matrix(level, level, rng) for _ in range(d)])
            qx = q.eval(x)
            nq = op_norm(qx)
            min_norm = min(min_norm, nq)
            if count < eigen_checks:
                eig = np.linalg.eigvals(qx)
                eigen_rows.append(
                    {
                        "level": level,
                        "trial": tr,
                        "eig_sum_error": float(abs(eig.sum() + level)),
                        "spectral_radius": float(np.abs(eig).max()),
                        "q_norm": float(nq),
                    }
                )
            count += 1

    eig_ok = all(
        r["eig_sum_error"] <= 1e-8 * max(1.0, r["level"])
        and r["spectral_radius"] >= 1.0 - 1e-10
        and r["q_norm"] >= r["spectral_radius"] - 1e-10
        for r in eigen_rows
    )

    empt_cfg = SampleConfig(
        levels=(1, 2, 3, 4), trials_per_level=emptiness_trials, ascent_steps=0,
        seed=seed,
    )
    empt = sup_norm_estimate(FreePoly.one(d), q, empt_cfg)

    probe = T if T is not None else oscillator_pair(osc_size)
    q_at_probe = float(op_norm(q.eval(probe)))

    checks = [
        _check(
            "min_norm_at_least_one",
            min_norm >= 1.0 - 1e-10,
            f"min over {count} sampled pairs of ||q(x)|| is {min_norm:.12f}",
        ),
        _check(
            "trace_argument_crosscheck",
            eig_ok,
            f"{len(eigen_rows)} eigen decompositions: eigenvalues of q average -1 "
            "and the spectral radius stays >= 1",
        ),
        _check(
            "sublevel_domain_empty",
            empt.estimate is None,
            "sampler found no admissible point for ||q(x)|| < 1 "
            f"in {empt.trials} trials",
        ),
    ]
    results = {
        "samples": count,
        "min_q_norm": min_norm,
        "eigen_crosschecks": eigen_rows,
        "emptiness_report": encode(empt),
        "probe_level": probe.n,
        "q_at_probe": q_at_probe,
        "probe_gap_from_half": abs(q_at_probe - 0.5),
        "notes": [
            "the ideal tuple satisfies ||q|| = 1/2 only beyond finite truncation; "
            "the reported gap measures the truncation defect at the top ladder rung"
        ],
    }
    config = {
        "levels": list(levels),
        "trials_per_level": trials_per_level,
        "eigen_checks": eigen_checks,
        "osc_size": osc_size if T is None else None,
        "emptiness_trials": emptiness_trials,
        "probe_supplied": T is not None,
    }
    return _report("commutator", seed, config, results, checks)


# --- lens: intersection of two disks ----------------------------------------------


def default_lens_poly() -> FreePoly:
    """The stock two-letter polynomial evaluated on (T, T - 1) in the lens runs."""
    d = 2
    x1 = FreePoly.letter(1, d)
    x2 = FreePoly.letter(2, d)
    return x1 * x2 - 2 * (x2 * x1) + x1 * x1 * x2 + 0.5


def lens_point(seed: int, size: int, r: float) -> MatrixTuple:
    """A tuple inside the lens: diagonal in the disk intersection plus a small
    nilpotent bump, with max(||T||, ||T - 1||) <= r by construction."""
    if not 0.5 < r < 1.0:
        raise DomainError("the lens needs 0.5 < r < 1 (the disks must overlap)")
    if size < 1:
        raise DomainError(f"the lens point needs size >= 1, got {size}")
    rng = task_rng(seed, 0x40)
    height = np.sqrt(r * r - 0.25)
    ys = rng.uniform(-0.8 * height, 0.8 * height, size=size)
    diag = np.diag((0.5 + 1j * ys).astype(np.complex128))
    base = max(abs(0.5 + 1j * y) for y in ys)  # = |d_k - 1| too, by symmetry
    mu = 0.5 * (r - base)
    T = diag + mu * shift_matrix(size)
    return MatrixTuple([T])


def run_lens(
    seed: int = 0,
    r: float = 0.75,
    size: int = 6,
    g: FreePoly | None = None,
) -> dict:
    """Calculus on the lens (both ||T|| and ||T - 1|| small) vs direct evaluation.

    The model is compiled from g with the second letter sent to x - 1, fed the
    lens arrangement diag(x, x-1).  The oracle evaluates g directly on the
    two-letter tuple (T, T-1); the compiled route must match it exactly up to
    roundoff, and the value obeys the l1 coefficient bound since both
    arguments are strict contractions.
    """
    _require(1, MAX_LEVEL, size=size)
    g = g if g is not None else default_lens_poly()
    if g.d != 2:
        raise DomainError("the lens polynomial must use exactly 2 letters")
    delta = lens_delta()
    T = lens_point(seed, size, r)
    Tm = T.coords[0]
    eye = np.eye(size, dtype=np.complex128)
    t_norm = op_norm(Tm)
    tm1_norm = op_norm(Tm - eye)
    t0 = max(t_norm, tm1_norm)

    one_letter = [FreePoly.letter(1, 1), FreePoly.letter(1, 1) - 1]
    P = g.substitute(one_letter)
    s = default_scale(t0)
    F = compile_polynomial(P, delta, s=s)
    params = CalcParams(s=s)
    rep = sharp(F, delta, T, params)
    value = xfirst_to_blocks(rep.value, size, 1, 1)

    oracle = g.eval(MatrixTuple([Tm, Tm - eye]))
    gap = float(op_norm(value - oracle))
    l1 = sum(abs(c) for _, c in g.sorted_terms())
    value_norm = float(op_norm(value))

    consistency = poly_consistency(P, F, delta, T, params)

    checks = [
        _check(
            "point_in_lens",
            t0 <= r + 1e-12,
            f"max(||T||, ||T-1||) = {t0:.6f} <= r = {r}",
        ),
        _check(
            "matches_direct_evaluation",
            gap <= 1e-9,
            f"||compiled value - g(T, T-1)|| = {gap:.3e}",
        ),
        _check(
            "l1_coefficient_bound",
            value_norm <= l1 + 1e-9,
            f"||value|| = {value_norm:.6f} <= sum |coeff| = {l1:.6f}",
        ),
        _check("calc_certificates", rep.ok, "all evaluation certificates passed"),
    ]
    results = {
        "t_norm": float(t_norm),
        "t_minus_1_norm": float(tm1_norm),
        "scale": s,
        "gap_vs_oracle": gap,
        "l1_norm_of_g": float(l1),
        "value_norm": value_norm,
        "calc_report": encode(rep),
        "consistency_report": encode(consistency),
    }
    config = {"r": r, "size": size, "g": encode(g)}
    return _report("lens", seed, config, results, checks)


# --- custom: one evaluation job from a file ----------------------------------------


def run_custom(job: dict, seed: int = 0, source: str | None = None) -> dict:
    """Run a decoded evaluation job (F, delta, T, params) and report certificates."""
    rep = sharp(job["F"], job["delta"], job["T"], job["params"])
    checks = [
        _check(
            f"certificate:{c.name}", c.passed, f"{c.lhs:.6e} <= {c.rhs:.6e}"
        )
        for c in rep.certificates
    ]
    results = {"calc_report": encode(rep)}
    config = {
        "source": source,
        "params": encode(job["params"]),
    }
    return _report("custom", seed, config, results, checks)


def _fits(value, default) -> bool:
    """Whether an option value has the type of the runner's default for it."""
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _check_options(runner, options: dict) -> None:
    """Reject option names the runner does not take and values of the wrong type.

    Names and types come from the runner's signature: the type of each
    default, or the annotation where the default is None.
    """
    params = inspect.signature(runner, eval_str=True).parameters
    names = [p for p in params if p != "seed"]
    for key, value in options.items():
        if key not in names:
            raise ValidationError(
                f"unknown option {key!r}; this experiment takes {', '.join(names)}"
            )
        default = params[key].default
        if default is None:
            ok = isinstance(value, params[key].annotation)
            expected = str(params[key].annotation)
        else:
            ok = _fits(value, default)
            expected = f"a value like {default!r}"
        if not ok:
            raise ValidationError(f"option {key!r} got {value!r}; expected {expected}")


def run_experiment(name: str, seed: int, options: dict) -> dict:
    """Dispatch an experiment by name with keyword options, checked first
    against the runner's signature."""
    runners = {
        "gap": run_gap,
        "rowball": run_rowball,
        "polydisc": run_polydisc,
        "commutator": run_commutator,
        "lens": run_lens,
    }
    if name not in runners:
        raise DomainError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    _check_options(runners[name], options)
    return runners[name](seed=seed, **options)
