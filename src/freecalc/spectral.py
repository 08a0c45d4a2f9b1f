"""Sampled spectral estimates over polynomial sublevel domains.

The domain of interest is ``{x : ||delta(x)|| < 1}`` taken level by level
over tuples of n x n matrices.  Everything here produces *lower* bounds:
we sample candidate tuples, keep the admissible ones, and push each uphill
with a projected random ascent.  A reported supremum estimate is therefore
always attainable (a witness tuple is part of the report) but may undershoot
the true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckFailure, DomainError, ShapeError
from .freepoly import FreePoly, PolyMatrix
from .matrix_core import (
    MatrixTuple,
    compress,
    op_norm,
    random_matrix,
    random_tuple,
    task_rng,
)

MAX_LEVEL = 64

DEFAULT_NORM_TARGETS = tuple(round(0.1 * k, 10) for k in range(1, 16))

# Ascent tuning: after this many consecutive infeasible/non-improving steps
# the step size decays, and once it has decayed below STEP_FLOOR times the
# initial size the climb is declared converged.
REJECTIONS_PER_DECAY = 10
STEP_DECAY = 0.7
STEP_FLOOR = 1e-3

_VIOLATION_SLACK = 1e-10


@dataclass(frozen=True)
class SampleConfig:
    """Knobs for randomized domain sampling and ascent."""

    levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    trials_per_level: int = 200
    ascent_steps: int = 50
    step_size: float = 0.1
    margin: float = 1e-3
    seed: int = 0
    norm_targets: tuple[float, ...] = DEFAULT_NORM_TARGETS

    def __post_init__(self):
        if not self.levels:
            raise ShapeError("need at least one sampling level")
        for n in self.levels:
            if not 1 <= int(n) <= MAX_LEVEL:
                raise ShapeError(f"sampling level {n} outside 1..{MAX_LEVEL}")
        if self.trials_per_level < 0:
            raise ShapeError("trials_per_level must be >= 0")
        if self.ascent_steps < 0:
            raise ShapeError("ascent_steps must be >= 0")
        if not 0 < self.margin < 1:
            raise DomainError("margin must lie in (0, 1)")
        if not 0 < self.step_size < math.inf:
            raise DomainError("step_size must be finite and positive")
        if not self.norm_targets:
            raise ShapeError("need at least one norm target")
        for target in self.norm_targets:
            if not 0 < target < math.inf:
                raise DomainError(f"norm target {target} must be finite and positive")


@dataclass(frozen=True)
class TrialOutcome:
    """One proposal: whether it landed in the domain and how high it climbed."""

    level: int
    trial: int
    admissible: bool
    value: float = float("-inf")
    witness: MatrixTuple | None = None
    domain_norm: float = float("nan")
    converged: bool = False


@dataclass(frozen=True)
class LevelSummary:
    level: int
    trials: int
    admissible: int
    best_value: float | None
    best_trial: int | None


@dataclass(frozen=True)
class Violation:
    """One family member whose test inequality failed (or was witnessed)."""

    index: int
    description: str
    lhs: float
    rhs: float
    status: str  # "confirmed" | "potential" | "witness"


@dataclass(frozen=True)
class SpectralReport:
    kind: str
    estimate: float | None
    witness: MatrixTuple | None
    witness_level: int | None
    witness_trial: int | None
    witness_domain_norm: float | None
    ascent_converged: bool
    trials: int
    admissible: int
    per_level: tuple[LevelSummary, ...]
    config: SampleConfig
    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def default_proposal(d: int):
    """Gaussian tuples, cycling through the configured norm targets."""

    def propose(level: int, trial: int, rng: np.random.Generator, cfg: SampleConfig) -> MatrixTuple:
        return random_tuple(level, d, cfg.norm_targets[trial % len(cfg.norm_targets)], rng)

    return propose


def gap_domain_proposal(eps: float):
    """Structured proposals for the thin domain where x.y is nearly the identity.

    Gaussian pairs essentially never satisfy ||x y - 1|| < eps, so build the
    candidates on the constraint manifold: pick x with controlled singular
    values, then set y = (1 + e) x^{-1} with a small perturbation e.  Every
    candidate is still pushed through the honest membership check afterwards;
    this only shapes where candidates land, never what counts as admissible.
    """

    def propose(level: int, trial: int, rng: np.random.Generator, cfg: SampleConfig) -> MatrixTuple:
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
        return MatrixTuple([x, y])

    return propose


def _in_domain(delta: PolyMatrix, x: MatrixTuple, cfg: SampleConfig) -> tuple[float, bool]:
    """The membership test: ||delta(x)|| and whether it is <= 1 - margin."""
    norm = op_norm(delta.eval(x))
    return norm, norm <= 1.0 - cfg.margin


def _ascend(
    objective: PolyMatrix,
    delta: PolyMatrix,
    start: MatrixTuple,
    start_value: float,
    start_norm: float,
    rng: np.random.Generator,
    cfg: SampleConfig,
) -> tuple[MatrixTuple, float, float, bool]:
    """Projected random hill-climb inside the sublevel set.

    Each step draws one Gaussian perturbation tuple; if the full step leaves
    the domain it is shrunk a few times toward the current point before being
    counted as a rejection.  The random stream is consumed at exactly one
    draw per step regardless of acceptance, so runs with more steps extend
    runs with fewer steps instead of diverging from them.
    """
    best_x, best_val, best_norm = start, start_value, start_norm
    cur, cur_val = start, start_value
    step = cfg.step_size
    rejections = 0
    converged = False
    for _ in range(cfg.ascent_steps):
        pert = np.array([random_matrix(*a.shape, rng) for a in start.coords])
        accepted = False
        for shrink in (1.0, 0.5, 0.25, 0.125):
            cand = MatrixTuple(cur.coords + complex(step * shrink) * pert)
            cand_norm, inside = _in_domain(delta, cand, cfg)
            if inside:
                cand_val = op_norm(objective.eval(cand))
                if cand_val > cur_val:
                    cur, cur_val = cand, cand_val
                    if cand_val > best_val:
                        best_x, best_val, best_norm = cand, cand_val, cand_norm
                    accepted = True
                break
        if accepted:
            rejections = 0
        else:
            rejections += 1
            if rejections >= REJECTIONS_PER_DECAY:
                rejections = 0
                step *= STEP_DECAY
                if step < STEP_FLOOR * cfg.step_size:
                    converged = True
                    break
    return best_x, best_val, best_norm, converged


def _propose(
    delta: PolyMatrix, cfg: SampleConfig, level: int, trial: int, proposal
) -> tuple[MatrixTuple, np.random.Generator]:
    """Draw the proposal for one (level, trial) task from its own generator."""
    rng = task_rng(cfg.seed, level, trial)
    x = proposal(level, trial, rng, cfg)
    if x.d != delta.d:
        raise ShapeError(
            f"proposal returned a tuple in {x.d} letters, domain uses {delta.d}"
        )
    return x, rng


def _climb(
    objective: PolyMatrix,
    delta: PolyMatrix,
    cfg: SampleConfig,
    x: MatrixTuple,
    level: int,
    trial: int,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Test x for membership; if it is admissible, hill-climb from it."""
    domain_norm, inside = _in_domain(delta, x, cfg)
    if not inside:
        return TrialOutcome(level, trial, False)
    value = op_norm(objective.eval(x))
    best_x, best_val, best_norm, converged = _ascend(
        objective, delta, x, value, domain_norm, rng, cfg
    )
    return TrialOutcome(level, trial, True, best_val, best_x, best_norm, converged)


def sup_norm_estimate(
    objective,
    delta,
    cfg: SampleConfig | None = None,
    *,
    proposal=None,
    extra_candidates: tuple[MatrixTuple, ...] = (),
) -> SpectralReport:
    """Lower-bound the supremum of ||objective(x)|| over the sublevel domain.

    Samples `cfg.trials_per_level` proposals at every level in `cfg.levels`,
    keeps those with ||delta(x)|| <= 1 - margin, and hill-climbs each.  Every
    trial draws from its own task-keyed generator and the merge keeps the
    first strict improvement, so the same config and seed reproduce the same
    report byte for byte.
    """
    objective = PolyMatrix.from_poly(objective)
    delta = PolyMatrix.from_poly(delta)
    if objective.d != delta.d:
        raise ShapeError(
            f"objective uses {objective.d} letters but the domain map uses {delta.d}"
        )
    cfg = cfg or SampleConfig()
    proposal = proposal or default_proposal(delta.d)

    outcomes = []
    for level in cfg.levels:
        for trial in range(cfg.trials_per_level):
            x, rng = _propose(delta, cfg, level, trial, proposal)
            outcomes.append(_climb(objective, delta, cfg, x, level, trial, rng))
    # An explicitly supplied tuple is a trial tagged with trial = -1 - index.
    for idx, x in enumerate(extra_candidates):
        rng = task_rng(cfg.seed, 0x0E, idx)
        outcomes.append(_climb(objective, delta, cfg, x, x.n, -1 - idx, rng))

    best: TrialOutcome | None = None
    admissible = 0
    per_level: dict[int, list[TrialOutcome]] = {}
    for out in outcomes:
        if out.admissible:
            admissible += 1
            if best is None or out.value > best.value:
                best = out
        per_level.setdefault(out.level, []).append(out)

    summaries = []
    for level in sorted(per_level):
        outs = per_level[level]
        adm = [o for o in outs if o.admissible]
        top = max(adm, key=lambda o: o.value) if adm else None
        summaries.append(
            LevelSummary(
                level=level,
                trials=len(outs),
                admissible=len(adm),
                best_value=top.value if top else None,
                best_trial=top.trial if top else None,
            )
        )

    notes = []
    if best is None:
        notes.append(
            "no admissible sample found: the domain may be empty, or too thin "
            "for the proposal distribution at these levels"
        )
    notes.append("estimate is a sampled lower bound for the supremum")
    return SpectralReport(
        kind="sup_norm",
        estimate=best.value if best else None,
        witness=best.witness if best else None,
        witness_level=best.level if best else None,
        witness_trial=best.trial if best else None,
        witness_domain_norm=best.domain_norm if best else None,
        ascent_converged=bool(best.converged) if best else False,
        trials=len(outcomes),
        admissible=admissible,
        per_level=tuple(summaries),
        config=cfg,
        notes=tuple(notes),
    )


def sample_admissible(
    delta,
    cfg: SampleConfig | None = None,
    *,
    proposal=None,
) -> list[MatrixTuple]:
    """Collect proposal tuples with ||delta(x)|| <= 1 - margin (no ascent)."""
    delta = PolyMatrix.from_poly(delta)
    cfg = cfg or SampleConfig()
    proposal = proposal or default_proposal(delta.d)
    hits = []
    for level in cfg.levels:
        for trial in range(cfg.trials_per_level):
            x, _ = _propose(delta, cfg, level, trial, proposal)
            if _in_domain(delta, x, cfg)[1]:
                hits.append(x)
    return hits


def _describe(p: PolyMatrix) -> str:
    if p.I == 1 and p.J == 1:
        return str(p.entry(0, 0))
    return f"{p.I}x{p.J} matrix polynomial, max degree {p.max_degree()}"


def k_spectral_check(
    delta,
    T: MatrixTuple,
    K: float,
    family,
    cfg: SampleConfig | None = None,
    *,
    proposal=None,
) -> SpectralReport:
    """Test ||P(T)|| <= K * sup_domain ||P(x)|| for every P in the family.

    The right-hand side is a sampled lower bound, so a reported violation is
    genuine evidence against the inequality while a clean pass is not a proof.
    Violations are graded "confirmed" when the winning ascent converged and
    "potential" otherwise.  If T itself lies in the domain it is fed in as a
    candidate, which makes the K = 1 inequality hold by construction.
    """
    delta = PolyMatrix.from_poly(delta)
    cfg = cfg or SampleConfig()
    if not 0 < K < math.inf:
        raise DomainError(f"the spectral constant K must be finite and positive, got {K}")
    t_norm, t_inside = _in_domain(delta, T, cfg)
    extras = (T,) if t_inside else ()

    violations = []
    notes = []
    skipped = 0
    for idx, member in enumerate(family):
        p = PolyMatrix.from_poly(member)
        rep = sup_norm_estimate(p, delta, cfg, proposal=proposal, extra_candidates=extras)
        lhs = op_norm(p.eval(T))
        if rep.estimate is None:
            skipped += 1
            continue
        rhs = K * rep.estimate
        if lhs > rhs + _VIOLATION_SLACK * max(1.0, rhs):
            violations.append(
                Violation(
                    index=idx,
                    description=_describe(p),
                    lhs=lhs,
                    rhs=rhs,
                    status="confirmed" if rep.ascent_converged else "potential",
                )
            )
    if not t_inside:
        notes.append(
            f"the test tuple is outside the sampled domain (||delta(T)|| = {t_norm:.6g})"
        )
    if skipped:
        notes.append(
            f"{skipped} family member(s) skipped: no admissible sample, domain possibly empty"
        )
    notes.append(
        "supremum estimates are lower bounds: violations are evidence, passes are not proofs"
    )
    return SpectralReport(
        kind="k_spectral",
        estimate=None,
        witness=None,
        witness_level=None,
        witness_trial=None,
        witness_domain_norm=t_norm,
        ascent_converged=False,
        trials=0,
        admissible=0,
        per_level=(),
        config=cfg,
        violations=tuple(violations),
        notes=tuple(notes),
    )


def sigma_cc_falsify(x: MatrixTuple, T: MatrixTuple, family) -> SpectralReport:
    """Look for a family member with ||P(x)|| > ||P(T)||.

    The comparison encodes "x is dominated by T on every test polynomial";
    the first counterexample (in family order) is returned as a witness.
    An empty result only says the finite family found nothing.
    """
    if x.d != T.d:
        raise ShapeError(f"tuples use {x.d} and {T.d} letters; they must match")
    members = [PolyMatrix.from_poly(m) for m in family]
    violations = []
    for idx, p in enumerate(members):
        lhs = op_norm(p.eval(x))
        rhs = op_norm(p.eval(T))
        if lhs > rhs + _VIOLATION_SLACK * max(1.0, rhs):
            violations.append(
                Violation(
                    index=idx,
                    description=_describe(p),
                    lhs=lhs,
                    rhs=rhs,
                    status="witness",
                )
            )
            break
    notes = (
        ("domination falsified by the first listed witness",)
        if violations
        else ("no witness found in this finite family; domination not established",)
    )
    return SpectralReport(
        kind="sigma_cc",
        estimate=None,
        witness=None,
        witness_level=None,
        witness_trial=None,
        witness_domain_norm=None,
        ascent_converged=False,
        trials=len(members),
        admissible=0,
        per_level=(),
        config=SampleConfig(),
        violations=tuple(violations),
        notes=notes,
    )


def compress_tuple(x: MatrixTuple, n: int) -> MatrixTuple:
    """Compress every coordinate to its leading principal n x n corner."""
    return MatrixTuple([compress(c, n) for c in x.coords])


@dataclass(frozen=True)
class CompressionReport:
    affine: bool
    full_level: int
    compressed_level: int
    full_norm: float
    compressed_norm: float
    holds: bool
    mode: str
    notes: tuple[str, ...] = ()


def compression_check(
    delta,
    x: MatrixTuple,
    n: int,
    mode: str = "report",
) -> CompressionReport:
    """Compare ||delta(corner of x)|| against ||delta(x)||.

    For maps whose entries have degree <= 1 the corner compression can never
    increase the norm (corner-of-product effects don't arise), and `assert`
    mode enforces that.  For higher-degree entries the inequality can fail
    badly, so `assert` mode refuses to certify and `report` mode simply
    records both norms.
    """
    delta = PolyMatrix.from_poly(delta)
    if mode not in ("report", "assert"):
        raise DomainError(f"unknown compression mode {mode!r}")
    affine = delta.max_degree() <= 1
    if mode == "assert" and not affine:
        raise DomainError(
            "compression certificates need degree <= 1 entries; "
            f"this map has degree {delta.max_degree()} (run mode='report' instead)"
        )
    full = op_norm(delta.eval(x))
    small = op_norm(delta.eval(compress_tuple(x, n)))
    holds = small <= full + 1e-10
    notes = []
    if not affine:
        notes.append("entries exceed degree 1: the inequality is not guaranteed")
    if mode == "assert" and not holds:
        raise CheckFailure(
            f"compression inequality failed: ||delta(x_{n})|| = {small:.6g} "
            f"> ||delta(x)|| = {full:.6g}"
        )
    return CompressionReport(
        affine=affine,
        full_level=x.n,
        compressed_level=n,
        full_norm=full,
        compressed_norm=small,
        holds=holds,
        mode=mode,
        notes=tuple(notes),
    )


def _all_words(d: int, max_len: int):
    from itertools import product

    yield ()
    for length in range(1, max_len + 1):
        yield from product(range(1, d + 1), repeat=length)


def family_monomials(d: int, max_len: int) -> list[PolyMatrix]:
    """Every monomial of length <= max_len, constants and coordinates included."""
    if max_len < 0:
        raise ShapeError("max_len must be >= 0")
    return [PolyMatrix([[FreePoly.monomial(w, d)]]) for w in _all_words(d, max_len)]


def _base_family(d: int) -> list[FreePoly]:
    return [FreePoly.one(d)] + [FreePoly.letter(j, d) for j in range(1, d + 1)]


def family_random(d: int, count: int, max_len: int, seed: int) -> list[PolyMatrix]:
    """The constant 1, the coordinates, then random sparse polynomials."""
    out = [PolyMatrix([[p]]) for p in _base_family(d)]
    words = list(_all_words(d, max_len))
    for idx in range(count):
        rng = task_rng(seed, 0xFA, idx)
        n_terms = int(rng.integers(1, 5))
        p = FreePoly.zero(d)
        for _ in range(n_terms):
            w = words[int(rng.integers(0, len(words)))]
            c = complex(rng.standard_normal(), rng.standard_normal())
            p = p + FreePoly.monomial(w, d, c)
        if p.is_zero():
            p = FreePoly.one(d)
        out.append(PolyMatrix([[p]]))
    return out


def family_matrix_polys(
    d: int, shape: tuple[int, int], count: int, max_len: int, seed: int
) -> list[PolyMatrix]:
    """Matrix-valued test family: scalar base members ampliated to the shape,
    then random sparse matrix polynomials."""
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ShapeError("family shape must be positive in both directions")
    out = []
    side = min(rows, cols)
    for base in _base_family(d):
        grid = [
            [base if (i == j and i < side) else FreePoly.zero(d) for j in range(cols)]
            for i in range(rows)
        ]
        out.append(PolyMatrix(grid))
    words = list(_all_words(d, max_len))
    for idx in range(count):
        rng = task_rng(seed, 0xFB, idx)
        grid = [[FreePoly.zero(d) for _ in range(cols)] for _ in range(rows)]
        n_terms = int(rng.integers(1, 2 + rows * cols))
        for _ in range(n_terms):
            i = int(rng.integers(0, rows))
            j = int(rng.integers(0, cols))
            w = words[int(rng.integers(0, len(words)))]
            c = complex(rng.standard_normal(), rng.standard_normal())
            grid[i][j] = grid[i][j] + FreePoly.monomial(w, d, c)
        out.append(PolyMatrix(grid))
    return out
