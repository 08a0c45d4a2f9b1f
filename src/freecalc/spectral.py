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
from itertools import chain, product

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

__all__ = [
    "CompressionReport",
    "SampleConfig",
    "SpectralReport",
    "Violation",
    "compression_check",
    "family_monomials",
    "gap_domain_proposal",
    "k_spectral_check",
    "sample_admissible",
    "sup_norm_estimate",
]

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
class LevelSummary:
    level: int
    trials: int
    admissible: int
    best_value: float | None
    best_trial: int | None


@dataclass(frozen=True)
class Violation:
    """One family member whose test inequality failed."""

    index: int
    description: str
    lhs: float
    rhs: float
    status: str  # "confirmed" | "potential"


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
    start_norm: float,
    rng: np.random.Generator,
    cfg: SampleConfig,
) -> tuple[MatrixTuple, float, float, bool]:
    """Projected random hill-climb inside the sublevel set from an admissible
    start: (witness, value, ||delta(witness)||, converged).

    Each step draws one Gaussian perturbation tuple; if the full step leaves
    the domain it is shrunk a few times toward the current point before being
    counted as a rejection.  The random stream is consumed at exactly one
    draw per step regardless of acceptance, so runs with more steps extend
    runs with fewer steps instead of diverging from them.
    """
    start_value = op_norm(objective.eval(start))
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


def _draws(delta: PolyMatrix, cfg: SampleConfig, proposal):
    """The sampler's one stream of draws, in (level, trial) order.

    Each task draws its proposal from its own ``task_rng(cfg.seed, level,
    trial)`` and is tested for membership once.  The stream yields
    ``(level, trial, x, ||delta(x)||, inside, rng)``, with ``rng`` in the
    state the proposal left, ready for an ascent from x.
    """
    proposal = proposal or default_proposal(delta.d)
    for level in cfg.levels:
        for trial in range(cfg.trials_per_level):
            rng = task_rng(cfg.seed, level, trial)
            x = proposal(level, trial, rng, cfg)
            if x.d != delta.d:
                raise ShapeError(
                    f"proposal returned a tuple in {x.d} letters, domain uses {delta.d}"
                )
            yield (level, trial, x, *_in_domain(delta, x, cfg), rng)


def _objective(p, delta: PolyMatrix) -> PolyMatrix:
    p = PolyMatrix.from_poly(p)
    if p.d != delta.d:
        raise ShapeError(f"objective uses {p.d} letters but the domain map uses {delta.d}")
    return p


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
    delta = PolyMatrix.from_poly(delta)
    objective = _objective(objective, delta)
    cfg = cfg or SampleConfig()
    # An explicitly supplied tuple is a trial tagged with trial = -1 - index,
    # climbed after every sampled trial.
    extras = (
        (x.n, -1 - idx, x, *_in_domain(delta, x, cfg), task_rng(cfg.seed, 0x0E, idx))
        for idx, x in enumerate(extra_candidates)
    )
    best = None  # the winner's (value, witness, level, trial, domain norm, converged)
    tallies: dict[int, list] = {}  # level -> [trials, admissible, best value, best trial]
    for level, trial, x, norm, inside, rng in chain(_draws(delta, cfg, proposal), extras):
        tally = tallies.setdefault(level, [0, 0, None, None])
        tally[0] += 1
        if not inside:
            continue
        tally[1] += 1
        witness, value, norm, converged = _ascend(objective, delta, x, norm, rng, cfg)
        if tally[2] is None or value > tally[2]:
            tally[2:] = value, trial
        if best is None or value > best[0]:
            best = (value, witness, level, trial, norm, converged)

    notes = []
    if best is None:
        notes.append(
            "no admissible sample found: the domain may be empty, or too thin "
            "for the proposal distribution at these levels"
        )
    notes.append("estimate is a sampled lower bound for the supremum")
    value, witness, level, trial, norm, converged = best or (None,) * 5 + (False,)
    return SpectralReport(
        kind="sup_norm",
        estimate=value,
        witness=witness,
        witness_level=level,
        witness_trial=trial,
        witness_domain_norm=norm,
        ascent_converged=converged,
        trials=sum(t[0] for t in tallies.values()),
        admissible=sum(t[1] for t in tallies.values()),
        per_level=tuple(LevelSummary(level, *tallies[level]) for level in sorted(tallies)),
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
    draws = _draws(delta, cfg or SampleConfig(), proposal)
    return [x for _, _, x, _, inside, _ in draws if inside]


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

    Every member climbs from the same single pass of draws, each ascent
    starting from the generator state the proposal left, so each member's
    supremum estimate equals its own ``sup_norm_estimate``.
    """
    delta = PolyMatrix.from_poly(delta)
    cfg = cfg or SampleConfig()
    if not 0 < K < math.inf:
        raise DomainError(f"the spectral constant K must be finite and positive, got {K}")
    t_norm, t_inside = _in_domain(delta, T, cfg)
    members = [_objective(member, delta) for member in family]

    draws = _draws(delta, cfg, proposal) if members else ()
    if t_inside:
        draws = chain(draws, [(T.n, -1, T, t_norm, True, task_rng(cfg.seed, 0x0E, 0))])
    best: list[tuple[float, bool] | None] = [None] * len(members)
    for _, _, x, norm, inside, rng in draws:
        if not inside:
            continue
        start = rng.bit_generator.state
        for idx, p in enumerate(members):
            rng.bit_generator.state = start
            _, value, _, converged = _ascend(p, delta, x, norm, rng, cfg)
            if best[idx] is None or value > best[idx][0]:
                best[idx] = (value, converged)

    violations = []
    notes = []
    for idx, (p, top) in enumerate(zip(members, best)):
        lhs = op_norm(p.eval(T))
        if top is None:
            continue
        rhs = K * top[0]
        if lhs > rhs + _VIOLATION_SLACK * max(1.0, rhs):
            violations.append(
                Violation(
                    index=idx,
                    description=_describe(p),
                    lhs=lhs,
                    rhs=rhs,
                    status="confirmed" if top[1] else "potential",
                )
            )
    if not t_inside:
        notes.append(
            f"the test tuple is outside the sampled domain (||delta(T)|| = {t_norm:.6g})"
        )
    skipped = best.count(None)
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
    small = op_norm(delta.eval(MatrixTuple([compress(c, n) for c in x.coords])))
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


def family_monomials(d: int, max_len: int) -> list[PolyMatrix]:
    """Every monomial of length <= max_len, constants and coordinates included."""
    if max_len < 0:
        raise ShapeError("max_len must be >= 0")
    words = chain.from_iterable(
        product(range(1, d + 1), repeat=length) for length in range(max_len + 1)
    )
    return [PolyMatrix([[FreePoly.monomial(w, d)]]) for w in words]
