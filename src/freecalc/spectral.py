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
import numbers
from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from .errors import CheckFailure, DomainError, ShapeError
from .freepoly import FreePoly, PolyMatrix, _check_gap_eps
from .matrix_core import (
    MatrixTuple,
    _check_finite,
    _complex_gaussian,
    _first_within,
    _integer,
    _op_norms,
    _rescaled_to_peak,
    _task_rngs,
    compress,
    op_norm,
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

# Ascent tuning: every climb starts with steps of STEP_SIZE, and after this
# many consecutive infeasible/non-improving steps its step size decays.
STEP_SIZE = 0.1
REJECTIONS_PER_DECAY = 10
STEP_DECAY = 0.7
# A rejected full step is retried at these fractions of it, in order.
SHRINKS = (1.0, 0.5, 0.25, 0.125)

_VIOLATION_SLACK = 1e-10

# Memory budget of one chunk of sampled trials: the trial count of a chunk is
# this many bytes over the bytes per trial of its widest array plus its
# generator, which holds about GENERATOR_BYTES (0.95 KiB under tracemalloc).
CHUNK_BYTES = 4 << 20
GENERATOR_BYTES = 1 << 10


@dataclass(frozen=True)
class SampleConfig:
    """Knobs for randomized domain sampling and ascent.

    The levels, trial and step counts and seed take any integer but a bool
    and are stored as Python ints (the levels as a tuple); the margin takes
    any real number and is stored as a float.
    """

    levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    trials_per_level: int = 200
    ascent_steps: int = 50
    margin: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        try:
            levels = tuple(self.levels)
        except TypeError:
            raise ShapeError(f"levels must be a sequence of integers, got {self.levels!r}") from None
        if not levels:
            raise ShapeError("need at least one sampling level")
        levels = tuple(_integer(n, "a sampling level", ShapeError) for n in levels)
        for n in levels:
            if not 1 <= n <= MAX_LEVEL:
                raise ShapeError(f"sampling level {n} outside 1..{MAX_LEVEL}")
        trials = _integer(self.trials_per_level, "trials_per_level", ShapeError)
        if trials < 0:
            raise ShapeError("trials_per_level must be >= 0")
        steps = _integer(self.ascent_steps, "ascent_steps", ShapeError)
        if steps < 0:
            raise ShapeError("ascent_steps must be >= 0")
        if not isinstance(self.margin, numbers.Real):
            raise DomainError(f"margin must be a real number, got {self.margin!r}")
        if not 0 < self.margin < 1:
            raise DomainError("margin must lie in (0, 1)")
        seed = _integer(self.seed, "seed", DomainError)
        if seed < 0:
            raise DomainError("seed must be >= 0")
        # plain Python values, so a config runs and encodes whatever types built it
        for name, value in [("levels", levels), ("trials_per_level", trials),
                            ("ascent_steps", steps), ("margin", float(self.margin)),
                            ("seed", seed)]:
            object.__setattr__(self, name, value)


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
    # always "potential": lhs beats K times a sampled lower bound of the
    # supremum, which proves nothing.  "confirmed" waits for a certified
    # upper bound of the supremum, which nothing computes yet.
    status: str


@dataclass(frozen=True)
class SpectralReport:
    kind: str
    estimate: float | None
    witness: MatrixTuple | None
    witness_level: int | None
    witness_trial: int | None
    witness_domain_norm: float | None
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
    """Gaussian tuples, cycling through DEFAULT_NORM_TARGETS.

    Each trial draws its ``d`` coordinates from its own generator; the
    stack is then rescaled at once so that every point's largest coordinate
    norm equals its trial's target, ``DEFAULT_NORM_TARGETS[trial % len]``.
    """

    def propose(level, trials, rngs, cfg: SampleConfig) -> np.ndarray:
        normals = np.empty((len(rngs), d, 2, level, level))
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=normals[k])
        targets = np.array([DEFAULT_NORM_TARGETS[t % len(DEFAULT_NORM_TARGETS)]
                            for t in trials])
        return _rescaled_to_peak(_complex_gaussian(normals), targets)

    return propose


def gap_domain_proposal(eps: float):
    """Structured proposals for the thin domain where x.y is nearly the identity.

    Gaussian pairs essentially never satisfy ||x y - 1|| < eps, so build the
    candidates on the constraint manifold: pick x with controlled singular
    values, then set y = (1 + e) x^{-1} with a small perturbation e.  Every
    candidate is still pushed through the honest membership check afterwards;
    this only shapes where candidates land, never what counts as admissible.

    Each trial takes its draws from its own generator: two Gaussian matrices
    for the unitary factors, the singular values, the Gaussian e, and then,
    only if e is nonzero, the fraction of the radius e is scaled to.  The QR
    factorizations, the inverses, the rescaling of e and the products run
    once on the stack of all trials.  ``eps`` must lie in (0, 0.2), as for
    ``gap_delta``.
    """

    _check_gap_eps(eps)

    def propose(level, trials, rngs, cfg: SampleConfig) -> np.ndarray:
        count = len(rngs)
        cap = (1.0 + eps) * (1.0 - cfg.margin)
        normals = np.empty((count, 3, 2, level, level))  # the two factors' draws, then e's
        values = np.empty((count, level))
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=normals[k, :2])
            rng.random(out=values[k])
            rng.standard_normal(out=normals[k, 2])
        values = 0.88 + (cap - 0.88) * values  # uniform(0.88, cap) bit for bit
        radius = np.zeros(count)
        for k in np.flatnonzero(normals[:, 2].any(axis=(1, 2, 3))):
            radius[k] = rngs[k].random()  # uniform(0, 1) bit for bit, without its overhead
        sing = np.zeros((count, level, level), dtype=np.complex128)
        sing[:, np.arange(level), np.arange(level)] = values
        gauss = _complex_gaussian(normals)
        u, _ = np.linalg.qr(gauss[:, 0])
        v, _ = np.linalg.qr(gauss[:, 1])
        x = u @ sing @ v
        e = gauss[:, 2]
        moved = radius > 0
        scale = np.zeros(count)
        scale[moved] = radius[moved] * eps * (1.0 - cfg.margin) / _op_norms(e[moved])
        y = (np.eye(level, dtype=np.complex128) + scale[:, None, None] * e) @ np.linalg.inv(x)
        return np.stack([x, y], axis=1)

    return propose


def _ascend(
    objectives: list[PolyMatrix],
    delta: PolyMatrix,
    starts: np.ndarray,
    start_norms: np.ndarray,
    start_values: list[np.ndarray],
    rngs: list[np.random.Generator],
    cfg: SampleConfig,
) -> list[list[tuple[np.ndarray, float, float]]]:
    """Projected random hill-climbs inside the sublevel set, one for every
    (start, objective) pair, all stacked.

    ``starts`` is an ``(S, d, n, n)`` stack of admissible points with
    ``||delta(starts[s])|| = start_norms[s]`` and ``||objectives[i](starts[s])||
    = start_values[i][s]``.  Returns, per start, one (witness, value,
    ||delta(witness)||) per objective.

    Every climb takes all ``cfg.ascent_steps`` steps.  Each step, every start
    draws one Gaussian perturbation tuple from its own ``rngs[s]`` into one
    stack, converted to complex at once, and each of its climbs takes it.
    A climb tries its full step, then 1/2, 1/4 and 1/8 of it toward its own
    current point, before counting a rejection.  All four candidates of
    every climb go in one ``(climbs, 4, d, n, n)`` stack, with one
    ``delta.eval`` per step, and ``_first_within`` lands each climb at its
    first candidate inside: it refuses without an SVD a candidate whose
    value has a column longer than 1 - margin by a relative 1e-10 (a column
    bounds the norm from below), and decomposes, shrink by shrink, only
    the candidates a climb-by-climb search would read.  So every verdict and
    kept domain norm is that candidate's SVD's, and the screen changes no
    climb.  Every candidate's delta value is checked finite, so a non-finite
    one raises ``DomainError`` even past its climb's landing shrink.  Then
    each objective evaluates the candidates of its climbs that landed inside
    with one stacked eval and SVD.  Step size and rejections are per climb.
    A start's stream is consumed at exactly one draw per step regardless of
    acceptance, so each climb is bit for bit the climb its objective takes
    alone from its start, whatever is stacked with it, and runs with more
    steps extend runs with fewer steps instead of diverging from them.
    """
    count, width = len(starts), len(objectives)
    owner = np.repeat(np.arange(count), width)  # climb c: objective c % width from start c // width
    cur, cur_val, cur_norm = starts[owner], np.asarray(start_values).T.flatten(), start_norms[owner]
    shrinks = np.array(SHRINKS)
    step = np.full(cur_val.shape, STEP_SIZE)
    rejections = np.zeros(cur_val.shape, dtype=int)
    normals = np.empty((count, starts.shape[1], 2, *starts.shape[2:]))
    for _ in range(cfg.ascent_steps):
        for s, rng in enumerate(rngs):
            rng.standard_normal(out=normals[s])
        pert = _complex_gaussian(normals)[owner]
        scale = step[:, None] * shrinks
        moved = cur[:, None] + scale[..., None, None, None] * pert[:, None]
        first, cand_norm = _first_within(delta.eval(moved), 1.0 - cfg.margin)
        cand = moved[np.arange(first.size), first]  # read only where first >= 0
        accepted = np.zeros(cur_val.shape, dtype=bool)
        for i, objective in enumerate(objectives):
            mine = i + width * np.flatnonzero(first[i::width] >= 0)
            if mine.size:
                values = _op_norms(objective.eval(cand[mine]))
                better = values > cur_val[mine]
                up = mine[better]
                cur[up], cur_val[up], cur_norm[up] = cand[up], values[better], cand_norm[up]
                accepted[up] = True
        rejections[accepted] = 0
        rejections[~accepted] += 1
        decays = rejections >= REJECTIONS_PER_DECAY
        rejections[decays] = 0
        step[decays] *= STEP_DECAY
    ascents = [(cur[c], float(cur_val[c]), float(cur_norm[c])) for c in range(cur_val.size)]
    return [ascents[s * width:(s + 1) * width] for s in range(count)]


def _width(p: PolyMatrix) -> int:
    """The n x n matrices per point in p's widest array: the ``(d, n, n)``
    point stack or the ``(I n, J n)`` value."""
    return max(p.d, p.I * p.J)


def _per_chunk(width: int, level: int) -> int:
    """CHUNK_BYTES over ``width`` n x n complex matrices plus GENERATOR_BYTES,
    and never fewer than one."""
    return max(1, CHUNK_BYTES // (width * level * level * 16 + GENERATOR_BYTES))


def _chunk_trials(maps: list[PolyMatrix], level: int) -> int:
    """How many trials of one level go in a chunk: ``_per_chunk`` of the
    widest ``_width`` of the maps, counting each trial's generator."""
    return _per_chunk(max(map(_width, maps)), level)


def _measured(delta: PolyMatrix, level: int, trials, points: np.ndarray, rngs, cfg: SampleConfig):
    """A chunk with its membership test: one stacked ``delta.eval`` and SVD."""
    norms = _op_norms(delta.eval(points))
    return level, trials, points, norms, norms <= 1.0 - cfg.margin, rngs


def _draws(delta: PolyMatrix, cfg: SampleConfig, proposal):
    """The sampler's one stream of draws, in chunks of (level, trial) order.

    A proposal is a callable ``propose(level, trials, rngs, cfg)`` returning
    the ``(len(trials), d, level, level)`` stack of candidate points, one per
    trial.  Trial ``t`` draws only from ``rngs[k]``, whose stream is
    ``task_rng(cfg.seed, level, t)``'s, so a point never depends on how the
    trials are chunked; a chunk's generators come from one ``_task_rngs``
    pass.  The stream yields ``(level, trials, points, norms, inside, rngs)`` per
    chunk of at most ``_chunk_trials`` trials: ``norms[k] =
    ||delta(points[k])||``, ``inside[k]`` whether that is <= 1 - margin, and
    ``rngs[k]`` in the state the proposal left, ready for an ascent.
    """
    proposal = proposal or default_proposal(delta.d)
    for level in cfg.levels:
        size = _chunk_trials([delta], level)
        for first in range(0, cfg.trials_per_level, size):
            trials = range(first, min(first + size, cfg.trials_per_level))
            rngs = list(_task_rngs(cfg.seed, (level,), trials))
            points = np.asarray(proposal(level, trials, rngs, cfg), dtype=np.complex128)
            want = (len(trials), delta.d, level, level)
            if points.shape != want:
                raise ShapeError(
                    f"proposal returned an array of shape {points.shape}; {len(trials)} "
                    f"trials at level {level} in {delta.d} letters need {want}"
                )
            _check_finite(points, "proposal")
            yield _measured(delta, level, trials, points, rngs, cfg)


def _objective(p, delta: PolyMatrix) -> PolyMatrix:
    p = PolyMatrix.from_poly(p)
    if p.d != delta.d:
        raise ShapeError(f"objective uses {p.d} letters but the domain map uses {delta.d}")
    return p


def _candidate_chunks(delta: PolyMatrix, candidates, cfg: SampleConfig) -> list[tuple]:
    """Each explicitly supplied tuple as a measured chunk of one trial, tagged
    ``trial = -1 - index``, whose ascent draws from ``task_rng(cfg.seed, 0x0E,
    index)``."""
    return [_measured(delta, x.n, (-1 - idx,), x.coords[None],
                      (task_rng(cfg.seed, 0x0E, idx),), cfg)
            for idx, x in enumerate(candidates)]


def _climbs(members: list[PolyMatrix], delta: PolyMatrix, cfg: SampleConfig, proposal,
            extras: list[tuple]):
    """Every member's climb from every admissible draw, chunk by chunk.

    Reads the chunks of ``_draws``, then the ``_candidate_chunks`` in
    ``extras``.  Yields ``(level, trials, climbs)`` per chunk, where
    ``climbs`` yields ``(trial, member index, ascent)`` for every
    (admissible start, member) pair, each member's climbs in trial order.
    It climbs one group at a time as it is read, so a large family's
    witnesses never pile up beyond a group's.  With no members it draws
    nothing.
    """
    if not members:
        return
    for level, trials, points, norms, inside, rngs in chain(_draws(delta, cfg, proposal), extras):
        admitted = np.flatnonzero(inside)
        yield level, trials, _chunk_climbs(
            members, delta, [trials[k] for k in admitted], points[admitted], norms[admitted],
            [rngs[k] for k in admitted], cfg)


def _chunk_climbs(members: list[PolyMatrix], delta: PolyMatrix, trials: list[int],
                  starts: np.ndarray, norms: np.ndarray, rngs: list, cfg: SampleConfig):
    """The climbs from one chunk's admissible starts, one ``_ascend`` per group.

    A group holds at most ``_per_chunk`` climbs of the widest of a member
    and ``len(SHRINKS)`` copies of delta (a step stacks that many candidate
    points and delta values per climb), so no stacked ascent array and no
    start-value or step evaluation outgrows the chunk budget once one
    climb's candidates fit in it: whole starts with all
    their members while they fit, else one start with a slice of its
    members.  Each later slice replays its start's stream from the state the
    proposal left, so every climb is the one it takes ungrouped (the
    generator is left where its last slice left it; nothing draws from it
    afterwards).  A group's start values are one stacked eval and SVD per
    member.
    """
    size = _per_chunk(max(len(SHRINKS) * _width(delta), *map(_width, members)), starts.shape[-1])
    count = len(members)
    width = min(count, size)  # members per group
    per = max(1, size // count)  # starts per group
    for first in range(0, len(starts), per):
        block = slice(first, first + per)
        origin = [rng.bit_generator.state for rng in rngs[block]] if width < count else []
        for lo in range(0, count, width):
            group = members[lo:lo + width]
            if lo:
                for rng, state in zip(rngs[block], origin):
                    rng.bit_generator.state = state
            values = [_op_norms(p.eval(starts[block])) for p in group]
            ascents = _ascend(group, delta, starts[block], norms[block], values, rngs[block], cfg)
            for trial, climbs in zip(trials[block], ascents):
                for idx, ascent in enumerate(climbs, lo):
                    yield trial, idx, ascent


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
    keeps those with ||delta(x)|| <= 1 - margin, and hill-climbs each: the
    admissible samples of a chunk climb together in one stacked ascent.
    Every trial draws from its own task-keyed generator and the merge keeps
    the first strict improvement, so the same config and seed reproduce the
    same report byte for byte.
    """
    delta = PolyMatrix.from_poly(delta)
    objective = _objective(objective, delta)
    cfg = cfg or SampleConfig()
    best = None  # the winner's (value, witness, level, trial, domain norm)
    tallies: dict[int, list] = {}  # level -> [trials, admissible, best value, best trial]
    extras = _candidate_chunks(delta, extra_candidates, cfg)
    for level, trials, climbs in _climbs([objective], delta, cfg, proposal, extras):
        tally = tallies.setdefault(level, [0, 0, None, None])
        tally[0] += len(trials)
        for trial, _, (witness, value, norm) in climbs:
            tally[1] += 1
            if tally[2] is None or value > tally[2]:
                tally[2:] = value, trial
            if best is None or value > best[0]:
                best = (value, witness, level, trial, norm)

    notes = []
    if best is None:
        notes.append(
            "no admissible sample found: the domain may be empty, or too thin "
            "for the proposal distribution at these levels"
        )
    notes.append("estimate is a sampled lower bound for the supremum")
    value, witness, level, trial, norm = best or (None,) * 5
    return SpectralReport(
        kind="sup_norm",
        estimate=value,
        witness=None if witness is None else MatrixTuple(witness),
        witness_level=level,
        witness_trial=trial,
        witness_domain_norm=norm,
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
    return [MatrixTuple(points[k]) for _, _, points, _, inside, _ in draws
            for k in np.flatnonzero(inside)]


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

    Each member's right-hand side is K * ||P(w)|| for a sampled witness w
    inside the domain, a lower bound of K * sup ||P||.  So a member that
    passes is proved to satisfy the inequality, up to the 1e-10 relative
    slack, while a violation beats only that lower bound and is reported as
    "potential".  If T itself lies in the domain it is fed in as a
    candidate, which makes the K = 1 inequality hold by construction.

    Every member climbs from the same single pass of draws: the climbs of
    all members from all admissible starts of a chunk go in one stacked
    ascent (in groups within the chunk budget), and the climbs from one
    start share each step's one perturbation.  So each member's supremum
    estimate equals its own ``sup_norm_estimate`` with T as an extra
    candidate when T lies in the domain.  T's domain norm is measured once,
    for both the membership test and the report.
    """
    delta = PolyMatrix.from_poly(delta)
    cfg = cfg or SampleConfig()
    if not 0 < K < math.inf:
        raise DomainError(f"the spectral constant K must be finite and positive, got {K}")
    members = [_objective(member, delta) for member in family]
    (t_chunk,) = _candidate_chunks(delta, (T,), cfg)
    _, _, _, (t_norm,), (t_inside,), _ = t_chunk
    t_norm = float(t_norm)

    best: list[float | None] = [None] * len(members)
    for _, _, climbs in _climbs(members, delta, cfg, proposal, [t_chunk]):
        for _, idx, (_, value, _) in climbs:
            if best[idx] is None or value > best[idx]:
                best[idx] = value

    violations = []
    notes = []
    for idx, (p, top) in enumerate(zip(members, best)):
        lhs = op_norm(p.eval(T))
        if top is None:
            continue
        rhs = K * top
        if lhs > rhs + _VIOLATION_SLACK * max(1.0, rhs):
            violations.append(
                Violation(
                    index=idx,
                    description=_describe(p),
                    lhs=lhs,
                    rhs=rhs,
                    status="potential",
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
        "supremum estimates are sampled lower bounds: a pass is proved up to the 1e-10 "
        "relative slack, a violation is potential"
    )
    return SpectralReport(
        kind="k_spectral",
        estimate=None,
        witness=None,
        witness_level=None,
        witness_trial=None,
        witness_domain_norm=t_norm,
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
