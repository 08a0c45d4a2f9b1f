"""Evaluating transfer-function models on operator tuples, with certificates.

A colligation F together with a defining matrix ``delta`` and a scale ``s``
induces a value at a matrix tuple T: plug ``delta(T)/s`` into F.  This module
computes that value along two independent routes (the closed linear-fractional
form and the homogeneous series), bounds the truncation error when the model
data supports a bound, and wraps everything in a report whose certificates can
be re-checked from the numbers alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, SeriesCapError, ShapeError
from .freepoly import (
    FreePoly,
    PolyMatrix,
    compose_with_entries,
    verify_separating_witnesses,
)
from .matrix_core import MatrixTuple, op_norm
from .realization import (
    Colligation,
    _terms_for_tolerance,
    eval_colligation,
    homog_series,
    poly_to_colligation,
    xfirst_to_blocks,
)
from .spectral import SampleConfig, sample_admissible

_AGREE_SLACK = 1e-9
_CONTRACTIVE_SLACK = 1e-8
_GEOMETRIC_SLACK = 1e-6
_TERM_BOUND_SLACK = 1e-8
_SCREEN_MARGIN = 1e-10

_PATH_GRID = 101
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CalcParams:
    """Evaluation knobs: scale, tolerance, and a hard series cap.

    ``s = None`` means "pick for me": halfway between ||delta(T)|| and 1 when
    that norm is below 1, else 1.0 (and the model had better tolerate it).
    """

    s: float | None = None
    tol: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self):
        if self.s is not None and not 0.0 < self.s <= 1.0:
            raise DomainError("scale s must lie in (0, 1]")
        if not 0 < self.tol < math.inf:
            raise DomainError("tol must be positive and finite")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


@dataclass(frozen=True)
class Certificate:
    """A single named inequality check: lhs <= rhs, with its verdict computed."""

    name: str
    passed: bool = field(init=False)
    lhs: float
    rhs: float
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.lhs <= self.rhs))


@dataclass(frozen=True)
class CalcReport:
    """Outcome of one evaluation: the value plus everything needed to audit it."""

    value: np.ndarray
    t: float
    s: float
    terms_used: int
    tail_bound: float | None
    closed_form_agreement: float | None
    certificates: tuple[Certificate, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.certificates)


def tail_bound(t: float, n_terms: int) -> float:
    """Series tail after summing degrees 0..n_terms: t^(n_terms+1) / (1 - t).

    Valid whenever every degree-k term has norm at most t^k, which holds for
    isometric model data at points of norm t < 1.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"geometric tail needs 0 <= t < 1, got {t}")
    if n_terms < 0:
        raise DomainError("n_terms must be nonnegative")
    return t ** (n_terms + 1) / (1.0 - t)


def default_scale(t0: float) -> float:
    """The automatic scale: midpoint of [t0, 1] when t0 < 1, else 1.0."""
    return (t0 + 1.0) / 2.0 if t0 < 1.0 else 1.0


def _scaled_point(
    delta: PolyMatrix, T: MatrixTuple, params: CalcParams
) -> tuple[np.ndarray, float, float]:
    """The point y = delta(T)/s, its norm t = ||delta(T)||/s, and the scale s
    (``params.s``, or default_scale(||delta(T)||) when that is None)."""
    point = delta.eval(T)
    t0 = op_norm(point)
    s = params.s if params.s is not None else default_scale(t0)
    return point / s, t0 / s, s


def _term_excess(worst: float, term: np.ndarray, tk: float) -> float:
    """max(worst, ||term|| - tk) for worst >= 0, with the SVD only when needed.

    ||term|| <= ||term||_F, so a term whose Frobenius norm clears tk cannot
    raise worst and its exact norm is skipped.  The screen asks for a
    relative margin below tk, so that a term whose norm lies within rounding
    of tk still gets its exact norm: the result is the float that the SVD
    of every term would give.
    """
    if math.sqrt(np.vdot(term, term).real) <= tk * (1.0 - _SCREEN_MARGIN):
        return worst
    return max(worst, op_norm(term) - tk)


def _check_shapes(F: Colligation, delta: PolyMatrix, T: MatrixTuple) -> None:
    if delta.d != T.d:
        raise ShapeError(f"delta uses {delta.d} letters but the tuple has {T.d}")
    if (F.I, F.J) != (delta.I, delta.J):
        raise ShapeError(
            f"colligation consumes a {F.I}x{F.J} block grid, "
            f"delta produces {delta.I}x{delta.J}"
        )


def sharp(
    F: Colligation,
    delta: PolyMatrix,
    T: MatrixTuple,
    params: CalcParams | None = None,
) -> CalcReport:
    """Evaluate the model at ``delta(T)/s`` by series and closed form.

    The series route sums homogeneous terms with a stopping rule that depends
    on what the model data certifies:

    * finite nilpotency of the state loop: the series is a finite sum, summed
      exactly (tail bound 0);
    * isometric data at t = ||delta(T)||/s < 1: geometric decay gives a term
      count with a certified tail at most ``tol``;
    * anything else with t < 1 is stopped heuristically once increments stay
      tiny, and the tail bound is honestly ``None``.

    Isometric data at t >= 1 is refused (the series has no reason to converge
    and the closed form no longer represents it).  Hitting ``max_terms`` first
    raises SeriesCapError carrying the partial report.
    """
    params = params or CalcParams()
    _check_shapes(F, delta, T)
    y, t, s = _scaled_point(delta, T, params)

    nilp = F.nilpotent_index
    notes: list[str] = []
    if nilp is None and t >= 1.0:
        if F.isometric_certified:
            raise DomainError(
                f"||delta(T)||/s = {t:.6g} >= 1: outside the evaluation domain; "
                "increase s or move T inward"
            )
        notes.append(
            "point norm >= 1 with non-nilpotent, non-isometric data: "
            "series summed on a heuristic stopping rule"
        )

    # --- series route -------------------------------------------------------
    certified_tail: float | None
    if nilp is not None:
        stop_at = nilp  # P_k = 0 for every k > nilp
        certified_tail = 0.0
        mode = "nilpotent"
    elif F.isometric_certified:
        stop_at = _terms_for_tolerance(t, params.tol)
        certified_tail = tail_bound(t, stop_at)
        mode = "geometric"
    else:
        stop_at = None
        certified_tail = None
        mode = "heuristic"
        if t < 1.0:
            notes.append(
                "model data is not certified isometric: no geometric tail bound, "
                "series stopped heuristically"
            )

    # Isometric data at t < 1 bounds every degree-k term by t^k; the
    # homogeneous_term_bound certificate records the worst excess over that.
    bound_terms = F.isometric_certified and t < 1.0
    worst_excess = 0.0
    series_value = None
    terms_used = 0  # top homogeneous degree included in the partial sum
    quiet_streak = 0
    # A divergent series overflows to inf/nan; the finiteness check reports
    # that as a DomainError, so numpy's overflow warnings are silenced here.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, term in homog_series(F, y):
            if series_value is None:
                series_value = term.copy()
            else:
                series_value += term
            if not np.isfinite(series_value).all():
                raise DomainError(
                    f"series diverged at degree {k}: the partial sum is no longer finite"
                )
            if bound_terms and k:
                worst_excess = _term_excess(worst_excess, term, t**k)
            terms_used = k
            if stop_at is not None:
                if k >= stop_at:
                    break
            else:
                term_norm = op_norm(term)
                scale_ref = max(1.0, float(op_norm(series_value)))
                if term_norm <= params.tol * scale_ref:
                    quiet_streak += 1
                    if quiet_streak >= 3:
                        break
                else:
                    quiet_streak = 0
            if k + 1 >= params.max_terms:
                partial = CalcReport(
                    value=series_value,
                    t=t,
                    s=s,
                    terms_used=terms_used,
                    tail_bound=None,
                    closed_form_agreement=None,
                    certificates=(),
                    notes=tuple(
                        notes
                        + [f"series cap {params.max_terms} reached before the stopping rule"]
                    ),
                )
                raise SeriesCapError(
                    f"series did not settle within {params.max_terms} terms",
                    report=partial,
                )
    assert series_value is not None

    # --- closed form route ---------------------------------------------------
    closed_value = None
    agreement = None
    try:
        closed_value = eval_colligation(F, y)
        agreement = float(op_norm(series_value - closed_value))
    except DomainError as exc:
        notes.append(f"closed form unavailable at this point: {exc}")

    value = closed_value if closed_value is not None else series_value

    # --- certificates ----------------------------------------------------------
    certs: list[Certificate] = []
    if agreement is not None:
        certs.append(
            Certificate(
                name="two_path_agreement",
                lhs=agreement,
                rhs=params.tol + _AGREE_SLACK,
                detail="series sum vs closed linear-fractional value",
            )
        )
    if certified_tail is not None:
        certs.append(
            Certificate(
                name="truncation_tail",
                lhs=certified_tail,
                rhs=params.tol,
                detail=f"stopping rule: {mode}",
            )
        )
    if F.isometric_certified and t < 1.0:
        value_norm = float(op_norm(value))
        certs.append(
            Certificate(
                name="contractive",
                lhs=value_norm,
                rhs=1.0 + _CONTRACTIVE_SLACK,
                detail="isometric data keeps values in the unit ball",
            )
        )
        series_norm = float(op_norm(series_value))
        geo = 1.0 / (1.0 - t) + _GEOMETRIC_SLACK
        certs.append(
            Certificate(
                name="series_norm_geometric",
                lhs=series_norm,
                rhs=geo,
                detail="partial sums stay under the geometric envelope",
            )
        )
        certs.append(
            Certificate(
                name="homogeneous_term_bound",
                lhs=worst_excess,
                rhs=_TERM_BOUND_SLACK,
                detail="every degree-k term has norm at most t^k",
            )
        )

    return CalcReport(
        value=value,
        t=t,
        s=s,
        terms_used=terms_used,
        tail_bound=certified_tail,
        closed_form_agreement=agreement,
        certificates=tuple(certs),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class WelldefReport:
    """Agreement of two models on sampled domain points and at a fixed tuple."""

    samples: int
    max_sample_gap: float
    sharp_gap: float
    agree_on_samples: bool
    agree_at_sharp: bool
    violation: bool
    s: float
    threshold: float
    notes: tuple[str, ...] = ()


def welldef_check(
    F1: Colligation,
    F2: Colligation,
    delta: PolyMatrix,
    T: MatrixTuple,
    params: CalcParams | None = None,
    cfg: SampleConfig | None = None,
    *,
    proposal=None,
) -> WelldefReport:
    """Do two models that agree on the domain also agree at T?

    Samples the sublevel set of ``delta/s``, compares F1 and F2 there, then
    compares their values at T.  ``violation=True`` flags the bad case:
    indistinguishable on every sampled domain point yet split at T, which
    would mean the value at T is not a function of the restriction at all.
    Raises DomainError when no admissible sample turns up, since then the
    domain comparison is vacuous.
    """
    params = params or CalcParams()
    _check_shapes(F1, delta, T)
    _check_shapes(F2, delta, T)
    if (F1.k1, F1.k2) != (F2.k1, F2.k2):
        raise ShapeError(
            f"models have outputs {F1.k2}x{F1.k1} and {F2.k2}x{F2.k1}; "
            "agreement needs matching shapes"
        )
    s = _scaled_point(delta, T, params)[2]
    scaled = delta.scale(1.0 / s)
    cfg = cfg or SampleConfig(levels=(1, 2, 3), trials_per_level=80)
    points = sample_admissible(scaled, cfg, proposal=proposal)
    if not points:
        raise DomainError(
            "empty sample set: no admissible tuples found for the scaled domain, "
            "so domain agreement cannot be tested"
        )
    threshold = params.tol + _AGREE_SLACK
    max_gap = 0.0
    for x in points:
        yx = scaled.eval(x)
        gap = float(op_norm(eval_colligation(F1, yx) - eval_colligation(F2, yx)))
        max_gap = max(max_gap, gap)
    pinned = replace(params, s=s)
    rep1 = sharp(F1, delta, T, pinned)
    rep2 = sharp(F2, delta, T, pinned)
    sharp_gap = float(op_norm(rep1.value - rep2.value))
    agree_samples = max_gap <= threshold
    agree_sharp = sharp_gap <= threshold
    notes = []
    if agree_samples and not agree_sharp:
        notes.append(
            "models agree on every sampled domain point but disagree at T: "
            "evaluation at T is not determined by the sampled restriction"
        )
    return WelldefReport(
        samples=len(points),
        max_sample_gap=max_gap,
        sharp_gap=sharp_gap,
        agree_on_samples=agree_samples,
        agree_at_sharp=agree_sharp,
        violation=agree_samples and not agree_sharp,
        s=s,
        threshold=threshold,
        notes=tuple(notes),
    )


def _refine_peak(f, lo: float, hi: float, iters: int = 40) -> float:
    """Golden-section maximization of f on [lo, hi]; returns the best value."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return max(fc, fd, f((a + b) / 2.0))


def path_norm_sup(delta: PolyMatrix, T: MatrixTuple, s: float = 1.0) -> float:
    """sup over r in [0,1] of ||delta(rT)|| / s, by grid plus local refinement."""
    if s <= 0:
        raise DomainError("scale s must be positive")

    def f(r: float) -> float:
        return op_norm(delta.eval(float(r) * T)) / s

    grid = np.linspace(0.0, 1.0, _PATH_GRID)
    vals = [f(r) for r in grid]
    best = max(vals)
    arg = int(np.argmax(vals))
    h = 1.0 / (_PATH_GRID - 1)
    lo = max(0.0, grid[arg] - h)
    hi = min(1.0, grid[arg] + h)
    return max(best, _refine_peak(f, lo, hi))


@dataclass(frozen=True)
class PolyConsistencyReport:
    """Checks that a model genuinely represents a polynomial through delta."""

    vanishes_at_zero: bool
    path_sup: float
    path_inside: bool
    composition_samples: int
    composition_gap: float | None
    sharp_gap: float
    s: float
    consistent: bool
    notes: tuple[str, ...] = ()


def poly_consistency(
    P: FreePoly | PolyMatrix,
    F: Colligation,
    delta: PolyMatrix,
    T: MatrixTuple,
    params: CalcParams | None = None,
    cfg: SampleConfig | None = None,
    *,
    proposal=None,
) -> PolyConsistencyReport:
    """Audit the claim F(delta(x)/s) = P(x), both on samples and at T.

    Also evaluates the hypotheses that make the value at T trustworthy even
    when T lies outside the sublevel set itself: the entries of delta vanish
    at 0 and the segment r -> delta(rT)/s stays strictly inside the unit ball.
    """
    params = params or CalcParams()
    P = PolyMatrix.from_poly(P)
    _check_shapes(F, delta, T)
    if (P.I, P.J) != (F.k2, F.k1):
        raise ShapeError(
            f"polynomial is {P.I}x{P.J} but the model outputs {F.k2}x{F.k1}"
        )
    if P.d != delta.d:
        raise ShapeError(f"polynomial uses {P.d} letters, delta uses {delta.d}")
    s = _scaled_point(delta, T, params)[2]
    threshold = params.tol + _AGREE_SLACK

    vanishes = delta.vanishes_at_zero()
    psup = path_norm_sup(delta, T, s)
    inside = psup < 1.0

    scaled = delta.scale(1.0 / s)
    cfg = cfg or SampleConfig(levels=(1, 2), trials_per_level=60)
    points = sample_admissible(scaled, cfg, proposal=proposal)
    comp_gap: float | None = None
    for x in points:
        val = eval_colligation(F, scaled.eval(x))
        want = P.eval(x)
        got = xfirst_to_blocks(val, x.n, F.k2, F.k1)
        gap = float(op_norm(got - want))
        comp_gap = gap if comp_gap is None else max(comp_gap, gap)

    rep = sharp(F, delta, T, replace(params, s=s))
    sharp_gap = float(op_norm(xfirst_to_blocks(rep.value, T.n, F.k2, F.k1) - P.eval(T)))

    notes = []
    if not vanishes:
        notes.append("delta does not vanish at 0: the path criterion does not apply")
    if not inside:
        notes.append(
            f"segment exits the unit ball (sup {psup:.6g} >= 1): "
            "the value at T is not covered by the path criterion"
        )
    if not points:
        notes.append("no admissible samples: composition agreement untested")
    consistent = (
        vanishes
        and inside
        and (comp_gap is None or comp_gap <= threshold)
        and sharp_gap <= threshold
    )
    return PolyConsistencyReport(
        vanishes_at_zero=vanishes,
        path_sup=psup,
        path_inside=inside,
        composition_samples=len(points),
        composition_gap=comp_gap,
        sharp_gap=sharp_gap,
        s=s,
        consistent=consistent,
        notes=tuple(notes),
    )


def derive_witnesses(delta: PolyMatrix) -> list[FreePoly]:
    """Read coordinate-recovery witnesses off delta when entries are scaled letters.

    Looks for an entry of the form c * x^r for every coordinate r; the witness
    is then the matching slot letter divided by c.  Raises DomainError when
    some coordinate never appears alone, in which case the caller must supply
    witnesses explicitly.
    """
    found: dict[int, FreePoly] = {}
    d_slots = delta.I * delta.J
    for i in range(delta.I):
        for j in range(delta.J):
            p = delta.entry(i, j)
            terms = p.sorted_terms()
            if len(terms) != 1:
                continue
            word, coeff = terms[0]
            if len(word) != 1 or coeff == 0:
                continue
            r = word[0]
            if r in found:
                continue
            slot = i * delta.J + j + 1
            found[r] = FreePoly.letter(slot, d_slots) * (1.0 / coeff)
    missing = [r for r in range(1, delta.d + 1) if r not in found]
    if missing:
        raise DomainError(
            "cannot derive coordinate witnesses: no entry of delta is a plain "
            f"scaled letter for coordinate(s) {missing}; pass witnesses explicitly"
        )
    return [found[r] for r in range(1, delta.d + 1)]


def compile_polynomial(
    P: FreePoly | PolyMatrix,
    delta: PolyMatrix,
    s: float = 1.0,
    witnesses=None,
) -> Colligation:
    """Build a model with F(delta(T)/s) = P(T) exactly, for every tuple T.

    Requires witnesses h_r with h_r(entries of delta) = x^r; these are derived
    automatically when each coordinate shows up as a scaled letter entry.  The
    model compiles P with every letter replaced by the witness evaluated at
    s times the slot variables, so the 1/s scaling of the input cancels.  The
    state loop is nilpotent, hence evaluation is a finite exact sum with no
    convergence constraint.
    """
    if not 0.0 < s <= 1.0:
        raise DomainError("scale s must lie in (0, 1]")
    P = PolyMatrix.from_poly(P)
    if P.d != delta.d:
        raise ShapeError(f"polynomial uses {P.d} letters, delta uses {delta.d}")
    if witnesses is None:
        witnesses = derive_witnesses(delta)
    ok, details = verify_separating_witnesses(delta, witnesses)
    if not ok:
        raise DomainError(
            "witnesses do not recover the coordinates: " + "; ".join(details)
        )
    images = [h.scale_letters(s) for h in witnesses]
    compiled = P.map(lambda p: p.substitute(images))
    return poly_to_colligation(compiled, delta.I, delta.J)
