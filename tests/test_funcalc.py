import math
from itertools import islice

import numpy as np
import pytest

from freecalc import funcalc, realization
from freecalc.errors import DomainError, SeriesCapError, ShapeError
from freecalc.freepoly import (
    FreePoly,
    PolyMatrix,
    diag_delta,
    e_lambda,
    gap_delta,
    lens_delta,
    row_delta,
)
from freecalc.funcalc import (
    CalcParams,
    CalcReport,
    Certificate,
    compile_polynomial,
    default_scale,
    path_norm_sup,
    poly_consistency,
    sharp,
    tail_bound,
)
from freecalc.matrix_core import MatrixTuple, op_norm, random_matrix, random_tuple, task_rng
from freecalc.realization import (
    Colligation,
    eval_colligation,
    homog_series,
    poly_to_colligation,
    random_isometric,
    xfirst_to_blocks,
)
from freecalc.spectral import SampleConfig


def _small_cfg(seed=0):
    return SampleConfig(levels=(1, 2), trials_per_level=40, ascent_steps=0, seed=seed)


def test_tail_bound_frozen_values():
    # 0.5^11 / 0.5 collapses to exactly 2^-10
    assert tail_bound(0.5, 10) == 0.0009765625
    assert tail_bound(0.0, 5) == 0.0
    with pytest.raises(DomainError):
        tail_bound(1.0, 5)
    with pytest.raises(DomainError):
        tail_bound(0.5, -1)


def test_default_scale():
    assert default_scale(0.5) == 0.75
    assert default_scale(0.0) == 0.5
    assert default_scale(1.0) == 1.0
    assert default_scale(3.7) == 1.0


def test_params_validation():
    with pytest.raises(DomainError):
        CalcParams(s=0.0)
    with pytest.raises(DomainError):
        CalcParams(s=1.5)
    with pytest.raises(DomainError):
        CalcParams(tol=0.0)
    with pytest.raises(DomainError):
        CalcParams(tol=math.inf)
    with pytest.raises(DomainError):
        CalcParams(max_terms=0)
    CalcParams(s=1.0)  # the boundary scale is allowed


def test_certificate_verdict_is_computed_from_its_numbers():
    assert Certificate("c", lhs=1.0, rhs=1.0).passed
    assert not Certificate("c", lhs=1.0 + 1e-15, rhs=1.0).passed
    assert not Certificate("c", lhs=math.nan, rhs=1.0).passed
    with pytest.raises(TypeError):
        Certificate("c", passed=True, lhs=2.0, rhs=1.0)


def test_sharp_identity_is_exact():
    F = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    delta = row_delta(1)
    T = random_tuple(4, 1, 0.6, 1)
    rep = sharp(F, delta, T, CalcParams(s=1.0))
    assert np.allclose(rep.value, T.coords[0], atol=1e-13)
    assert rep.t == pytest.approx(0.6, rel=1e-12)
    assert rep.tail_bound == 0.0  # nilpotent loop: the sum is finite and exact
    assert rep.terms_used == 1
    assert rep.ok and rep.closed_form_agreement <= 1e-12


def test_sharp_geometric_mode_invariants():
    F = random_isometric(2, 2, 2, 2, 2, 11)
    delta = e_lambda(2, 2)  # 4 letters arranged on a 2x2 grid
    T = random_tuple(3, 4, 0.55, 2)
    params = CalcParams(s=1.0, tol=1e-10)
    rep = sharp(F, delta, T, params)
    assert rep.tail_bound is not None and rep.tail_bound <= params.tol
    # the reported tail is exactly the geometric formula at the reported degree
    assert rep.tail_bound == tail_bound(rep.t, rep.terms_used)
    names = {c.name for c in rep.certificates}
    assert {"two_path_agreement", "truncation_tail", "contractive",
            "series_norm_geometric", "homogeneous_term_bound"} <= names
    assert rep.ok
    assert rep.closed_form_agreement <= 1e-9


def _isometric_job(delta, n, m, t, seed):
    """Random isometric model and a tuple whose automatically scaled norm is t."""
    rng = task_rng(seed, 0)
    F = random_isometric(delta.I, delta.J, m, 1, 1, rng)
    coords = [random_matrix(n, n, rng) for _ in range(delta.d)]
    # the automatic scale s = (t0 + 1)/2 maps t0 = t/(2 - t) to t
    scale = (t / (2.0 - t)) / op_norm(delta.eval(MatrixTuple(coords)))
    return F, MatrixTuple([c * scale for c in coords])


def test_homogeneous_term_bound_is_exact_under_the_frobenius_screen():
    z = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    c = 1.0 + 1e-9
    jobs = [
        (*_isometric_job(row_delta(3), 8, 4, 0.6, 1), row_delta(3)),
        (*_isometric_job(row_delta(3), 24, 4, 0.96, 2), row_delta(3)),
        (*_isometric_job(diag_delta(2), 12, 3, 0.8, 3), diag_delta(2)),
        # z -> (1 + 1e-9) z is still certified isometric, and at a scalar point
        # ||P_1|| exceeds t: the screen must decline and the lhs be positive
        (Colligation(c * z.A, c * z.B, z.C, z.D, z.I, z.J),
         MatrixTuple([[[0.4 + 0.3j]]]), PolyMatrix([[FreePoly.letter(1, 1)]])),
    ]
    for F, T, delta in jobs:
        rep = sharp(F, delta, T)
        point = delta.eval(T)
        y, t = point / rep.s, op_norm(point) / rep.s
        assert t == rep.t
        worst = 0.0
        for k, term in islice(homog_series(F, y), 1, rep.terms_used + 1):
            worst = max(worst, op_norm(term) - t**k)
        cert = {c.name: c for c in rep.certificates}["homogeneous_term_bound"]
        assert cert.lhs == worst and cert.passed
    assert worst > 0.0


def test_sharp_automatic_scale_splits_the_gap():
    F = random_isometric(1, 1, 2, 1, 1, 3)
    delta = row_delta(1)
    T = random_tuple(3, 1, 0.8, 5)
    rep = sharp(F, delta, T)  # no explicit s
    assert rep.s == pytest.approx(0.9, rel=1e-12)
    assert rep.t == pytest.approx(0.8 / 0.9, rel=1e-12)


def test_sharp_heuristic_mode_says_so():
    iso = random_isometric(1, 1, 2, 1, 1, 7)
    F = Colligation(2.0 * iso.A, 2.0 * iso.B, iso.C, iso.D, iso.I, iso.J)
    assert not F.isometric_certified
    delta = row_delta(1)
    T = random_tuple(3, 1, 0.4, 8)
    rep = sharp(F, delta, T, CalcParams(s=1.0))
    assert rep.tail_bound is None  # nothing certifies a geometric tail here
    assert any("heuristic" in note for note in rep.notes)
    assert rep.closed_form_agreement <= 1e-8
    assert {c.name for c in rep.certificates} == {"two_path_agreement"}


def test_sharp_refuses_isometric_outside_ball():
    F = random_isometric(1, 1, 2, 1, 1, 9)
    if F.nilpotent_index is not None:
        pytest.skip("random loop happened to be nilpotent")
    delta = row_delta(1)
    T = random_tuple(3, 1, 0.9, 10)
    with pytest.raises(DomainError):
        sharp(F, delta, T, CalcParams(s=0.5))  # t = 1.8


def test_sharp_series_cap_carries_partial_report():
    F = random_isometric(1, 1, 2, 1, 1, 13)
    if F.nilpotent_index is not None:
        pytest.skip("random loop happened to be nilpotent")
    delta = row_delta(1)
    T = random_tuple(2, 1, 0.97, 12)
    with pytest.raises(SeriesCapError) as exc_info:
        sharp(F, delta, T, CalcParams(s=1.0, tol=1e-14, max_terms=5))
    rep = exc_info.value.report
    assert isinstance(rep, CalcReport)
    assert rep.terms_used == 4
    assert rep.tail_bound is None
    assert any("cap" in note for note in rep.notes)


def test_sharp_shape_mismatch():
    F = random_isometric(2, 2, 1, 1, 1, 14)
    delta = row_delta(2)  # produces a 1x2 grid, model wants 2x2
    T = random_tuple(2, 2, 0.5, 15)
    with pytest.raises(ShapeError):
        sharp(F, delta, T)


def test_path_norm_sup_linear_case():
    delta = row_delta(2)
    T = random_tuple(3, 2, 0.7, 19)
    # linear entries: the sup over the segment sits at r = 1
    want = op_norm(delta.eval(T))
    assert path_norm_sup(delta, T) == pytest.approx(want, rel=1e-9)
    assert path_norm_sup(delta, T, s=0.5) == pytest.approx(2 * want, rel=1e-9)
    with pytest.raises(DomainError):
        path_norm_sup(delta, T, s=0.0)


def test_path_norm_sup_sees_interior_peak():
    # constant term pushes the norm up at r = 0 even when delta(T) is small
    delta = gap_delta(0.1)
    T = MatrixTuple([np.array([[1.0]]), np.array([[1.0]])])
    sup = path_norm_sup(delta, T)
    assert sup >= 10.0 - 1e-9  # the (x2 x1 - 1)/eps block at r = 0


def test_poly_consistency_for_compiled_model():
    delta = diag_delta(2)
    p = FreePoly(2, {(1, 2): 1.0, (2,): 0.5})
    F = compile_polynomial(p, delta, s=1.0)
    T = random_tuple(3, 2, 0.8, 28)
    rep = poly_consistency(p, F, delta, T, CalcParams(s=1.0), _small_cfg())
    assert rep.vanishes_at_zero and rep.path_inside
    assert rep.composition_samples > 0
    assert rep.composition_gap <= 1e-9
    assert rep.sharp_gap <= 1e-9
    assert rep.consistent


def test_poly_consistency_flags_wrong_polynomial():
    delta = diag_delta(2)
    p = FreePoly(2, {(1, 2): 1.0})
    q = FreePoly(2, {(2, 1): 1.0})  # the transposed word: a different function
    F = compile_polynomial(p, delta, s=1.0)
    T = random_tuple(3, 2, 0.8, 29)
    rep = poly_consistency(q, F, delta, T, CalcParams(s=1.0), _small_cfg())
    assert rep.sharp_gap > 1e-6
    assert not rep.consistent


def test_poly_consistency_reports_failed_hypotheses():
    # the gap arrangement has a constant term, so the path criterion cannot
    # apply even though evaluation itself is exact
    eps = 0.1
    delta = gap_delta(eps)
    p = FreePoly(2, {(1, 2): 1.0})
    F = compile_polynomial(p, delta, s=1.0)
    T = MatrixTuple([np.array([[1.0]]), np.array([[1.0]])])
    rep = poly_consistency(p, F, delta, T, CalcParams(s=1.0), _small_cfg())
    assert not rep.vanishes_at_zero
    assert not rep.path_inside
    assert not rep.consistent
    assert rep.sharp_gap <= 1e-9  # values still match; only the certificate fails
    assert any("does not vanish" in n for n in rep.notes)


def _slot_and_gain(delta, r):
    """The slot letter x^r compiles to through delta, and its coefficient."""
    F = compile_polynomial(FreePoly.letter(r, delta.d), delta)
    assert F.m == 1
    (i,), (j,) = np.flatnonzero(F.B[0]), np.flatnonzero(F.C[:, 0])
    return i * delta.J + j + 1, F.B[0, i]


def _x(r, d=2):
    return FreePoly.letter(r, d)


_ORACLE_DELTAS = {
    # delta, s, per coordinate: (slot, coefficient of its entry)
    "diag": (diag_delta(2), 1.0, [(1, 1.0), (4, 1.0)]),
    "row": (row_delta(3), 1.0, [(1, 1.0), (2, 1.0), (3, 1.0)]),
    "gap": (gap_delta(0.1), 0.5, [(5, 1.0 / 1.1), (9, 1.0 / 1.1)]),
    "lens": (lens_delta(), 1.0, [(1, 1.0)]),
    "swapped": (PolyMatrix([[_x(2), _x(1)]]), 1.0, [(2, 1.0), (1, 1.0)]),
    # no float inverts 237 exactly, so coordinate 1 takes the later entry
    "inexact-first": (PolyMatrix([[237.0 * _x(1), _x(2), _x(1)]]), 1.0, [(3, 1.0), (2, 1.0)]),
}


@pytest.mark.parametrize("name", list(_ORACLE_DELTAS))
def test_compile_polynomial_is_the_substitution_route(name):
    # the route the rename replaces: substitute q * s times the slot letter
    # for each coordinate, then compile over delta's slots
    delta, s, slots = _ORACLE_DELTAS[name]
    d, d_slots = delta.d, delta.I * delta.J
    images = [FreePoly.letter(slot, d_slots) * (funcalc._exact_inverse(c) * s)
              for slot, c in slots]
    words = [(), (1,), (d, 1), (1, 1, d), (d, 1, d, 1)]
    coeffs = [0.5, -1e-300, (0.3 - 0.7j), -1e150, (-0.0 - 2.5j)]
    scalar = FreePoly(d, dict(zip(words, coeffs)))
    square = PolyMatrix([[scalar, FreePoly.zero(d)],
                         [FreePoly(d, dict(zip(words[::-1], coeffs))), _x(d, d) * -3.0]])
    for P in (scalar, square):
        F = compile_polynomial(P, delta, s=s)
        G = poly_to_colligation(PolyMatrix.from_poly(P).map(lambda p: p.substitute(images)),
                                delta.I, delta.J)
        assert F == G
        for a, b in zip((F.A, F.B, F.C, F.D), (G.A, G.B, G.C, G.D)):
            assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
            assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def test_compile_polynomial_reads_slots_and_inverses():
    assert [_slot_and_gain(diag_delta(2), r) for r in (1, 2)] == [(1, 1.0), (4, 1.0)]
    # gap entries are scaled letters on the diagonal: the compile unscales them
    for r, want in zip((1, 2), (5, 9)):
        slot, gain = _slot_and_gain(gap_delta(0.1), r)
        assert slot == want
        assert gain == pytest.approx(1.1, rel=1e-12)
    assert _slot_and_gain(lens_delta(), 1) == (1, 1.0)


def test_compile_polynomial_refuses_a_coordinate_never_alone():
    delta = PolyMatrix([[FreePoly.monomial((1, 2), 2)]])
    with pytest.raises(DomainError, match=r"no entry of delta is a plain scaled letter "
                                          r"for coordinate\(s\) \[1, 2\]$"):
        compile_polynomial(FreePoly.letter(1, 2), delta)


def test_derived_witnesses_recover_their_coordinates_exactly():
    # 49 * (1/49) rounds to 0.9999999999999999, but a float neighbour of 1/49
    # gives 1 exactly; no float q has 237 * q == 1
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    zero, P = FreePoly.zero(2), x1 * x2 - 0.5 * x2
    delta = PolyMatrix([[49.0 * x1, zero], [zero, x2]])
    assert 49.0 * (1.0 / 49.0) != 1.0
    F = compile_polynomial(P, delta)
    T = random_tuple(3, 2, 0.5, 63)
    rep = sharp(F, delta, T, CalcParams(s=1.0))
    assert rep.ok and op_norm(rep.value - P.eval(T)) <= 1e-12
    with pytest.raises(DomainError, match=r"entry \(0, 0\) of delta is 237 \* x\^1, and no "
                                          r"float q has 237 \* q == 1 exactly"):
        compile_polynomial(P, PolyMatrix([[237.0 * x1, zero], [zero, x2]]))


def test_sharp_builds_the_loop_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    build = realization._loop
    for module in (realization, funcalc):  # wherever a module holds the name
        monkeypatch.setattr(module, "_loop", counting, raising=False)
    delta = diag_delta(2)
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    compiled = compile_polynomial((x1 + x2) ** 3 - 2.0 * x2 * x1, delta)
    jobs = [(*_isometric_job(delta, 6, 3, 0.7, 5), "geometric"),
            (compiled, random_tuple(4, 2, 1.5, 6), "nilpotent")]
    for F, T, mode in jobs:
        calls.clear()
        rep = sharp(F, delta, T)
        assert len(calls) == 1
        assert f"stopping rule: {mode}" in [c.detail for c in rep.certificates]
        # the public routes, each building its own loop, are the reference
        y = delta.eval(T) / rep.s
        series = None
        for _, term in islice(homog_series(F, y), rep.terms_used + 1):
            series = term.copy() if series is None else series + term
        closed = eval_colligation(F, y)
        assert np.array_equal(rep.value, closed)
        assert rep.closed_form_agreement == float(op_norm(series - closed))


def test_compile_polynomial_exact_at_any_scale():
    delta = diag_delta(2)
    p = FreePoly(2, {(1,): 1.0, (2, 1): -0.5, (1, 1, 2): 0.25})
    T = random_tuple(3, 2, 2.5, 30)  # far outside the unit sublevel set
    for s in (1.0, 0.5, 0.125):
        F = compile_polynomial(p, delta, s=s)
        assert F.nilpotent_index is not None
        rep = sharp(F, delta, T, CalcParams(s=s))
        assert op_norm(rep.value - p.eval(T)) <= 1e-9
        assert rep.tail_bound == 0.0
    with pytest.raises(DomainError):
        compile_polynomial(p, delta, s=1.5)


def test_compile_matrix_polynomial_through_lens():
    # 2x1 polynomial column through the one-letter lens arrangement
    d = 1
    x = FreePoly.letter(1, d)
    P = PolyMatrix([[x * x], [x - 0.5]])
    delta = lens_delta()
    F = compile_polynomial(P, delta, s=1.0)
    T = MatrixTuple([np.array([[0.5 + 0.2j]])])
    rep = sharp(F, delta, T, CalcParams(s=1.0))
    grid = xfirst_to_blocks(rep.value, 1, F.k2, F.k1)
    assert np.allclose(grid, P.eval(T), atol=1e-12)
