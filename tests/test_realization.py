from itertools import islice

import numpy as np
import pytest

from freecalc.errors import DomainError, ShapeError
from freecalc.freepoly import FreePoly, PolyMatrix, e_lambda
from freecalc.funcalc import CalcParams, sharp
from freecalc.matrix_core import (
    MatrixTuple,
    ampliate,
    direct_sum,
    op_norm,
    random_matrix,
    random_tuple,
    similarity,
    task_rng,
)
from freecalc.realization import (
    Colligation,
    add_colligations,
    blocks_to_xfirst,
    constant_colligation,
    coordinate_colligation,
    dft_points_for,
    eval_colligation,
    homog_extract_dft,
    homog_series,
    identity_colligation,
    multiply_colligations,
    poly_to_colligation,
    random_isometric,
    scale_colligation,
    state_space_conjugate,
    symbolic_terms,
    xfirst_direct_sum,
    xfirst_to_blocks,
)


def _mobius(theta: float) -> Colligation:
    # 2x2 rotation assembled as a scalar system: F(y) = a + b y (1 - d y)^-1 c
    a, b = np.cos(theta), -np.sin(theta)
    c, d = np.sin(theta), np.cos(theta)
    return Colligation([[a]], [[b]], [[c]], [[d]], 1, 1)


def _ball_point(n: int, I: int, J: int, t: float, seed: int) -> np.ndarray:
    rng = task_rng(seed, 0xB)
    g = random_matrix(n * I, n * J, rng)
    return g * (t / op_norm(g))


def _states_oracle(y: np.ndarray, I: int, J: int, m: int) -> np.ndarray:
    """Independent ampliation: sum of y_ij (x) E_ij (x) I_m from the raw blocks."""
    n = y.shape[0] // I
    out = np.zeros((n * I * m, n * J * m), dtype=np.complex128)
    for i in range(I):
        for j in range(J):
            e = np.zeros((I, J))
            e[i, j] = 1.0
            block = y[i * n : (i + 1) * n, j * n : (j + 1) * n]
            out += np.kron(block, np.kron(e, np.eye(m)))
    return out


def test_mobius_sweep_matches_closed_form():
    F = _mobius(0.7)
    a, b = np.cos(0.7), -np.sin(0.7)
    c, d = np.sin(0.7), np.cos(0.7)
    for y in np.linspace(-0.95, 0.95, 21):
        got = eval_colligation(F, np.array([[y]]))
        want = a + b * y * c / (1.0 - d * y)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(want, abs=1e-12)
    # matrix argument: same formula with resolvent in place of division
    Y = _ball_point(4, 1, 1, 0.8, 3)
    got = eval_colligation(F, Y)
    want = a * np.eye(4) + b * Y @ np.linalg.solve(np.eye(4) - d * Y, c * np.eye(4))
    assert np.allclose(got, want, atol=1e-12)


def test_colligation_shape_validation_and_fields():
    F = _mobius(0.3)
    assert (F.I, F.J, F.m, F.k1, F.k2) == (1, 1, 1, 1, 1)
    assert F.isometric_certified and F.isometry_defect <= 1e-12
    with pytest.raises(ShapeError):
        Colligation(np.eye(2), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)), 1, 1)
    with pytest.raises(DomainError):
        Colligation([[np.nan]], np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), 1, 1)


def test_blocks_are_read_only():
    F = _mobius(0.1)
    with pytest.raises((ValueError, TypeError)):
        F.A[0, 0] = 9.0


def test_builders_evaluate_as_expected():
    n, I, J = 3, 2, 2
    y = _ball_point(n, I, J, 0.9, 7)
    ident = identity_colligation()
    z = _ball_point(n, 1, 1, 0.5, 8)
    assert np.allclose(eval_colligation(ident, z), z)
    const = constant_colligation(np.array([[2.0, 1.0]]), I, J)
    got = eval_colligation(const, y)
    assert np.allclose(got, ampliate(n, np.array([[2.0, 1.0]])))
    for i in range(1, I + 1):
        for j in range(1, J + 1):
            coord = coordinate_colligation(i, j, I, J)
            got = eval_colligation(coord, y)
            assert np.allclose(got, y[(i - 1) * n : i * n, (j - 1) * n : j * n])
    with pytest.raises(ShapeError):
        coordinate_colligation(3, 1, 2, 2)


def test_isometric_construction_and_contractivity():
    for seed in range(10):
        F = random_isometric(2, 2, 2, 2, 2, seed)
        v = np.block([[F.A, F.B], [F.C, F.D]])
        assert op_norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-12
        assert F.isometric_certified
        y = _ball_point(3, 2, 2, 0.9, seed)
        assert op_norm(eval_colligation(F, y)) <= 1.0 + 1e-10
    with pytest.raises(ShapeError):
        random_isometric(2, 1, 3, 4, 1, 0)


def test_defect_identity_adjoint_form():
    # I - F(Y)* F(Y) factors through the state resolvent; the middle factor
    # I - Y_M* Y_M makes positivity visible.  Oracle builds Y_M by raw krons.
    for seed in range(6):
        I, J, m, k = 2, 2, 2, 2
        F = random_isometric(I, J, m, k, k, 40 + seed)
        n = 3
        y = _ball_point(n, I, J, 0.85, 40 + seed)
        ym = _states_oracle(y, I, J, m)
        damp = ampliate(n, F.D)
        camp = ampliate(n, F.C)
        W = np.linalg.solve(np.eye(n * J * m) - damp @ ym, camp)
        rhs = W.conj().T @ (np.eye(n * J * m) - ym.conj().T @ ym) @ W
        val = eval_colligation(F, y)
        lhs = np.eye(n * k) - val.conj().T @ val
        assert op_norm(lhs - rhs) <= 1e-9
        assert np.linalg.eigvalsh((rhs + rhs.conj().T) / 2).min() >= -1e-9


def test_kernel_matches_dense_kronecker_oracle():
    # I != J, k1 != k2, m >= 2, n >= 2: every index of the factored layout differs
    for I, J, m, k1, k2, n in ((2, 3, 2, 1, 2, 2), (3, 2, 2, 1, 3, 2), (1, 2, 3, 2, 1, 3)):
        F = random_isometric(I, J, m, k1, k2, 70 + I)
        y = _ball_point(n, I, J, 0.8, 71 + I)
        ym = _states_oracle(y, I, J, m)
        bamp, camp, damp = (ampliate(n, X) for X in (F.B, F.C, F.D))
        wants = [ampliate(n, F.A)]
        w = ym @ camp
        for _ in range(6):
            wants.append(bamp @ w)
            w = ym @ (damp @ w)
        for (k, term), want in zip(homog_series(F, y), wants):
            assert term.shape == (n * k2, n * k1)
            assert np.abs(term - want).max() <= 1e-12
        closed = ampliate(n, F.A) + bamp @ ym @ np.linalg.solve(
            np.eye(n * J * m) - damp @ ym, camp)
        assert np.abs(eval_colligation(F, y) - closed).max() <= 1e-12


def test_empty_dimensions_flow_through_every_route():
    I, J, m, n = 1, 2, 2, 2
    rng = task_rng(72, 0)
    delta = e_lambda(I, J)
    T = random_tuple(n, 2, 0.5, 73)
    y = delta.eval(T)
    models = [
        constant_colligation(np.array([[2.0, 1.0]]), I, J),  # m = 0
        Colligation(np.zeros((0, 2)), np.zeros((0, I * m)), random_matrix(J * m, 2, rng),
                    0.1 * random_matrix(J * m, I * m, rng), I, J),  # k2 = 0
        Colligation(np.zeros((2, 0)), random_matrix(2, I * m, rng), np.zeros((J * m, 0)),
                    0.1 * random_matrix(J * m, I * m, rng), I, J),  # k1 = 0
    ]
    for F in models:
        shape = (n * F.k2, n * F.k1)
        assert np.array_equal(eval_colligation(F, y), ampliate(n, F.A))
        for k, term in islice(homog_series(F, y), 5):
            assert term.shape == shape
            if k:
                assert np.array_equal(term, np.zeros(shape))
        rep = sharp(F, delta, T, CalcParams(s=1.0))
        assert rep.value.shape == shape and rep.ok


def test_homogeneous_terms_bounded_by_radius_powers():
    F = random_isometric(2, 2, 2, 1, 1, 5)
    t = 0.6
    y = _ball_point(3, 2, 2, t, 11)
    for k, term in islice(homog_series(F, y), 13):
        assert op_norm(term) <= t**k + 1e-10


def test_partial_sums_converge_to_closed_form():
    F = random_isometric(1, 2, 2, 2, 2, 9)
    t = 0.5
    y = _ball_point(2, 1, 2, t, 13)
    val = eval_colligation(F, y)
    acc = np.zeros_like(val)
    for k, term in zip(range(0, 61), _series_iter(F, y)):
        acc = acc + term
    # geometric tail: t^61/(1-t) is far below the tolerance
    assert op_norm(acc - val) <= 1e-9


def _series_iter(F, y):
    for _, term in homog_series(F, y):
        yield term


def test_dft_extraction_matches_series_terms():
    F = random_isometric(2, 2, 1, 2, 2, 21)
    t = 0.5
    y = _ball_point(2, 2, 2, t, 17)
    for k, via_series in islice(homog_series(F, y), 5):
        n_angles = dft_points_for(k, t, 1e-10)
        via_dft = homog_extract_dft(F, y, k, n_angles)
        assert op_norm(via_dft - via_series) <= 1e-10


def test_dft_sees_nothing_above_polynomial_degree():
    p = FreePoly(2, {(1, 2): 1.0, (2,): -0.5, (): 0.25})
    F = poly_to_colligation(p, 1, 2)
    y = _ball_point(3, 1, 2, 0.7, 23)
    ghost = homog_extract_dft(F, y, 3, 16)
    assert op_norm(ghost) <= 1e-12


def test_dft_points_for_edges():
    assert dft_points_for(4, 0.0, 1e-10) == 5
    assert dft_points_for(2, 0.5, 1e-10) >= 3
    with pytest.raises(DomainError):
        dft_points_for(2, 1.0, 1e-10)
    with pytest.raises(DomainError):
        dft_points_for(2, 0.5, 0.0)
    F = identity_colligation()
    with pytest.raises(DomainError):
        homog_extract_dft(F, np.array([[0.5]]), 3, 3)


def test_combinations_match_pointwise_algebra():
    I, J = 2, 2
    F = random_isometric(I, J, 2, 2, 2, 31)
    G = random_isometric(I, J, 1, 2, 2, 32)
    y = _ball_point(3, I, J, 0.8, 19)
    fv, gv = eval_colligation(F, y), eval_colligation(G, y)
    assert np.allclose(eval_colligation(add_colligations(F, G), y), fv + gv, atol=1e-10)
    assert np.allclose(
        eval_colligation(multiply_colligations(F, G), y), fv @ gv, atol=1e-10
    )
    assert np.allclose(
        eval_colligation(scale_colligation(F, 2.5 - 1j), y), (2.5 - 1j) * fv, atol=1e-10
    )


def test_combination_shape_mismatches():
    F = random_isometric(2, 2, 1, 2, 2, 1)
    H = random_isometric(1, 2, 1, 2, 2, 2)
    with pytest.raises(ShapeError):
        add_colligations(F, H)
    K = random_isometric(2, 2, 1, 3, 4, 3)  # k1=3 cannot feed F's k2=2
    with pytest.raises(ShapeError):
        multiply_colligations(K, F)


def test_compiled_polynomial_reproduces_values():
    d = 4
    rng = task_rng(0, 0xC0)
    for trial in range(6):
        terms = {}
        for _ in range(5):
            w = tuple(int(rng.integers(1, d + 1)) for _ in range(int(rng.integers(0, 4))))
            terms[w] = complex(rng.standard_normal(), rng.standard_normal())
        p = FreePoly(d, terms)
        F = poly_to_colligation(p, 2, 2)
        assert F.nilpotent_index == p.degree()
        x = random_tuple(3, d, 0.9, 500 + trial)
        delta = e_lambda(2, 2)
        got = eval_colligation(F, delta.eval(x))
        assert np.allclose(got, p.eval(x), atol=1e-10)


def test_compiled_matrix_polynomial_and_shuffles():
    d = 2
    p11 = FreePoly(d, {(1,): 1.0, (): 0.5})
    p12 = FreePoly(d, {(2, 1): -1.0})
    p21 = FreePoly.zero(d)
    p22 = FreePoly(d, {(2,): 2.0})
    x = random_tuple(3, d, 0.8, 77)
    delta = e_lambda(1, 2)
    # square values, and k2 = 1 != k1 = 3
    for P in (PolyMatrix([[p11, p12], [p21, p22]]), PolyMatrix([[p11, p12, p22]])):
        F = poly_to_colligation(P, 1, 2)
        val = eval_colligation(F, delta.eval(x))  # point-first
        grid = xfirst_to_blocks(val, x.n, F.k2, F.k1)  # now a k2 x k1 grid of n x n
        assert np.allclose(grid, P.eval(x), atol=1e-10)
        assert np.array_equal(blocks_to_xfirst(grid, x.n, F.k2, F.k1), val)
        with pytest.raises(ShapeError):
            xfirst_to_blocks(val[:-1], x.n, F.k2, F.k1)


def test_symbolic_terms_recover_graded_pieces():
    d = 2
    p = FreePoly(d, {(): 1.5, (1,): 2.0, (1, 2): -1.0, (2, 2): 0.5})
    F = poly_to_colligation(p, 1, 2)
    pieces = symbolic_terms(F, p.degree())
    for k, piece in enumerate(pieces):
        assert piece.entry(0, 0) == p.homogeneous_part(k)
    # a constant colligation has nothing above degree zero
    const = constant_colligation(np.array([[3.0]]), 1, 1)
    pieces = symbolic_terms(const, 2)
    assert pieces[0].entry(0, 0) == FreePoly.constant(3.0, 1)
    assert pieces[1].entry(0, 0).is_zero() and pieces[2].entry(0, 0).is_zero()


def test_respects_direct_sums():
    I, J = 2, 2
    delta = e_lambda(I, J)
    F = random_isometric(I, J, 2, 2, 3, 55)
    x1 = random_tuple(2, 4, 0.9, 601)
    x2 = random_tuple(3, 4, 0.9, 602)
    v1 = eval_colligation(F, delta.eval(x1))
    v2 = eval_colligation(F, delta.eval(x2))
    big = eval_colligation(F, delta.eval(direct_sum(x1, x2)))
    assert op_norm(big - xfirst_direct_sum(v1, v2, F.k2, F.k1)) <= 1e-10


def test_respects_similarities():
    I, J = 1, 2
    delta = e_lambda(I, J)
    F = random_isometric(I, J, 2, 2, 2, 56)
    n = 3
    x = random_tuple(n, 2, 0.6, 603)
    rng = task_rng(604, 0)
    s = np.eye(n) + 0.3 * random_matrix(n, n, rng)
    xs = similarity(s, x)
    lhs = eval_colligation(F, delta.eval(xs))
    val = eval_colligation(F, delta.eval(x))
    rhs = np.linalg.solve(np.kron(s, np.eye(F.k2)), val) @ np.kron(s, np.eye(F.k1))
    assert op_norm(lhs - rhs) <= 1e-8


def test_state_space_conjugation_preserves_values():
    F = random_isometric(2, 2, 3, 2, 2, 57)
    y = _ball_point(2, 2, 2, 0.8, 605)
    val = eval_colligation(F, y)
    rng = task_rng(606, 0)
    q, _ = np.linalg.qr(random_matrix(3, 3, rng))
    G = state_space_conjugate(F, q)
    assert np.allclose(eval_colligation(G, y), val, atol=1e-10)
    assert G.isometric_certified  # unitary conjugation keeps the certificate
    w = np.eye(3) + 0.5 * random_matrix(3, 3, rng)
    H = state_space_conjugate(F, w)
    assert np.allclose(eval_colligation(H, y), val, atol=1e-8)
    with pytest.raises(ShapeError):
        state_space_conjugate(F, np.eye(2))


def test_nilpotency_detection():
    assert identity_colligation().nilpotent_index == 1
    assert constant_colligation(np.eye(2), 1, 1).nilpotent_index == 0
    # a self-loop in the state graph defeats every nilpotency certificate
    loop = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.9]], 1, 1)
    assert loop.nilpotent_index is None
    p = FreePoly(2, {(1, 2, 1): 1.0})
    assert poly_to_colligation(p, 1, 2).nilpotent_index == 3


def test_outside_domain_raises():
    loop = Colligation([[0.0]], [[1.0]], [[1.0]], [[1.0]], 1, 1)
    with pytest.raises(DomainError):
        eval_colligation(loop, np.array([[1.0]]))
    # nilpotent systems evaluate everywhere, even far outside the unit ball
    p = FreePoly(1, {(1, 1): 1.0})
    F = poly_to_colligation(p, 1, 1)
    big = np.array([[50.0]])
    assert np.allclose(eval_colligation(F, big), [[2500.0]])


def test_point_shape_mismatch_raises():
    F = random_isometric(2, 2, 1, 1, 1, 3)
    with pytest.raises(ShapeError):
        eval_colligation(F, np.zeros((4, 6)))  # 4 rows not a 2-block square grid
