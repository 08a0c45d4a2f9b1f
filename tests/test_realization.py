import math
import tracemalloc
from itertools import islice, product

import numpy as np
import pytest

from freecalc.errors import DomainError, ShapeError
from freecalc.freepoly import FreePoly, PolyMatrix, diag_delta, e_lambda, row_delta
from freecalc.funcalc import CalcParams, compile_polynomial, sharp
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
    MAX_LOOP_DIM,
    RESOLVENT_NORM_CAP,
    Colligation,
    _graph_nilpotency,
    _loop,
    _point_blocks,
    _resolvent_bound,
    dft_points_for,
    eval_colligation,
    homog_extract_dft,
    homog_series,
    poly_to_colligation,
    random_isometric,
    xfirst_direct_sum,
    xfirst_to_blocks,
)
from freecalc.serialize import decode_colligation, encode


def _mobius(theta: float) -> Colligation:
    # 2x2 rotation assembled as a scalar system: F(y) = a + b y (1 - d y)^-1 c
    a, b = np.cos(theta), -np.sin(theta)
    c, d = np.sin(theta), np.cos(theta)
    return Colligation([[a]], [[b]], [[c]], [[d]], 1, 1)


def _constant_model(a, I: int, J: int) -> Colligation:
    """The compile of the constant polynomial matrix a over an I x J grid."""
    rows = [[FreePoly.constant(c, I * J) for c in row] for row in np.atleast_2d(a)]
    return poly_to_colligation(PolyMatrix(rows), I, J)


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
    # finite entries whose Gram product overflows
    with pytest.raises(DomainError, match="isometry defect overflowed"):
        Colligation([[1e308]], np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), 1, 1)


@pytest.fixture
def svd_matrices(monkeypatch):
    """The number of matrices each np.linalg.svd call decomposes, in order."""
    svd, sent = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        sent.append(math.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return sent


def test_isometry_defect_is_taken_once_on_first_read(svd_matrices):
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    rng = task_rng(59, 0)
    models = [_mobius(0.3), random_isometric(2, 2, 2, 1, 1, 5),
              Colligation(*(random_matrix(r, c, rng) for r, c in ((1, 2), (1, 2), (4, 2), (4, 2))),
                          1, 2),
              compile_polynomial((x1 + x2) ** 4, diag_delta(2)), _constant_model([[2.0]], 1, 1)]
    assert not svd_matrices  # construction forms the Gram but decomposes nothing
    for F in models:
        v = np.block([[F.A, F.B], [F.C, F.D]])
        want = op_norm(v.conj().T @ v - np.eye(v.shape[1]))
        svd_matrices.clear()
        assert F.isometry_defect == want  # the first read takes the SVD
        assert F.isometric_certified == (want <= 1e-8) and F.isometry_defect == want
        assert sum(svd_matrices) == 1


def test_compiled_sharp_outside_the_ball_decomposes_two_matrices(svd_matrices):
    # ||delta(T)|| and the two-path agreement: the isometric certificates
    # are not due at t >= 1, so the defect is never taken, the guard reads
    # ||y|| from sharp's t, and ||D||_F ||y|| settles the resolvent cap
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    jobs = [((x1 + x2) ** 4, diag_delta(2), random_tuple(6, 2, 1.5, 60)),
            (x1 * x2 - 0.5 * x2 * x2 * x1 + 1.0, row_delta(2), random_tuple(4, 2, 1.5, 61))]
    for P, delta, T in jobs:
        svd_matrices.clear()
        F = compile_polynomial(P, delta)
        rep = sharp(F, delta, T)
        assert sum(svd_matrices) == 2
        assert rep.t >= 1.0 and rep.ok
        assert op_norm(rep.value - P.eval(T)) <= 1e-9 * max(1.0, op_norm(P.eval(T)))


def test_isometric_sharp_takes_no_norm_of_y_or_d(svd_matrices):
    # x1 on row_delta(1): V = [[0, 1], [1, 0]], isometric and nilpotent.  At
    # t < 1 sharp decomposes ||delta(T)||, the defect, ||P_1|| (its Frobenius
    # norm does not clear t), the agreement, and the value and series norms:
    # six matrices.  The guard reads ||y|| as t, and ||D||_F = 0 settles it.
    delta = row_delta(1)
    F = compile_polynomial(FreePoly.letter(1, 1), delta)
    T = random_tuple(4, 1, 0.5, 62)
    svd_matrices.clear()
    rep = sharp(F, delta, T)
    assert sum(svd_matrices) == 6
    assert rep.t < 1.0 and {c.name for c in rep.certificates} >= {
        "contractive", "series_norm_geometric", "homogeneous_term_bound"}


def test_blocks_are_read_only():
    F = _mobius(0.1)
    with pytest.raises((ValueError, TypeError)):
        F.A[0, 0] = 9.0


def test_builders_evaluate_as_expected():
    n, I, J = 3, 2, 2
    y = _ball_point(n, I, J, 0.9, 7)
    ident = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    z = _ball_point(n, 1, 1, 0.5, 8)
    assert np.allclose(eval_colligation(ident, z), z)
    const = _constant_model([[2.0, 1.0]], I, J)
    assert const.m == 0 and const.nilpotent_index == 0
    got = eval_colligation(const, y)
    assert np.allclose(got, ampliate(n, np.array([[2.0, 1.0]])))
    for i in range(1, I + 1):
        for j in range(1, J + 1):
            coord = poly_to_colligation(FreePoly.letter((i - 1) * J + j, I * J), I, J)
            # one state, read in at slot j and out at slot i, and no loop
            assert coord.m == 1 and coord.nilpotent_index == 1 and not coord.D.any()
            assert np.array_equal(coord.B, np.eye(I)[[i - 1]])
            assert np.array_equal(coord.C, np.eye(J)[:, [j - 1]])
            got = eval_colligation(coord, y)
            assert np.allclose(got, y[(i - 1) * n : i * n, (j - 1) * n : j * n])
    with pytest.raises(ShapeError):  # a letter beyond the 2 x 2 grid
        poly_to_colligation(FreePoly.letter(5, 5), I, J)


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


def test_loop_matches_dense_kronecker_oracle():
    # row, square and column arrangements; the column ones (I > J) are run by
    # no experiment, so this is where their layout is checked
    rng = task_rng(74, 0)
    for (I, J), k1, k2, n in product(((1, 2), (1, 3), (2, 2), (2, 1), (3, 1)),
                                     (1, 3), (1, 3), (1, 2, 5)):
        m = 2 + (I + J + n) % 2
        F = Colligation(random_matrix(k2, k1, rng), random_matrix(k2, I * m, rng),
                        random_matrix(J * m, k1, rng), random_matrix(J * m, I * m, rng), I, J)
        y = random_matrix(n * I, n * J, rng)
        ym = _states_oracle(y, I, J, m)
        got_n, L, w = _loop(F, _point_blocks(F, y))
        assert got_n == n and L.shape == (n * I * m, n * I * m) and w.shape == (n * I * m, n * k1)
        for got, want in ((L, ym @ ampliate(n, F.D)), (w, ym @ ampliate(n, F.C))):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("I, J, m", [(1, 3, 32), (2, 2, 16)])
def test_closed_form_allocates_one_loop_matrix(I, J, m):
    # N = n*I*m = 1024: the loop is built in place, so the traced peak is L
    # itself (16 N^2 bytes) plus the n*k1 columns of w.  The LU factor, the
    # other matrix of MAX_LOOP_DIM's budget, lives in numpy.linalg's work
    # buffer, which tracemalloc does not see.
    n = 1024 // (I * m)
    F = random_isometric(I, J, m, 1, 1, 76 + I)
    y = _ball_point(n, I, J, 0.5, 77)
    tracemalloc.start()
    try:
        eval_colligation(F, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * 1024**2


def test_empty_dimensions_flow_through_every_route():
    I, J, m, n = 1, 2, 2, 2
    rng = task_rng(72, 0)
    delta = e_lambda(I, J)
    T = random_tuple(n, 2, 0.5, 73)
    y = delta.eval(T)
    models = [
        _constant_model([[2.0, 1.0]], I, J),  # m = 0
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
    with pytest.raises(DomainError):
        dft_points_for(2, 0.5, math.inf)
    # tol * (1 - t) underflows to 0 here; the count must still come out exact
    assert dft_points_for(2, 0.5, 5e-324) == 1077
    # the log formula alone rounds to 40 angles here, where t^33/(1-t) > tol
    t, tol = 0.2788231406800987, 6.883496656123023e-19
    assert t ** 33 / (1.0 - t) > tol
    assert dft_points_for(7, t, tol) == 41 and t ** 34 / (1.0 - t) <= tol
    F = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    with pytest.raises(DomainError):
        homog_extract_dft(F, np.array([[0.5]]), 3, 3)


@pytest.mark.parametrize("k", [-1, 2.5, 2.0, True, None])
def test_dft_refuses_a_degree_that_is_not_a_nonnegative_integer(k):
    # -1 with 8 angles would alias to the degree-7 term; 2.5 would ask for 37.5 angles
    F = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    with pytest.raises(DomainError, match="degree k must be"):
        dft_points_for(k, 0.5, 1e-10)
    with pytest.raises(DomainError, match="degree k must be"):
        homog_extract_dft(F, np.array([[0.5]]), k, 8)


@pytest.mark.parametrize("n_angles", [8.0, 8.5, np.float64(8), False])
def test_dft_refuses_an_angle_count_that_is_not_an_integer(n_angles):
    F = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    with pytest.raises(DomainError, match="n_angles must be an integer"):
        homog_extract_dft(F, np.array([[0.5]]), 1, n_angles)


def test_dft_takes_numpy_integers():
    F = poly_to_colligation(FreePoly.letter(1, 1), 1, 1)
    y = np.array([[0.5]])
    assert dft_points_for(np.int64(1), 0.0, 1e-10) == 2
    got = homog_extract_dft(F, y, np.int64(1), np.int32(4))
    assert np.array_equal(got, homog_extract_dft(F, y, 1, 4))


def _random_poly_matrix(rng, k2: int, k1: int, d: int) -> PolyMatrix:
    """Seeded k2 x k1 polynomial matrix built so that the compile has work to
    do: words drawn with all their suffixes from a small shared pool, so
    suffixes are shared across entries and columns, and coefficients from a
    small set, so that states with equal futures occur and merge.  Entry
    (0, 0) is constant-only and the last entry is zero."""
    pool = [tuple(int(a) for a in rng.integers(1, d + 1, size=q)) for q in (1, 2, 3, 4, 4)]
    coeffs = (1.0, -0.5, 2.0j, 0.25 - 1.0j)
    rows = []
    for alpha in range(k2):
        row = []
        for beta in range(k1):
            terms = {(): coeffs[int(rng.integers(len(coeffs)))]}
            for w in (pool[int(i)] for i in rng.choice(len(pool), size=3, replace=False)):
                terms[w[int(rng.integers(len(w))):]] = coeffs[int(rng.integers(len(coeffs)))]
                terms[w] = coeffs[int(rng.integers(len(coeffs)))]
            row.append(FreePoly(d, terms))
        rows.append(row)
    rows[0][0] = FreePoly.constant(1.5, d)
    if k2 * k1 > 1:
        rows[-1][-1] = FreePoly.zero(d)
    return PolyMatrix(rows)


def _symbolic_terms(F: Colligation, max_k: int) -> list[PolyMatrix]:
    """Homogeneous terms P_0..P_max_k as polynomial matrices in the slot letters.

    The letter of slot (i, j) is r = i*J + j + 1 (0-based i, j), and the word
    r_1 ... r_k has coefficient B_(i1) D_(j1, i2) ... D_(j(k-1), ik) C_(jk),
    read off the slot views.  Enumerates all (I*J)^k words per degree, so
    this is only meant for small degrees; for compiled polynomial
    colligations it recovers the source polynomial's graded pieces exactly.
    """
    I, J, k1, k2 = F.I, F.J, F.k1, F.k2
    b3 = F.B.reshape(k2, I, F.m)
    c3 = F.C.reshape(J, F.m, k1)
    d4 = F.D.reshape(J, F.m, I, F.m)
    d = I * J
    out: list[PolyMatrix] = []
    const = [[FreePoly.constant(F.A[a, b], d) for b in range(k1)] for a in range(k2)]
    out.append(PolyMatrix(const))

    for k in range(1, max_k + 1):
        grids = [[FreePoly.zero(d) for _ in range(k1)] for _ in range(k2)]

        # Depth-first over words, growing them leftwards so that suffix
        # products are shared: tail = D_(j1, i2) ... C_(jk) for the current
        # word, whose first letter sits in block row i.
        def walk(word: tuple[int, ...], i: int, tail: np.ndarray):
            if len(word) == k:
                coeffs = b3[:, i, :] @ tail
                for a in range(k2):
                    for b in range(k1):
                        c = coeffs[a, b]
                        if c != 0:
                            grids[a][b] = grids[a][b] + FreePoly.monomial(word, d, c)
                return
            for i_new in range(I):
                for j in range(J):
                    walk((i_new * J + j + 1,) + word, i_new, d4[j, :, i, :] @ tail)

        for i in range(I):
            for j in range(J):
                walk((i * J + j + 1,), i, c3[j])
        out.append(PolyMatrix(grids))
    return out


def test_compiled_polynomial_reproduces_values():
    # every compile is checked against the polynomial by value, by its exact
    # graded pieces, by its size and by its nilpotency index
    I, J = 2, 2
    d = I * J
    delta = e_lambda(I, J)
    rng = task_rng(0, 0xC0)
    merged = False
    for trial, (k2, k1) in enumerate(((1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3)) * 2):
        P = _random_poly_matrix(rng, k2, k1, d)
        F = poly_to_colligation(P, I, J)
        deg = max(P.max_degree(), 0)
        words = [(b, w) for row in P.entries for b, p in enumerate(row)
                 for w, _ in p.sorted_terms()]
        assert F.m <= sum(len(w) for _, w in words)
        merged |= F.m < len({(b, w[q:]) for b, w in words for q in range(len(w))})
        assert F.nilpotent_index == _graph_nilpotency(F.D, I, J, F.m) == deg
        assert set(np.unique(np.concatenate([F.C.ravel(), F.D.ravel()]))) <= {0.0, 1.0}
        for k, piece in enumerate(_symbolic_terms(F, deg)):
            assert piece == P.map(lambda p: p.homogeneous_part(k))
        x = random_tuple(3, d, 0.9, 500 + trial)
        got = xfirst_to_blocks(eval_colligation(F, delta.eval(x)), x.n, k2, k1)
        assert np.abs(got - P.eval(x)).max() <= 1e-10
    assert merged  # some compile merged trie states with equal futures


def test_compiled_sum_of_powers_has_two_states_per_degree():
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    for k in range(1, 9):
        F = compile_polynomial((x1 + x2) ** k, diag_delta(2))
        assert F.m == 2 * k and F.nilpotent_index == k


def test_compiled_high_powers_evaluate_under_the_loop_cap():
    # (x1 + x2)^6 at n = 6 and (x1 + x2)^8 at n = 8 fit the loop cap, and
    # both routes of sharp agree within tol itself, not just its slack
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    delta = diag_delta(2)
    for k, n in ((6, 6), (8, 8)):
        P = (x1 + x2) ** k
        T = MatrixTuple([c * (1.5 / op_norm(c)) for c in
                         (random_matrix(n, n, task_rng(k, j)) for j in range(2))])
        params = CalcParams()
        rep = sharp(compile_polynomial(P, delta), delta, T, params)
        assert rep.ok
        agree = {c.name: c for c in rep.certificates}["two_path_agreement"]
        assert agree.lhs <= params.tol
        want = P.eval(T)
        assert op_norm(rep.value - want) <= 1e-10 * op_norm(want)


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
        with pytest.raises(ShapeError):
            xfirst_to_blocks(val[:-1], x.n, F.k2, F.k1)


def test_symbolic_terms_recover_graded_pieces():
    d = 2
    p = FreePoly(d, {(): 1.5, (1,): 2.0, (1, 2): -1.0, (2, 2): 0.5})
    F = poly_to_colligation(p, 1, 2)
    pieces = _symbolic_terms(F, p.degree())
    for k, piece in enumerate(pieces):
        assert piece.entry(0, 0) == p.homogeneous_part(k)
    # a constant colligation has nothing above degree zero
    const = _constant_model([[3.0]], 1, 1)
    pieces = _symbolic_terms(const, 2)
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


def _conjugated(F: Colligation, w) -> Colligation:
    """F with its state space conjugated by w: B kron(I_I, w), kron(I_J, w^-1) C
    and kron(I_J, w^-1) D kron(I_I, w)."""
    into = np.kron(np.eye(F.I), w)
    out = np.kron(np.eye(F.J), np.linalg.inv(w))
    return Colligation(F.A, F.B @ into, out @ F.C, out @ F.D @ into, F.I, F.J)


def test_state_space_conjugation_preserves_values():
    F = random_isometric(2, 2, 3, 2, 2, 57)
    y = _ball_point(2, 2, 2, 0.8, 605)
    val = eval_colligation(F, y)
    rng = task_rng(606, 0)
    q, _ = np.linalg.qr(random_matrix(3, 3, rng))
    G = _conjugated(F, q)
    assert np.allclose(eval_colligation(G, y), val, atol=1e-10)
    assert G.isometric_certified  # unitary conjugation keeps the certificate
    w = np.eye(3) + 0.5 * random_matrix(3, 3, rng)
    H = _conjugated(F, w)
    assert np.allclose(eval_colligation(H, y), val, atol=1e-8)


def test_nilpotency_detection():
    assert poly_to_colligation(FreePoly.letter(1, 1), 1, 1).nilpotent_index == 1
    assert _constant_model(np.eye(2), 1, 1).nilpotent_index == 0
    # a self-loop in the state graph defeats every nilpotency certificate
    loop = Colligation([[0.0]], [[1.0]], [[1.0]], [[0.9]], 1, 1)
    assert loop.nilpotent_index is None
    p = FreePoly(2, {(1, 2, 1): 1.0})
    assert poly_to_colligation(p, 1, 2).nilpotent_index == 3


def _state_graph_model(edges, m: int) -> Colligation:
    """A scalar model on m states whose D carries state v into u for each
    edge (v, u), and has no other nonzero entry."""
    D = np.zeros((m, m))
    for v, u in edges:
        D[u, v] = 1.0
    return Colligation([[0.0]], np.ones((1, m)), np.ones((m, 1)), D, 1, 1)


def test_nilpotency_index_is_computed_never_passed():
    # z / (1 - z) is not nilpotent, and no caller can claim that it is: its
    # evaluation at z = 1 meets the spectral guard, and sharp certifies no
    # finite tail for it
    with pytest.raises(TypeError):
        Colligation([[0.0]], [[1.0]], [[1.0]], [[1.0]], 1, 1, nilpotent_index=1)
    geometric = Colligation([[0.0]], [[1.0]], [[1.0]], [[1.0]], 1, 1)
    with pytest.raises(DomainError, match="spectral radius"):
        eval_colligation(geometric, np.array([[1.0]]))
    rep = sharp(geometric, row_delta(1), MatrixTuple([[[0.5]]]), CalcParams(s=1.0))
    assert rep.tail_bound is None
    assert "truncation_tail" not in {c.name for c in rep.certificates}
    # the index is the longest path of the D graph: two chains side by side
    # give the longer one's, a chain feeding the other gives the sum, and a
    # cycle in either gives none
    chains = [(0, 1), (1, 2), (3, 4)]  # 0 -> 1 -> 2 and 3 -> 4
    assert _state_graph_model(chains, 5).nilpotent_index == 3
    assert _state_graph_model(chains + [(2, 3)], 5).nilpotent_index == 5
    assert _state_graph_model(chains + [(4, 3)], 5).nilpotent_index is None
    # a state permutation keeps the graph acyclic; a dense conjugator does not
    F = poly_to_colligation(FreePoly(2, {(1, 2, 1): 1.0}), 1, 2)
    perm = np.eye(F.m)[::-1]
    assert _conjugated(F, perm).nilpotent_index == 3
    dense = np.eye(F.m) + 0.5 * random_matrix(F.m, F.m, task_rng(58, 0))
    assert _conjugated(F, dense).nilpotent_index is None


def test_decoded_large_model_finds_its_nilpotency():
    # all 128 two-letter words of length 7 with distinct coefficients: no two
    # trie states have equal futures, so the model keeps all 254 of them; the
    # decoded copy must read the index off the state graph alone, or sharp
    # falls back to a heuristic stop and the two evaluation paths disagree
    words = product((1, 2), repeat=7)
    p = FreePoly(2, {w: 1.0 + q / 128 for q, w in enumerate(words)})
    F = compile_polynomial(p, diag_delta(2))
    G = decode_colligation(encode(F))
    assert G.m == 254 and G.nilpotent_index == 7
    T = MatrixTuple([0.6 * np.eye(2), 0.3 * np.eye(2)])
    assert sharp(G, diag_delta(2), T, CalcParams()).ok


def test_outside_domain_raises():
    loop = Colligation([[0.0]], [[1.0]], [[1.0]], [[1.0]], 1, 1)
    with pytest.raises(DomainError):
        eval_colligation(loop, np.array([[1.0]]))
    # nilpotent systems evaluate everywhere, even far outside the unit ball
    p = FreePoly(1, {(1, 1): 1.0})
    F = poly_to_colligation(p, 1, 1)
    big = np.array([[50.0]])
    assert np.allclose(eval_colligation(F, big), [[2500.0]])
    # x^3 at y = a*I has ||K^-1|| ~ a^2: the bound 1 + a + a^2 settles a = 10,
    # and at a = 1e7 it exceeds the cap, so the SVD of K runs and refuses
    cube = poly_to_colligation(FreePoly(1, {(1, 1, 1): 1.0}), 1, 1)
    assert np.allclose(eval_colligation(cube, 10.0 * np.eye(2)), 1000.0 * np.eye(2))
    assert _resolvent_bound(cube.D_norm * 1e7, cube.nilpotent_index) > RESOLVENT_NORM_CAP
    with pytest.raises(DomainError, match="resolvent norm exceeds"):
        eval_colligation(cube, 1e7 * np.eye(2))


def _decomposition_guard_raises(F: Colligation, y: np.ndarray, L: np.ndarray) -> bool:
    """The resolvent guard by decompositions alone, on the dense loop matrix L:
    eigvals(L) unless the data is isometric with ||y|| < 1 or the loop is
    nilpotent, then the SVD of K = I - L against RESOLVENT_NORM_CAP."""
    if (not (F.isometric_certified and op_norm(y) < 1.0)
            and F.nilpotent_index is None and L.size):
        if np.abs(np.linalg.eigvals(L)).max() >= 1.0 - 1e-10:
            return True
    sv = np.linalg.svd(np.eye(L.shape[0]) - L, compute_uv=False)
    return bool(sv.size and (sv[-1] == 0.0 or 1.0 / sv[-1] > RESOLVENT_NORM_CAP))


def _gaussian_loop(I: int, J: int, m: int, seed: int) -> Colligation:
    """Gaussian blocks with ||D|| = 1: neither isometric nor nilpotent."""
    rng = task_rng(seed, 0)
    loop = random_matrix(J * m, I * m, rng)
    F = Colligation(random_matrix(1, 1, rng), random_matrix(1, I * m, rng),
                    random_matrix(J * m, 1, rng), loop / op_norm(loop), I, J)
    assert not F.isometric_certified and F.nilpotent_index is None
    return F


def test_resolvent_guard_matches_decomposition_oracle():
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    models = []
    for seed in range(3):
        models.append(random_isometric(2, 2, 2, 1, 1, 80 + seed))
        models.append(_gaussian_loop(2, 2, 3, 90 + seed))
    for p in ((x1 + x2) ** 3, x1 * x2 * x1 - 2.0 * x2 + 0.5):
        models.append(compile_polynomial(p, diag_delta(2)))
    # a row (1 x 2) and a column (2 x 1) arrangement, where the loop L on the
    # n*I*m states and (I_n (x) D) Y_M on the n*J*m states differ in size
    models += [random_isometric(1, 2, 2, 1, 1, 84), _gaussian_loop(1, 2, 2, 94),
               compile_polynomial(x1 * x2 - x2 * x1 + x1, row_delta(2)),
               random_isometric(2, 1, 2, 1, 3, 85), _gaussian_loop(2, 1, 2, 95)]
    cases = [(F, (0.3, 0.8, 0.99, 1.2, 2.5)) for F in models]
    # radii where the Frobenius bound ||D||_F ||y|| cannot settle a check
    # that the exact ||D|| ||y|| settles: the cap on a 13-state chain
    # (||D|| = 1, ||D||_F = sqrt(12)), and the spectral test on Gaussian loops
    chain = _state_graph_model([(u, u + 1) for u in range(12)], 13)
    cases.append((chain, (4.0, 5.0, 8.0)))
    for r in cases[-1][1]:
        frobenius = np.linalg.norm(chain.D) * r
        assert _resolvent_bound(frobenius, 13) > RESOLVENT_NORM_CAP
        assert _resolvent_bound(chain.D_norm * r, 13) <= RESOLVENT_NORM_CAP
    for seed in range(3):
        F = _gaussian_loop(2, 2, 3, 96 + seed)
        cases.append((F, (0.8, 0.9, 1.0 - 1e-9)))
        for r in cases[-1][1]:
            assert np.linalg.norm(F.D) * r >= 1.0 - 1e-10 > F.D_norm * r
    raised = kept = 0
    for idx, (F, radii) in enumerate(cases):
        for r in radii:
            y = _ball_point(2, F.I, F.J, r, 100 + idx)
            n, ym = 2, _states_oracle(y, F.I, F.J, F.m)
            L = ym @ ampliate(n, F.D)  # the matrix eval_colligation inverts
            exact = 1.0 / np.linalg.svd(np.eye(L.shape[0]) - L, compute_uv=False)[-1]
            bound = _resolvent_bound(F.D_norm * op_norm(y), F.nilpotent_index)
            assert bound >= exact * (1.0 - 1e-9)
            if _decomposition_guard_raises(F, y, L):
                with pytest.raises(DomainError):
                    eval_colligation(F, y)
                raised += 1
                continue
            got = eval_colligation(F, y)
            # the formula on the n*J*m states: checks the push-through identity
            G = ampliate(n, F.D) @ ym
            closed = ampliate(n, F.A) + ampliate(n, F.B) @ ym @ np.linalg.solve(
                np.eye(G.shape[0]) - G, ampliate(n, F.C))
            assert np.abs(got - closed).max() <= 1e-10 * max(1.0, np.abs(closed).max())
            kept += 1
    assert raised and kept  # both verdicts occur


def test_loop_dimension_is_capped_before_allocation():
    n, m = 100, 100  # N = n * m = 10000 > MAX_LOOP_DIM; D is zero, so cheap
    assert n * m > MAX_LOOP_DIM
    F = Colligation([[0.0]], np.ones((1, m)), np.ones((m, 1)), np.zeros((m, m)), 1, 1)
    y = np.eye(n)
    for run in (lambda: eval_colligation(F, y), lambda: next(homog_series(F, y))):
        with pytest.raises(DomainError, match=r"n=100, I=1, m=100 give N=10000 states, "
                                              r"1600000000 bytes"):
            run()


def test_point_shape_mismatch_raises():
    F = random_isometric(2, 2, 1, 1, 1, 3)
    with pytest.raises(ShapeError):
        eval_colligation(F, np.zeros((4, 6)))  # 4 rows not a 2-block square grid
