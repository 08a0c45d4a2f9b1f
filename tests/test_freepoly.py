import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from freecalc.errors import DomainError, ShapeError
from freecalc.freepoly import (
    FreePoly,
    PolyMatrix,
    compose_with_entries,
    diag_delta,
    e_lambda,
    gap_delta,
    lens_delta,
    row_delta,
    verify_separating_witnesses,
)
from freecalc.matrix_core import MatrixTuple, op_norm, random_tuple, task_rng

D = 2

words = st.lists(st.integers(1, D), min_size=0, max_size=3).map(tuple)
coeffs = st.integers(-3, 3).map(float)
polys = st.dictionaries(words, coeffs, max_size=5).map(lambda t: FreePoly(D, t))


def _point(seed_: int, n: int = 3) -> MatrixTuple:
    return random_tuple(n, D, 0.8, seed_)


@seed(20208)
@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p - p == FreePoly.zero(D)
    assert p * FreePoly.one(D) == p


@seed(20209)
@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 5))
def test_eval_is_a_homomorphism(p, q, which):
    x = _point(which)
    lhs = (p * q).eval(x)
    rhs = p.eval(x) @ q.eval(x)
    assert np.allclose(lhs, rhs, atol=1e-10)
    assert np.allclose((p + q).eval(x), p.eval(x) + q.eval(x), atol=1e-12)


def test_canonical_form_drops_zeros_and_merges():
    p = FreePoly(D, {(1,): 1.0, (2,): 0.0})
    assert p == FreePoly.letter(1, D)
    assert len(p) == 1
    q = FreePoly.letter(1, D) - FreePoly.letter(1, D)
    assert q.is_zero() and q.degree() == -1
    # x1*x2 != x2*x1: multiplication concatenates words, no commuting
    assert FreePoly.letter(1, D) * FreePoly.letter(2, D) != FreePoly.letter(
        2, D
    ) * FreePoly.letter(1, D)


def test_sorted_terms_order_is_length_then_lex():
    p = FreePoly(D, {(2,): 1.0, (1, 1): 2.0, (): 3.0, (1,): 4.0})
    assert [w for w, _ in p.sorted_terms()] == [(), (1,), (2,), (1, 1)]


def test_letter_bounds_checked():
    with pytest.raises(ShapeError):
        FreePoly.letter(0, 2)
    with pytest.raises(ShapeError):
        FreePoly.letter(3, 2)
    with pytest.raises(ShapeError):
        FreePoly.monomial((1, 5), 2)


def test_power_and_constants():
    x = FreePoly.letter(1, 1)
    p = (x + 1) ** 2
    assert p == x * x + 2 * x + FreePoly.one(1)
    assert (x**0) == FreePoly.one(1)
    with pytest.raises(ValueError):
        x ** (-1)


def test_homogeneous_parts_scaling():
    # p_k picks up exactly s^k under letter scaling
    p = FreePoly(D, {(): 2.0, (1,): -1.0, (2, 1): 3.0, (1, 1, 2): 0.5})
    parts = p.homogeneous_parts()
    assert sum(parts[1:], parts[0]) == p
    s = 0.3
    q = p.scale_letters(s)
    for k, part in enumerate(parts):
        assert q.homogeneous_part(k) == part.scale_letters(s)
    x = _point(11)
    sx = MatrixTuple([s * c for c in x.coords])
    assert np.allclose(q.eval(x), p.eval(sx), atol=1e-12)


def test_substitute_matches_numeric_composition():
    rng = task_rng(3, 7)
    p = FreePoly(D, {(1, 2): 1.0, (2,): -2.0, (): 0.5})
    h1 = FreePoly(D, {(1,): 1.0, (1, 1): 0.25})
    h2 = FreePoly(D, {(2,): 1.0, (): -0.5})
    composed = p.substitute([h1, h2])
    for k in range(5):
        x = _point(100 + k)
        y = MatrixTuple([h1.eval(x), h2.eval(x)])
        assert np.allclose(composed.eval(x), p.eval(y), atol=1e-10)
    # many terms whose images share words: equal to the term-by-term sum
    images = [h1, h2]
    q = (FreePoly.letter(1, D) - 2.0 * FreePoly.letter(2, D) + 0.5) ** 5
    want = FreePoly.zero(D)
    for w, c in q.sorted_terms():
        term = FreePoly.constant(c, D)
        for ell in w:
            term = term * images[ell - 1]
        want = want + term
    assert len(q) > 50 and q.substitute(images) == want
    del rng


def test_eval_rejects_wrong_alphabet():
    p = FreePoly.letter(1, 3)
    with pytest.raises(ShapeError):
        p.eval(_point(0))
    # The letter count is checked even where no entry has a word to evaluate.
    zero = FreePoly.zero(2)
    x3 = random_tuple(2, 3, 0.5, 0)
    with pytest.raises(ShapeError, match="3 coordinates"):
        PolyMatrix([[zero, zero], [zero, zero]]).eval(x3)
    with pytest.raises(ShapeError):
        zero.eval(x3)


def _per_word_eval(delta: PolyMatrix, x: MatrixTuple) -> np.ndarray:
    """Reference: every entry and every word multiplied out from scratch."""
    n = x.n
    blocks = []
    for row in delta.entries:
        blocks.append([])
        for p in row:
            acc = np.zeros((n, n), dtype=np.complex128)
            for w, c in p.sorted_terms():
                if not w:
                    acc += c * np.eye(n, dtype=np.complex128)
                    continue
                m = x.coords[w[0] - 1]
                for ell in w[1:]:
                    m = m @ x.coords[ell - 1]
                acc += c * m
            blocks[-1].append(acc)
    return np.block(blocks)


def _random_poly_matrix(rng, I: int, J: int, d: int) -> PolyMatrix:
    """Seeded entries: about a third zero, the rest with constants and shared prefixes."""
    stems = [tuple(int(ell) for ell in rng.integers(1, d + 1, size=3)) for _ in range(2)]
    rows = []
    for _ in range(I):
        row = []
        for _ in range(J):
            terms = {}
            if rng.uniform() > 1 / 3:
                for _ in range(int(rng.integers(1, 7))):
                    stem = stems[int(rng.integers(0, 2))][: int(rng.integers(0, 4))]
                    tail = rng.integers(1, d + 1, size=int(rng.integers(0, 3)))
                    word = stem + tuple(int(ell) for ell in tail)
                    terms[word] = complex(rng.standard_normal(), rng.standard_normal())
            row.append(FreePoly(d, terms))
        rows.append(row)
    return PolyMatrix(rows)


def test_polymatrix_eval_is_bitwise_the_per_word_sum():
    rng = task_rng(9, 1)
    for I, J, n in ((1, 1, 1), (1, 1, 3), (2, 3, 2), (3, 2, 4), (3, 3, 3)):
        for _ in range(4):
            delta = _random_poly_matrix(rng, I, J, 3)
            x = random_tuple(n, 3, 0.9, rng)
            got = delta.eval(x)
            assert got.shape == (I * n, J * n)
            assert got.tobytes() == _per_word_eval(delta, x).tobytes()
            p = delta.entry(0, 0)
            assert p.eval(x).tobytes() == _per_word_eval(PolyMatrix.from_poly(p), x).tobytes()
    for delta in (gap_delta(0.1), diag_delta(3), lens_delta()):
        x = random_tuple(3, delta.d, 0.9, 5)
        assert delta.eval(x).tobytes() == _per_word_eval(delta, x).tobytes()


def test_polymatrix_eval_is_blockwise():
    x = _point(4)
    delta = e_lambda(2, 2)
    # e_lambda needs 4 letters; feed a 4-coordinate point
    x4 = random_tuple(3, 4, 0.9, 21)
    v = delta.eval(x4)
    n = x4.n
    for i in range(2):
        for j in range(2):
            assert np.allclose(v[i * n : (i + 1) * n, j * n : (j + 1) * n],
                               x4.coords[i * 2 + j])
    assert delta.max_degree() == 1 and delta.vanishes_at_zero()
    del x


def test_polymatrix_shape_validation():
    x = FreePoly.letter(1, 1)
    with pytest.raises(ShapeError):
        PolyMatrix([[x], [x, x]])
    with pytest.raises(ShapeError):
        PolyMatrix([[x, FreePoly.letter(1, 2)]])
    m = PolyMatrix.from_poly(x)
    assert (m.I, m.J, m.entry(0, 0)) == (1, 1, x)
    assert PolyMatrix.from_poly(m) is m
    with pytest.raises(ShapeError, match="FreePoly or PolyMatrix"):
        PolyMatrix.from_poly([[x]])


def test_row_delta_norm_identity():
    # ||row(x)|| is the square root of || sum_j x_j x_j* ||
    d = 3
    delta = row_delta(d)
    for k in range(8):
        x = random_tuple(4, d, 1.1, 300 + k)
        v = delta.eval(x)
        gram = sum(c @ c.conj().T for c in x.coords)
        want = np.sqrt(np.linalg.eigvalsh(gram)[-1])
        assert op_norm(v) == pytest.approx(float(want), rel=1e-10)


def test_diag_delta_norm_is_max_coordinate():
    d = 4
    delta = diag_delta(d)
    x = random_tuple(3, d, 0.9, 17)
    assert op_norm(delta.eval(x)) == pytest.approx(
        max(op_norm(c) for c in x.coords), rel=1e-12
    )


def test_gap_delta_membership_frozen_value():
    eps = 0.1
    delta = gap_delta(eps)
    # the scalar pair (1, 1) satisfies yx = 1 exactly, so only the
    # coordinate blocks contribute: norm is 1/(1+eps)
    x = MatrixTuple([np.array([[1.0]]), np.array([[1.0]])])
    norm = op_norm(delta.eval(x))
    assert norm <= 1 - 1e-3
    assert norm == pytest.approx(0.9090909090909091, abs=1e-15)
    # scalar (2, 1/2) also inverts but the big coordinate expels it
    y = MatrixTuple([np.array([[2.0]]), np.array([[0.5]])])
    assert not op_norm(delta.eval(y)) <= 1 - 1e-3


def test_gap_delta_eps_range():
    for bad in (0.0, 0.2, 0.25, -0.1):
        with pytest.raises(DomainError):
            gap_delta(bad)


def test_lens_delta_contains_half_plus_small():
    delta = lens_delta()
    inside = MatrixTuple([np.array([[0.5 + 0.3j]])])
    assert op_norm(delta.eval(inside)) <= 1 - 1e-3
    outside = MatrixTuple([np.array([[1.7 + 0.0j]])])
    assert not op_norm(delta.eval(outside)) <= 1 - 1e-3


def test_compose_with_entries_and_witnesses():
    delta = diag_delta(2)
    # slot letters: entries row-major are (x1, 0, 0, x2) -> slots 1 and 4
    h1 = FreePoly.letter(1, 4)
    h2 = FreePoly.letter(4, 4)
    ok, details = verify_separating_witnesses(delta, [h1, h2])
    assert ok and all("recovered" in s for s in details)
    bad = FreePoly.letter(2, 4)  # a zero entry recovers nothing
    ok2, details2 = verify_separating_witnesses(delta, [h1, bad])
    assert not ok2 and "differs" in details2[1]
    with pytest.raises(ShapeError):
        verify_separating_witnesses(delta, [h1])


def test_compose_with_entries_shape_check():
    delta = row_delta(2)
    with pytest.raises(ShapeError):
        compose_with_entries(FreePoly.letter(1, 3), delta)
    # composing slot 2 with the row recovers the second coordinate
    got = compose_with_entries(FreePoly.letter(2, 2), delta)
    assert got == FreePoly.letter(2, 2)


def test_e_lambda_shapes_and_letters():
    delta = e_lambda(2, 3)
    assert (delta.I, delta.J, delta.d) == (2, 3, 6)
    for i in range(2):
        for j in range(3):
            assert delta.entry(i, j) == FreePoly.letter(i * 3 + j + 1, 6)
    with pytest.raises(ShapeError):
        e_lambda(0, 3)
