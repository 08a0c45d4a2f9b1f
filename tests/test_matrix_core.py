from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freecalc import matrix_core
from freecalc.errors import DomainError, ShapeError
from freecalc.matrix_core import (
    MatrixTuple,
    ampliate,
    compress,
    cyclic_shift,
    direct_sum,
    op_norm,
    random_matrix,
    random_tuple,
    shift_matrix,
    similarity,
    task_rng,
)


def _eig_norm(a: np.ndarray) -> float:
    """Independent spectral norm: sqrt of the top eigenvalue of A*A."""
    if a.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(w[-1], 0.0)))


def test_op_norm_matches_eigen_oracle():
    for seed in range(30):
        rng = task_rng(seed, 0)
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = random_matrix(rows, cols, rng)
        got = op_norm(a)
        want = _eig_norm(a)
        assert got == pytest.approx(want, rel=1e-10)


def test_op_norm_special_cases():
    assert op_norm(np.zeros((3, 3))) == 0.0
    assert op_norm(np.zeros((0, 4))) == 0.0
    assert op_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)
    # rank one: norm is the product of the factor lengths
    u = np.arange(1, 4, dtype=np.complex128)
    v = np.array([2.0, -1.0], dtype=np.complex128)
    a = np.outer(u, v)
    assert op_norm(a) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)


def test_op_norm_large_matrix_known_spectrum():
    # a large matrix with a known spectrum: the SVD must recover its norm
    rng = task_rng(99, 1)
    n = 530
    diag = np.linspace(0.1, 3.7, n)
    q, _ = np.linalg.qr(random_matrix(n, n, rng))
    a = (q * diag) @ q.conj().T  # singular values are |diag|
    assert op_norm(a) == pytest.approx(3.7, rel=1e-9)


def test_op_norm_rejects_non_finite():
    bad = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(DomainError):
        op_norm(bad)
    with pytest.raises(DomainError):
        matrix_core._norms_within(bad[None], 1.0)


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _screen_stacks() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(8)
    blocks = np.zeros((30, 6, 6), dtype=np.complex128)
    blocks[:, :2, :2], blocks[:, 2:, 2:] = _gaussian(rng, 30, 2, 2), _gaussian(rng, 30, 4, 4)
    one_column = np.zeros((30, 4, 4), dtype=np.complex128)  # its column is its norm
    one_column[:, :, 0] = _gaussian(rng, 30, 4)
    return {
        "random": _gaussian(rng, 40, 4, 4),
        "rectangular": _gaussian(rng, 30, 3, 7),
        "zero": np.zeros((3, 4, 4), dtype=np.complex128),
        "rank-one": _gaussian(rng, 30, 5, 1) @ _gaussian(rng, 30, 1, 5),
        "block-diagonal": blocks,
        "one-column": one_column,
    }


@pytest.mark.parametrize("name", list(_screen_stacks()))
def test_norms_within_keeps_every_svd_verdict(name):
    stack = _screen_stacks()[name]
    exact = matrix_core._op_norms(stack)
    near = np.array([-1e-13, -1e-15, 0.0, 1e-15, 1e-13])
    # the same matrices rescaled so that each norm lies within 1e-13 of 0.999
    scale = 0.999 * (1 + np.resize(near, exact.shape)) / np.where(exact > 0, exact, 1.0)
    cases = [(stack, b) for b in [0.0, 0.999, *np.quantile(exact, [0.25, 0.5, 1.0]),
                                  *(exact[:3, None] * (1 + near)).ravel()]]
    cases.append((scale[:, None, None] * stack, 0.999))
    screened = 0
    for s, bound in cases:
        want = matrix_core._op_norms(s)
        got = matrix_core._norms_within(s, bound)
        assert np.array_equal(got <= bound, want <= bound)
        kept = np.isfinite(got)
        assert got[kept].tobytes() == want[kept].tobytes()
        screened += int((~kept).sum())
    assert screened > 0 or name == "zero"


def test_matrix_tuple_validation():
    with pytest.raises(ShapeError):
        MatrixTuple([np.zeros((2, 3))])
    with pytest.raises(ShapeError):
        MatrixTuple([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(DomainError):
        MatrixTuple([np.array([[np.nan]])])
    with pytest.raises(ShapeError):
        MatrixTuple([np.zeros((0, 0))])
    with pytest.raises(ShapeError):
        MatrixTuple(np.zeros((2, 0, 0)))
    with pytest.raises(ShapeError):
        MatrixTuple([])
    with pytest.raises(ShapeError):
        MatrixTuple([[[1.0, 2.0], [3.0]]])
    with pytest.raises(DomainError):
        MatrixTuple([np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]])])


def test_matrix_tuple_is_one_read_only_copy():
    a = np.eye(2)
    stack = np.stack([a, 2 * a])
    x = MatrixTuple([a, 2 * a])
    y = MatrixTuple(stack)
    z = MatrixTuple(c for c in stack)
    a[0, 0] = 7.0
    stack[:] = 0.0
    assert x == y == z and x.coords[0, 0, 0] == 1.0 and y.coords[1, 0, 0] == 2.0
    assert isinstance(x.coords, np.ndarray)
    assert x.coords.shape == (2, 2, 2) and x.coords.dtype == np.complex128
    assert not x.coords.flags.writeable and not x.coords[0].flags.writeable
    with pytest.raises(ValueError):
        x.coords[0, 0, 0] = 3.0
    first, second = x.coords
    assert np.array_equal(first, np.eye(2)) and np.array_equal(second, 2 * np.eye(2))
    assert hash(x) == hash(y)
    signed = MatrixTuple([[[-0.0, 1.0], [0.0, 1.0]]])
    assert signed == MatrixTuple([[[0.0, 1.0], [0.0, 1.0]]])
    assert hash(signed) == hash(MatrixTuple([[[0.0, 1.0], [0.0, 1.0]]]))


def test_matrix_tuple_arithmetic_is_entrywise():
    rng = task_rng(5, 0)
    x = MatrixTuple([random_matrix(3, 3, rng) for _ in range(2)])
    w = 2.5 * x
    assert np.allclose(w.coords[1], 2.5 * x.coords[1])


def test_direct_sum_block_structure():
    rng = task_rng(6, 0)
    x = MatrixTuple([random_matrix(2, 2, rng) for _ in range(3)])
    y = MatrixTuple([random_matrix(3, 3, rng) for _ in range(3)])
    z = direct_sum(x, y)
    assert z.n == 5 and z.d == 3
    for c, a, b in zip(z.coords, x.coords, y.coords):
        assert np.allclose(c[:2, :2], a)
        assert np.allclose(c[2:, 2:], b)
        assert np.count_nonzero(c[:2, 2:]) == 0
        # norms: the direct sum takes the max
        assert op_norm(c) == pytest.approx(max(op_norm(a), op_norm(b)), rel=1e-12)


def test_ampliate_is_kron_with_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    got = ampliate(3, a)
    assert got.shape == (6, 6)
    assert np.array_equal(got, np.kron(np.eye(3), a))
    assert op_norm(got) == pytest.approx(op_norm(a), rel=1e-12)
    # bitwise np.kron's, signed zeros of 0 * a included, on every shape
    rng = task_rng(17, 0)
    parts = np.array([0.0, -0.0, 1.5, -2.0])
    for n, rows, cols in product((0, 1, 3), (0, 1, 2), (0, 1, 3)):
        a = rng.choice(parts, (rows, cols)) + 1j * rng.choice(parts, (rows, cols))
        want = np.kron(np.eye(n, dtype=np.complex128), a)
        got = ampliate(n, a)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_block_norm_dominates_entries():
    # the assembled norm is at least the norm of any single block
    for seed in range(20):
        rng = task_rng(seed, 3)
        rows = [int(rng.integers(1, 4)) for _ in range(2)]
        cols = [int(rng.integers(1, 4)) for _ in range(3)]
        blocks = [[random_matrix(r, c, rng) for c in cols] for r in rows]
        assembled = op_norm(np.block(blocks))
        worst = max(op_norm(b) for row in blocks for b in row)
        assert assembled >= worst - 1e-12


def test_similarity_conjugates_each_coordinate():
    rng = task_rng(7, 0)
    x = MatrixTuple([random_matrix(3, 3, rng) for _ in range(2)])
    s = random_matrix(3, 3, rng) + 2 * np.eye(3)
    y = similarity(s, x)
    si = np.linalg.inv(s)
    for a, b in zip(y.coords, x.coords):
        assert np.allclose(a, si @ b @ s, atol=1e-10)


def test_similarity_rejects_singular():
    x = MatrixTuple([np.eye(2, dtype=np.complex128)])
    with pytest.raises(DomainError):
        similarity(np.array([[1.0, 0.0], [0.0, 0.0]]), x)


def test_random_tuple_hits_target_norm():
    x = random_tuple(4, 3, 0.7, 123)
    norms = [op_norm(c) for c in x.coords]
    assert max(norms) == pytest.approx(0.7, rel=1e-12)
    # same seed, same tuple
    y = random_tuple(4, 3, 0.7, 123)
    assert x == y


def test_task_rng_streams_are_stable_and_distinct():
    a = task_rng(42, 1, 5).standard_normal(4)
    b = task_rng(42, 1, 5).standard_normal(4)
    c = task_rng(42, 1, 6).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _assert_seedsequence_streams(seed, prefix, keys):
    got = list(matrix_core._task_rngs(seed, prefix, keys))
    assert len(got) == len(keys)
    for rng, k in zip(got, keys):
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*prefix, k)))
        assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
        assert rng.integers(0, 2**63, 2).tobytes() == ref.integers(0, 2**63, 2).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


_WORD_EDGES = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40, 2**64 - 1, 2**64])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**140) | _WORD_EDGES,
       prefix=st.lists(st.integers(0, 2**70) | st.integers(0, 64) | _WORD_EDGES,
                       min_size=1, max_size=3).map(tuple),
       keys=st.lists(st.integers(0, 2**32 - 1) | _WORD_EDGES, max_size=6))
@example(seed=0, prefix=(3,), keys=[0, 2**32 - 1])
@example(seed=2**32 - 1, prefix=(0x0E,), keys=[0, 1, 2])
@example(seed=2**32, prefix=(0x30, 4), keys=[2**32, 2**40, 7])
@example(seed=2**64 + 5, prefix=(0x0E,), keys=[])
@example(seed=2**130 + 7, prefix=(2**40, 0, 2**32 - 1), keys=[2**32 - 1, 2**32])
def test_task_rngs_are_seedsequence_streams(seed, prefix, keys):
    _assert_seedsequence_streams(seed, prefix, keys)


def test_task_rngs_keep_order_across_blocks(monkeypatch):
    monkeypatch.setattr(matrix_core, "_SEED_BLOCK", 3)
    _assert_seedsequence_streams(5, (2,), [4, 0, 2**32, 9, 2**32 - 1, 3, 3, 1])


def test_task_rngs_refuse_what_seedsequence_refuses():
    for seed, prefix, key in [(-1, (0,), 0), (0, (-1,), 0), (0, (0,), -1)]:
        with pytest.raises(ValueError):
            list(matrix_core._task_rngs(seed, prefix, [key]))
        with pytest.raises(ValueError):
            task_rng(seed, *prefix, key)
    with pytest.raises(TypeError):
        list(matrix_core._task_rngs(0, (0,), [1.0]))


def test_shift_matrices():
    s = shift_matrix(4)
    assert np.count_nonzero(s) == 3
    assert np.allclose(np.linalg.matrix_power(s, 4), 0)
    c = cyclic_shift(4)
    assert np.allclose(c.conj().T @ c, np.eye(4))
    assert np.allclose(np.linalg.matrix_power(c, 4), np.eye(4))
    # the corner of the cyclic shift is the truncated one
    assert np.array_equal(compress(c, 3), shift_matrix(3))


def test_compress_bounds():
    a = random_matrix(5, 5, task_rng(0, 0))
    assert np.array_equal(compress(a, 5), a)
    with pytest.raises(ShapeError):
        compress(a, 6)
    with pytest.raises(ShapeError):
        compress(np.zeros((2, 3)), 1)
