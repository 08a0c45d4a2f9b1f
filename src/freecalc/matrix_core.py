"""Dense complex linear-algebra substrate.

The validated immutable point type (MatrixTuple) plus the structural
operations the rest of the package is built from: operator norms,
ampliation, direct sums, similarity transforms, and seeded random
sampling.  Matrices are plain complex numpy arrays throughout.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import islice, pairwise
from typing import Iterable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "MatrixTuple",
    "op_norm",
    "direct_sum",
    "ampliate",
    "similarity",
    "rng_from",
    "task_rng",
    "random_matrix",
    "shift_matrix",
    "cyclic_shift",
    "compress",
    "random_tuple",
]

# Smallest singular value below this times the largest counts as singular.
SINGULAR_RTOL = 1e-12
# Relative margin by which a cheap norm bound must clear its threshold before
# it settles a check without an SVD: far beyond SVD and summation roundoff.
_SCREEN_MARGIN = 1e-10


def _check_finite(a: np.ndarray, what: str = "matrix") -> None:
    if a.size and not np.isfinite(a).all():
        raise DomainError(f"{what} entries must be finite (found NaN or Inf)")


def as_array(m) -> np.ndarray:
    """Coerce a matrix-like object to a 2-D complex128 array (no copy if possible)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got an array of ndim={a.ndim}")
    return a


class MatrixTuple:
    """A point of the matrix universe: ``d`` square complex matrices of one size.

    The coordinates are one read-only ``(d, n, n)`` array copied from the
    input.  Coordinate access is 0-based through ``coords``; the letter
    ``x^j`` of a free polynomial (1-based) evaluates to ``coords[j-1]``.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable):
        try:
            stack = np.array(list(coords), dtype=np.complex128)
        except ValueError as exc:
            raise ShapeError(f"coordinates do not form a (d, n, n) array: {exc}") from None
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
            raise ShapeError(
                "a MatrixTuple needs at least one square matrix, all n x n with "
                f"n >= 1; got coordinates of shape {stack.shape}"
            )
        _check_finite(stack, "coordinate")
        stack.setflags(write=False)
        self._coords = stack

    @property
    def coords(self) -> np.ndarray:
        """The read-only ``(d, n, n)`` stack of coordinates."""
        return self._coords

    @property
    def n(self) -> int:
        """Matrix size (the level of the point)."""
        return self._coords.shape[1]

    @property
    def d(self) -> int:
        """Number of coordinates."""
        return self._coords.shape[0]

    def __mul__(self, c) -> "MatrixTuple":
        return MatrixTuple(complex(c) * self._coords)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return np.array_equal(self._coords, other._coords)

    def __hash__(self):
        # Adding 0 turns -0.0 into 0.0, which __eq__ treats as equal.
        return hash((self._coords + 0).tobytes())

    def __repr__(self):
        return f"MatrixTuple(d={self.d}, n={self.n})"


def op_norm(m) -> float:
    """Operator (spectral) norm of a dense complex matrix, by full SVD.

    The SVD runs at every size: an iterative estimate such as power
    iteration approaches the norm from below, the unsafe side of every
    ``lhs <= rhs`` certificate.
    """
    a = as_array(m)
    if a.size == 0:
        return 0.0
    return float(_op_norms(a))


def _op_norms(stack: np.ndarray) -> np.ndarray:
    """Operator norms of a ``(..., rows, cols)`` stack of nonempty matrices.

    One full SVD per matrix (``compute_uv=False``), the same LAPACK call
    whether the stack holds one matrix or many, so each norm is bitwise what
    ``op_norm`` gives for that matrix alone.
    """
    _check_finite(stack)
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _column_floor(stack: np.ndarray) -> np.ndarray:
    """The longest column of each matrix of a ``(..., rows, cols)`` stack: a
    lower bound of its operator norm."""
    return np.sqrt((stack.real**2 + stack.imag**2).sum(axis=-2).max(axis=-1))


def _first_within(stack: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row of a ``(rows, k, r, c)`` stack, the index of its first
    matrix with operator norm at most ``bound``, or -1 if it has none, and
    that matrix's ``_op_norms`` value (``inf`` where the index is -1).

    The search runs round by round, matrix 0 of every row first.  A matrix
    whose ``_column_floor`` exceeds ``bound`` by a relative 1e-10, far beyond
    SVD roundoff, is outside without an SVD.  Round j sends to one
    ``_op_norms`` call, in row order, the j-th matrix of every row still
    searching that the screen left undecided, and a round with none makes
    no call.  So the SVD sees exactly the matrices a one-row-at-a-time
    search with this screen reads, every verdict is the SVD's, and every
    returned norm is bitwise ``_op_norms``' for its matrix alone.

    The whole stack is checked finite first, so a non-finite matrix raises
    ``DomainError`` even when it comes after its row's first match.
    """
    _check_finite(stack)
    undecided = _column_floor(stack) <= bound * (1.0 + _SCREEN_MARGIN)
    first, norms = np.full(len(stack), -1), np.full(len(stack), np.inf)
    searching = np.ones(len(stack), dtype=bool)
    for j in range(stack.shape[1]):
        read = np.flatnonzero(searching & undecided[:, j])
        if read.size:
            found = _op_norms(stack[read, j])
            inside = found <= bound
            hit = read[inside]
            first[hit], norms[hit], searching[hit] = j, found[inside], False
    return first, norms


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    """Coordinatewise block-diagonal direct sum of two tuples."""
    if x.d != y.d:
        raise ShapeError(
            f"incompatible tuples: {x.d} coordinates vs {y.d}"
        )
    stack = np.zeros((x.d, x.n + y.n, x.n + y.n), dtype=np.complex128)
    stack[:, : x.n, : x.n] = x.coords
    stack[:, x.n :, x.n :] = y.coords
    return MatrixTuple(stack)


def ampliate(n: int, a) -> np.ndarray:
    """Tensor a matrix with the identity on an n-dimensional outer slot: I_n (x) A.

    One broadcast product, the complex products np.kron takes, so the result
    is bitwise np.kron's, signed zeros included.
    """
    if n < 0:
        raise ShapeError("ampliation size must be nonnegative")
    a = as_array(a)
    eye = np.eye(n, dtype=np.complex128)
    return (eye[:, None, :, None] * a[None, :, None, :]).reshape(n * a.shape[0], n * a.shape[1])


def similarity(s, x: MatrixTuple) -> MatrixTuple:
    """Coordinatewise conjugation s^{-1} x s by an invertible matrix."""
    a = as_array(s)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("similarity matrix must be square")
    if a.shape[0] != x.n:
        raise ShapeError(f"similarity matrix is {a.shape[0]}x{a.shape[1]}, tuple level is {x.n}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] < SINGULAR_RTOL * sv[0] or sv[-1] == 0.0:
        raise DomainError(
            "similarity matrix is numerically singular "
            f"(smallest singular value {sv[-1]:.3e} vs norm {sv[0]:.3e})"
        )
    return MatrixTuple(np.linalg.solve(a, c @ a) for c in x.coords)


def rng_from(seed) -> np.random.Generator:
    """A Generator from an int seed, or pass an existing Generator through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def task_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-task generator derived from a root seed and a key.

    Tasks seeded this way are independent of how many sibling tasks run and
    of execution order, which is what makes parallel runs reproduce serial
    ones exactly.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# numpy's SeedSequence: its pool size and the published hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# Keys hashed per array pass of _task_rngs, so its arrays stay small however
# many keys a caller walks through.
_SEED_BLOCK = 4096


@functools.cache
def _seed_words_type() -> type:
    """An ISeedSequence that hands PCG64 the four uint64 words it asks for,
    already computed.  Made on first use: numpy loads ``numpy.random`` only
    when it is first touched, and ``import freecalc`` leaves it unloaded."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _words(n) -> list[int]:
    """An int as SeedSequence reads it: 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` values of a SeedSequence running hash constant."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashmix(value, before, after):
    """SeedSequence's ``hashmix`` (or a ``generate_state`` word), given the
    running constant before and after the call advances it; on Python ints
    or on broadcasting uint32 arrays."""
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _pcg64_words(head: list[int], keys: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for the entropy ``head``
    followed by one key, for every key of a uint32 array: a ``(keys, 4)`` array.

    ``head`` holds 32-bit Python ints: the run entropy padded to the pool
    size, then the prefix words.  So the key, the last word, only enters
    after the pool is filled and mixed, and the hash constants advance the
    same way whatever the data.  Everything before the key runs once on
    Python ints; the key's four mixes and the eight state words each run as
    one array operation over all keys.
    """
    # one (before, after) pair per hashmix: four per word of head, four for the key
    steps = pairwise(_hash_consts(_INIT_A, _MULT_A, 4 * len(head) + 5))
    pool = [_hashmix(word, *next(steps)) for word in head[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in head[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(steps)))
    last = np.array(list(steps), dtype=np.uint32)  # one (before, after) per pool word
    pool = _mix(np.array(pool, dtype=np.uint32), _hashmix(keys[:, None], last[:, 0], last[:, 1]))
    b = np.array(_hash_consts(_INIT_B, _MULT_B, 9), dtype=np.uint32)
    state = _hashmix(np.tile(pool, 2), b[:-1], b[1:]).astype(np.uint64)
    # little-endian word pairs, as SeedSequence's view of its uint32 state
    return state[:, 0::2] | state[:, 1::2] << 32


def _task_rngs(seed: int, prefix: tuple[int, ...], keys):
    """Yield, for each k of ``keys``, a generator with the stream of
    ``task_rng(seed, *prefix, k)``: the same draws and the same PCG64 state.

    The SeedSequence hash runs once per block of keys, on a uint32 array of
    them, and each generator is a PCG64 seeded with its precomputed words: a
    few microseconds per key where ``task_rng`` builds a SeedSequence.  Such
    a generator has no SeedSequence to ``spawn`` from.  A key of 2**32 or
    more takes several words in SeedSequence and goes through ``task_rng``
    itself.
    """
    head = _words(seed)
    head += [0] * (_POOL_SIZE - len(head))
    for p in prefix:
        head += _words(p)
    seed_words, keys = _seed_words_type(), iter(keys)
    while block := [operator.index(k) for k in islice(keys, _SEED_BLOCK)]:
        rows = iter(_pcg64_words(
            head, np.array([k for k in block if 0 <= k <= _MASK32], dtype=np.uint32)))
        for k in block:
            if 0 <= k <= _MASK32:
                yield np.random.Generator(np.random.PCG64(seed_words(next(rows))))
            else:
                yield task_rng(seed, *prefix, k)


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix (unit-variance complex entries)."""
    return _complex_gaussian(rng.standard_normal((2, rows, cols)))


def _complex_gaussian(normals: np.ndarray) -> np.ndarray:
    """Standard complex Gaussian matrices from a ``(..., 2, rows, cols)`` array
    of standard normals: index 0 of the axis of two holds the real parts and
    index 1 the imaginary parts, drawn in that order.  One draw of
    ``(d, 2, n, n)`` normals gives, bit for bit, the d matrices of d
    successive ``random_matrix(n, n, rng)`` calls."""
    return (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / math.sqrt(2.0)


def shift_matrix(n: int) -> np.ndarray:
    """Nilpotent shift: e_k -> e_(k+1), e_n -> 0 (ones on the first subdiagonal)."""
    s = np.zeros((n, n), dtype=np.complex128)
    for k in range(n - 1):
        s[k + 1, k] = 1.0
    return s


def cyclic_shift(n: int) -> np.ndarray:
    """Circulant shift: e_k -> e_(k+1 mod n); unitary, with S* S = I exactly."""
    s = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        s[(k + 1) % n, k] = 1.0
    return s


def compress(a, n: int) -> np.ndarray:
    """Leading principal n x n compression of a square matrix."""
    arr = as_array(a)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeError("compression needs a square matrix")
    if not 1 <= n <= arr.shape[0]:
        raise ShapeError(f"compression size {n} outside 1..{arr.shape[0]}")
    return arr[:n, :n].copy()


def random_tuple(n: int, d: int, target_norm: float, seed) -> MatrixTuple:
    """Seeded random tuple rescaled so that max_j ||x^j|| equals target_norm."""
    if target_norm <= 0:
        raise DomainError("target_norm must be positive")
    stack = _complex_gaussian(rng_from(seed).standard_normal((d, 2, n, n)))
    return MatrixTuple(_rescaled_to_peak(stack, np.float64(target_norm)))


def _rescaled_to_peak(stack: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Scale each ``(d, n, n)`` point of a ``(..., d, n, n)`` stack so that
    its largest coordinate norm equals its entry of ``targets``."""
    peaks = _op_norms(stack).max(axis=-1)
    if not peaks.all():
        raise DomainError("degenerate random draw; cannot rescale zero tuple")
    return (targets / peaks)[..., None, None, None] * stack
