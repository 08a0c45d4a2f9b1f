"""Dense complex linear-algebra substrate.

The validated immutable point type (MatrixTuple) plus the structural
operations the rest of the package is built from: operator norms,
ampliation, direct sums, similarity transforms, and seeded random
sampling.  Matrices are plain complex numpy arrays throughout.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "MatrixTuple",
    "as_array",
    "op_norm",
    "direct_sum",
    "ampliate",
    "similarity",
    "rng_from",
    "task_rng",
    "random_matrix",
    "random_tuple",
]

# Smallest singular value below this times the largest counts as singular.
SINGULAR_RTOL = 1e-12


def _check_finite(a: np.ndarray, what: str = "matrix") -> None:
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError(f"{what} entries must be finite (found NaN or Inf)")


def as_array(m) -> np.ndarray:
    """Coerce a matrix-like object to a 2-D complex128 array (no copy if possible)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got an array of ndim={a.ndim}")
    return a


class MatrixTuple:
    """A point of the matrix universe: ``d`` square complex matrices of one size.

    Coordinate access is 0-based through ``coords``; the letter ``x^j`` of a
    free polynomial (1-based) evaluates to ``coords[j-1]``.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Iterable):
        mats = []
        for k, c in enumerate(coords):
            a = np.array(c, dtype=np.complex128, copy=True)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeError(f"coordinate {k} is not a square matrix")
            if a.shape[0] == 0:
                raise ShapeError(f"coordinate {k} is 0x0; a level is at least 1")
            _check_finite(a, f"coordinate {k}")
            a.setflags(write=False)
            mats.append(a)
        if not mats:
            raise ShapeError("a MatrixTuple needs at least one coordinate")
        n = mats[0].shape[0]
        for k, a in enumerate(mats):
            if a.shape[0] != n:
                raise ShapeError(
                    f"coordinate {k} is {a.shape[0]}x{a.shape[1]}, expected {n}x{n}"
                )
        self._coords = tuple(mats)

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        return self._coords

    @property
    def n(self) -> int:
        """Matrix size (the level of the point)."""
        return self._coords[0].shape[0]

    @property
    def d(self) -> int:
        """Number of coordinates."""
        return len(self._coords)

    def __mul__(self, c) -> "MatrixTuple":
        c = complex(c)
        return MatrixTuple(c * a for a in self._coords)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return (self.d == other.d and self.n == other.n
                and all(np.array_equal(a, b) for a, b in zip(self._coords, other._coords)))

    def __hash__(self):
        return hash(tuple(a.tobytes() for a in self._coords))

    def __repr__(self):
        return f"MatrixTuple(d={self.d}, n={self.n})"


def op_norm(m) -> float:
    """Operator (spectral) norm of a dense complex matrix, by full SVD.

    The SVD runs at every size: an iterative estimate such as power
    iteration approaches the norm from below, the unsafe side of every
    ``lhs <= rhs`` certificate.
    """
    a = as_array(m)
    _check_finite(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    """Coordinatewise block-diagonal direct sum of two tuples."""
    if x.d != y.d:
        raise ShapeError(
            f"incompatible tuples: {x.d} coordinates vs {y.d}"
        )
    coords = []
    for a, b in zip(x.coords, y.coords):
        c = np.zeros((x.n + y.n, x.n + y.n), dtype=np.complex128)
        c[: x.n, : x.n] = a
        c[x.n :, x.n :] = b
        coords.append(c)
    return MatrixTuple(coords)


def ampliate(n: int, a) -> np.ndarray:
    """Tensor a matrix with the identity on an n-dimensional outer slot: I_n (x) A."""
    if n < 0:
        raise ShapeError("ampliation size must be nonnegative")
    return np.kron(np.eye(n, dtype=np.complex128), as_array(a))


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


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Standard complex Gaussian matrix (unit-variance complex entries)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


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
    rng = rng_from(seed)
    coords = [random_matrix(n, n, rng) for _ in range(d)]
    peak = max(op_norm(c) for c in coords)
    if peak == 0.0:
        raise DomainError("degenerate random draw; cannot rescale zero tuple")
    scale = target_norm / peak
    return MatrixTuple(scale * c for c in coords)
