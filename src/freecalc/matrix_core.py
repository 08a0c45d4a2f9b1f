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
    stack = np.zeros((x.d, x.n + y.n, x.n + y.n), dtype=np.complex128)
    stack[:, : x.n, : x.n] = x.coords
    stack[:, x.n :, x.n :] = y.coords
    return MatrixTuple(stack)


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
    stack = np.array([random_matrix(n, n, rng) for _ in range(d)])
    peak = max(op_norm(c) for c in stack)
    if peak == 0.0:
        raise DomainError("degenerate random draw; cannot rescale zero tuple")
    return MatrixTuple((target_norm / peak) * stack)
