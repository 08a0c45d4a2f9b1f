"""Colligation realizations and their linear-fractional evaluation.

A colligation is a block operator

    V = [A B; C D] : K1 (+) M^(I)  ->  K2 (+) M^(J)

with K1, K2, M finite-dimensional.  Against an nI x nJ block point Y
(typically Y = delta(x) for an I x J polynomial matrix delta) it defines the
function

    F(Y) = (I_n (x) A) + (I_n (x) B) Y_M [ I - (I_n (x) D) Y_M ]^{-1} (I_n (x) C)

where Y_M is Y with the auxiliary space M tensored into each block slot.
Y_M and I_n (x) B, I_n (x) D are applied in factored form, never formed:
every route contracts one (block, point) view of Y against the slot views
of B, C and D.  The closed form builds G = (I_n (x) D) Y_M and K = I - G on
the n*J*m state space; the series builds the n*I*m loop operator
Y_M (I_n (x) D) once and takes one product per term.  Only I_n (x) A (the
constant part of a value) and I_n (x) C (the right-hand side of the one
linear solve, the size of its solution) are formed.

Values are (n*k2) x (n*k1) matrices in outer-point-first ordering: an n x n
grid of k2 x k1 blocks, so a scalar-valued colligation (k1 = k2 = 1) returns
a plain n x n matrix.  When V is an isometry and ||Y|| < 1 the Neumann series
of the inverse converges with the k-th homogeneous term bounded by ||Y||^k,
which is what every truncation certificate in this package leans on.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, ShapeError
from .freepoly import FreePoly, PolyMatrix
from .matrix_core import ampliate, as_array, op_norm, random_matrix, rng_from

__all__ = [
    "Colligation",
    "eval_colligation",
    "homog_series",
    "homog_extract_dft",
    "dft_points_for",
    "add_colligations",
    "multiply_colligations",
    "scale_colligation",
    "poly_to_colligation",
    "symbolic_terms",
    "random_isometric",
    "state_space_conjugate",
    "constant_colligation",
    "coordinate_colligation",
    "identity_colligation",
    "xfirst_to_blocks",
    "blocks_to_xfirst",
    "xfirst_direct_sum",
]

ISOMETRY_TOL = 1e-8
RESOLVENT_NORM_CAP = 1e12
_SPECTRAL_SLACK = 1e-10
_NILPOTENCY_SCAN_CAP = 128


class Colligation:
    """Immutable block system matrix with validated shapes.

    Shapes: A is k2 x k1, B is k2 x (I*m), C is (J*m) x k1, D is (J*m) x (I*m).
    Columns of B and rows of C/D are ordered copy-major: slot (i, state) maps
    to index i*m + state.  ``isometric_certified`` is computed, not trusted:
    it is True exactly when the assembled block [A B; C D] satisfies
    ||V*V - I|| <= ISOMETRY_TOL.
    """

    __slots__ = ("_A", "_B", "_C", "_D", "_I", "_J", "_m", "_defect",
                 "_nilpotent_index", "_nilpotency_checked")

    def __init__(self, A, B, C, D, I: int, J: int,
                 nilpotent_index: int | None = None):
        if I < 1 or J < 1:
            raise ShapeError("block shape (I, J) must be positive")
        A = _frozen(np.array(as_array(A), copy=True))
        B = _frozen(np.array(as_array(B), copy=True))
        C = _frozen(np.array(as_array(C), copy=True))
        D = _frozen(np.array(as_array(D), copy=True))
        k2, k1 = A.shape
        if B.shape[0] != k2:
            raise ShapeError(f"B has {B.shape[0]} rows, expected k2={k2}")
        if B.shape[1] % I != 0:
            raise ShapeError(f"B has {B.shape[1]} columns, not a multiple of I={I}")
        m = B.shape[1] // I
        if C.shape != (J * m, k1):
            raise ShapeError(f"C is {C.shape[0]}x{C.shape[1]}, expected {J * m}x{k1}")
        if D.shape != (J * m, I * m):
            raise ShapeError(f"D is {D.shape[0]}x{D.shape[1]}, expected {J * m}x{I * m}")
        for name, a in (("A", A), ("B", B), ("C", C), ("D", D)):
            if a.size and not np.all(np.isfinite(a)):
                raise DomainError(f"block {name} has non-finite entries")
        self._A, self._B, self._C, self._D = A, B, C, D
        self._I, self._J, self._m = I, J, m
        v = np.block([[A, B], [C, D]])
        gram = v.conj().T @ v - np.eye(v.shape[1])
        self._defect = op_norm(gram) if gram.size else 0.0
        self._nilpotent_index = nilpotent_index
        self._nilpotency_checked = nilpotent_index is not None

    # --- fields -------------------------------------------------------------

    @property
    def A(self) -> np.ndarray:
        return self._A

    @property
    def B(self) -> np.ndarray:
        return self._B

    @property
    def C(self) -> np.ndarray:
        return self._C

    @property
    def D(self) -> np.ndarray:
        return self._D

    @property
    def I(self) -> int:  # noqa: E743
        return self._I

    @property
    def J(self) -> int:
        return self._J

    @property
    def m(self) -> int:
        return self._m

    @property
    def k1(self) -> int:
        return self._A.shape[1]

    @property
    def k2(self) -> int:
        return self._A.shape[0]

    @property
    def isometry_defect(self) -> float:
        return self._defect

    @property
    def isometric_certified(self) -> bool:
        return self._defect <= ISOMETRY_TOL

    @property
    def nilpotent_index(self) -> int | None:
        """Smallest q with (D Y_M)^q = 0 for every Y, or None if there is none.

        Detected from the state-transition graph of D: the loop D -> Y -> D
        can only follow its edges, so an acyclic graph makes every such loop
        nilpotent regardless of Y.  Compiled polynomial colligations set this
        at construction; anything else gets a one-time scan.
        """
        if not self._nilpotency_checked:
            self._nilpotent_index = _graph_nilpotency(self._D, self._I, self._J, self._m)
            self._nilpotency_checked = True
        return self._nilpotent_index

    def __repr__(self):
        return (f"Colligation(k1={self.k1}, k2={self.k2}, I={self._I}, "
                f"J={self._J}, m={self._m}, isometric={self.isometric_certified})")

    def __eq__(self, other):
        if not isinstance(other, Colligation):
            return NotImplemented
        return (self._I == other._I and self._J == other._J and self._m == other._m
                and np.array_equal(self._A, other._A) and np.array_equal(self._B, other._B)
                and np.array_equal(self._C, other._C) and np.array_equal(self._D, other._D))


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError("colligation blocks must be 2-D")
    a.setflags(write=False)
    return a


def _graph_nilpotency(D: np.ndarray, I: int, J: int, m: int) -> int | None:
    """Nilpotency index of the state-transition graph of D, or None."""
    if m == 0:
        return 0
    if m > _NILPOTENCY_SCAN_CAP:
        return None
    d4 = D.reshape(J, m, I, m)
    adj = (np.abs(d4).max(axis=(0, 2)) > 0.0)  # state -> state reachability
    reach = adj.copy()
    for q in range(1, m + 1):
        if not reach.any():
            return q
        reach = reach @ adj
    return None


# --- evaluation ----------------------------------------------------------------
#
# Index layout.  The point is read as y4[i, a, j, b] = (block (i, j) of y)[a, b],
# and the slot views as b3[p, i, u], c3[j, u, q], d4[j, u, i, v] (see _b3/_c3/_d4).
# Y_M has entries Y_M[(a, i, u), (b, j, v)] = y4[i, a, j, b] * delta(u, v), and
# I_n (x) X acts on the point index a alone.  Every product below is contracted
# from these views.


def _b3(F: Colligation) -> np.ndarray:
    return F.B.reshape(F.k2, F.I, F.m)


def _c3(F: Colligation) -> np.ndarray:
    return F.C.reshape(F.J, F.m, F.k1)


def _d4(F: Colligation) -> np.ndarray:
    return F.D.reshape(F.J, F.m, F.I, F.m)


def _point_blocks(F: Colligation, y) -> np.ndarray:
    """The nI x nJ point as y4[i, a, j, b], checked against F's block grid."""
    a = as_array(y)
    if a.shape[0] % F.I != 0 or a.shape[1] % F.J != 0:
        raise ShapeError(
            f"point is {a.shape[0]}x{a.shape[1]}, not an {F.I}x{F.J} grid of square blocks"
        )
    n = a.shape[0] // F.I
    if a.shape[1] // F.J != n:
        raise ShapeError(
            f"point blocks are {n}x{a.shape[1] // F.J}, expected square"
        )
    return a.reshape(F.I, n, F.J, n)


def _apply_b(F: Colligation, w: np.ndarray, n: int) -> np.ndarray:
    """(I_n (x) B) w for w with rows (a, i, u) and n*k1 columns."""
    return (F.B @ w.reshape(n, F.I * F.m, n * F.k1)).reshape(n * F.k2, n * F.k1)


def _check_resolvent_admissible(F: Colligation, y: np.ndarray, G: np.ndarray) -> None:
    """Guard the Neumann inversion: isometric + strict contraction is enough,
    a nilpotent loop is always fine, otherwise the spectral radius decides."""
    if F.isometric_certified and op_norm(y) < 1.0:
        return
    if F.nilpotent_index is not None:
        return
    if G.size == 0:
        return
    rho = float(np.abs(np.linalg.eigvals(G)).max())
    if rho >= 1.0 - _SPECTRAL_SLACK:
        raise DomainError(
            f"point outside the domain of convergence: loop spectral radius {rho:.6f}"
        )


def eval_colligation(F: Colligation, y) -> np.ndarray:
    """Linear-fractional value of the colligation at an nI x nJ block point."""
    y4 = _point_blocks(F, y)
    n, N = y4.shape[1], y4.shape[1] * F.J * F.m
    # G = (I_n (x) D) Y_M, rows (a, j, u) and columns (b, j', v)
    G = np.einsum("juiv,iakb->ajubkv", _d4(F), y4, optimize=True).reshape(N, N)
    _check_resolvent_admissible(F, y4.reshape(F.I * n, F.J * n), G)
    K = -G
    K[np.diag_indices(N)] += 1.0
    sv = np.linalg.svd(K, compute_uv=False)
    if sv.size and (sv[-1] == 0.0 or 1.0 / sv[-1] > RESOLVENT_NORM_CAP):
        raise DomainError(
            "point outside the domain of convergence: resolvent norm exceeds "
            f"{RESOLVENT_NORM_CAP:.0e}"
        )
    R = np.linalg.solve(K, ampliate(n, F.C)).reshape(n, F.J, F.m, n * F.k1)
    w = np.einsum("iajb,bjuc->aiuc", y4, R, optimize=True)  # Y_M R
    return ampliate(n, F.A) + _apply_b(F, w, n)


def homog_series(F: Colligation, y):
    """Yield (k, P_k(y)) for k = 0, 1, 2, ... lazily.

    P_0 is the ampliated constant block and
    P_k(y) = (I_n (x) B) L^(k-1) Y_M (I_n (x) C) with the loop operator
    L = Y_M (I_n (x) D), formed once.  The generator never checks
    convergence; callers own the stopping rule.
    """
    y4 = _point_blocks(F, y)
    n, N = y4.shape[1], y4.shape[1] * F.I * F.m
    yield 0, ampliate(n, F.A)
    # L has rows (a, i, u) and columns (b, i', v); w = Y_M (I_n (x) C) has
    # rows (a, i, u) and columns (b, q).
    L = np.einsum("iajb,juxv->aiubxv", y4, _d4(F), optimize=True).reshape(N, N)
    w = np.einsum("iajb,juq->aiubq", y4, _c3(F), optimize=True).reshape(N, n * F.k1)
    k = 1
    while True:
        yield k, _apply_b(F, w, n)
        w = L @ w
        k += 1


def dft_points_for(k: int, t: float, tol: float) -> int:
    """Smallest certified angle count for degree-k extraction at radius t.

    For an isometric colligation the aliasing error of an N-point average is
    below t^(N-k)/(1-t), so N >= k + ceil(log(tol*(1-t))/log t) pushes it
    under tol.  Requires t < 1.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError("certified extraction needs a point with norm below 1")
    if tol <= 0:
        raise DomainError("tol must be positive")
    if t == 0.0:
        return k + 1
    extra = math.ceil(math.log(tol * (1.0 - t)) / math.log(t))
    return max(k + 1, k + extra)


def homog_extract_dft(F: Colligation, y, k: int, n_angles: int) -> np.ndarray:
    """Extract the degree-k term by averaging evaluations over scaled points.

    Computes (1/N) * sum_j e^(-2 pi i j k / N) F(e^(2 pi i j / N) y).  This is
    an independent route to the terms of homog_series: it only uses the
    closed-form evaluation, never the series algebra.  Aliasing picks up terms of degree
    k + N, k + 2N, ...; choose n_angles with dft_points_for to certify.
    """
    if n_angles <= k:
        raise DomainError(f"need more angles than the degree: {n_angles} <= {k}")
    y4 = _point_blocks(F, y)
    n = y4.shape[1]
    a = y4.reshape(F.I * n, F.J * n)
    acc = np.zeros((n * F.k2, n * F.k1), dtype=np.complex128)
    for j in range(n_angles):
        theta = 2.0 * math.pi * j / n_angles
        phase = cmath.exp(1j * theta)
        acc += cmath.exp(-1j * k * theta) * eval_colligation(F, phase * a)
    return acc / n_angles


# --- combinations ----------------------------------------------------------------


def _require_same_shape(F: Colligation, G: Colligation) -> None:
    if (F.I, F.J) != (G.I, G.J):
        raise ShapeError(
            f"colligations act on different block shapes: "
            f"{F.I}x{F.J} vs {G.I}x{G.J}"
        )


def add_colligations(F: Colligation, G: Colligation) -> Colligation:
    """Colligation of the pointwise sum F(Y) + G(Y).

    The auxiliary spaces stack, so per-copy column blocks of B and row blocks
    of C/D interleave; the result is generally not isometric even when both
    inputs are.
    """
    _require_same_shape(F, G)
    if F.k1 != G.k1 or F.k2 != G.k2:
        raise ShapeError("summands must share value dimensions k1, k2")
    m = F.m + G.m
    A = F.A + G.A
    B = np.concatenate([_b3(F), _b3(G)], axis=2).reshape(F.k2, F.I * m)
    C = np.concatenate([_c3(F), _c3(G)], axis=1).reshape(F.J * m, F.k1)
    D = np.zeros((F.J, m, F.I, m), dtype=np.complex128)
    D[:, : F.m, :, : F.m] = _d4(F)
    D[:, F.m :, :, F.m :] = _d4(G)
    ni = None
    if F.nilpotent_index is not None and G.nilpotent_index is not None:
        ni = max(F.nilpotent_index, G.nilpotent_index)
    return Colligation(A, B, C, D.reshape(F.J * m, F.I * m), F.I, F.J,
                       nilpotent_index=ni)


def multiply_colligations(F: Colligation, G: Colligation) -> Colligation:
    """Colligation of the pointwise product F(Y) @ G(Y) (requires k1_F = k2_G)."""
    _require_same_shape(F, G)
    if F.k1 != G.k2:
        raise ShapeError(
            f"cannot compose values: F takes {F.k1}-columns, G produces {G.k2}"
        )
    m = F.m + G.m
    A = F.A @ G.A
    B = np.concatenate([_b3(F), np.einsum("pq,qiu->piu", F.A, _b3(G))],
                       axis=2).reshape(F.k2, F.I * m)
    C = np.concatenate([np.einsum("jup,pq->juq", _c3(F), G.A), _c3(G)],
                       axis=1).reshape(F.J * m, G.k1)
    cross = (F.C @ G.B).reshape(F.J, F.m, G.I, G.m)
    D = np.zeros((F.J, m, F.I, m), dtype=np.complex128)
    D[:, : F.m, :, : F.m] = _d4(F)
    D[:, F.m :, :, F.m :] = _d4(G)
    D[:, : F.m, :, F.m :] = cross
    ni = None
    if F.nilpotent_index is not None and G.nilpotent_index is not None:
        ni = F.nilpotent_index + G.nilpotent_index
    return Colligation(A, B, C, D.reshape(F.J * m, F.I * m), F.I, F.J,
                       nilpotent_index=ni)


def scale_colligation(F: Colligation, c: complex) -> Colligation:
    """Colligation of c * F(Y)."""
    c = complex(c)
    return Colligation(c * F.A, c * F.B, F.C, F.D, F.I, F.J,
                       nilpotent_index=F.nilpotent_index)


# --- compiling polynomials ----------------------------------------------------


def poly_to_colligation(P: PolyMatrix | FreePoly, I: int, J: int) -> Colligation:
    """Compile a polynomial matrix into a colligation over the I x J arrangement.

    Letters are identified with block slots by r = (i-1)*J + j, so evaluating
    the result at the assembled coordinate point reproduces the polynomial:
    one chain of auxiliary states per word, consumed right to left.  D is
    nilpotent with index at most the degree, making the expansion finite and
    exact.
    """
    P = PolyMatrix.from_poly(P)
    if P.d != I * J:
        raise ShapeError(f"polynomial has d={P.d} letters, arrangement needs {I * J}")
    k2, k1 = P.I, P.J
    A = np.zeros((k2, k1), dtype=np.complex128)
    words: list[tuple[int, int, tuple[int, ...], complex]] = []
    for alpha in range(k2):
        for beta in range(k1):
            for w, coeff in P.entry(alpha, beta).sorted_terms():
                if not w:
                    A[alpha, beta] = coeff
                else:
                    words.append((alpha, beta, w, coeff))
    m = sum(len(w) for _, _, w, _ in words)
    B = np.zeros((k2, I * m), dtype=np.complex128)
    C = np.zeros((J * m, k1), dtype=np.complex128)
    D = np.zeros((J * m, I * m), dtype=np.complex128)
    base = 0
    for alpha, beta, w, coeff in words:
        q = len(w)
        ii = [(r - 1) // J for r in w]  # 0-based block row per letter
        jj = [(r - 1) % J for r in w]  # 0-based block column per letter
        sid = lambda p: base + p - 1  # state for position p (1-based)
        C[jj[q - 1] * m + sid(q), beta] = 1.0
        for p in range(q, 1, -1):
            D[jj[p - 2] * m + sid(p - 1), ii[p - 1] * m + sid(p)] = 1.0
        B[alpha, ii[0] * m + sid(1)] = coeff
        base += q
    deg = max((len(w) for _, _, w, _ in words), default=0)
    return Colligation(A, B, C, D, I, J, nilpotent_index=deg)


def symbolic_terms(F: Colligation, max_k: int) -> list[PolyMatrix]:
    """Homogeneous terms P_0..P_max_k as polynomial matrices in the slot letters.

    The letter of slot (i, j) is r = i*J + j + 1 (0-based i, j), and the word
    r_1 ... r_k has coefficient B_(i1) D_(j1, i2) ... D_(j(k-1), ik) C_(jk),
    read off the slot views.  Enumerates all (I*J)^k words per degree, so
    this is only meant for small degrees; for compiled polynomial
    colligations it recovers the source polynomial's graded pieces exactly.
    """
    I, J, k1, k2 = F.I, F.J, F.k1, F.k2
    b3, c3, d4 = _b3(F), _c3(F), _d4(F)
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


# --- constructions ------------------------------------------------------------


def random_isometric(I: int, J: int, m: int, k1: int, k2: int, seed) -> Colligation:
    """Random isometric colligation via QR of a complex Gaussian block.

    Needs k1 + I*m <= k2 + J*m so that an isometry of those dimensions exists.
    """
    if k1 + I * m > k2 + J * m:
        raise ShapeError(
            f"no isometry with domain {k1 + I * m} larger than codomain {k2 + J * m}"
        )
    rng = rng_from(seed)
    g = random_matrix(k2 + J * m, k1 + I * m, rng)
    q, _ = np.linalg.qr(g)
    return Colligation(
        q[:k2, :k1], q[:k2, k1:], q[k2:, :k1], q[k2:, k1:], I, J
    )


def state_space_conjugate(F: Colligation, w) -> Colligation:
    """Equivalent colligation with the auxiliary space conjugated by w.

    Evaluations are unchanged for every point; a unitary w preserves the
    isometry certificate, a general invertible w usually destroys it.
    """
    a = as_array(w)
    if a.shape != (F.m, F.m):
        raise ShapeError(f"conjugator is {a.shape[0]}x{a.shape[1]}, expected {F.m}x{F.m}")
    wi = np.linalg.inv(a)
    blow_i = np.kron(np.eye(F.I), a)
    blow_j = np.kron(np.eye(F.J), wi)
    return Colligation(F.A, F.B @ blow_i, blow_j @ F.C, blow_j @ F.D @ blow_i,
                       F.I, F.J, nilpotent_index=F.nilpotent_index)


def constant_colligation(a, I: int, J: int) -> Colligation:
    """Colligation of the constant function Y -> I_n (x) A."""
    a = as_array(a)
    k2, k1 = a.shape
    return Colligation(a, np.zeros((k2, 0)), np.zeros((0, k1)), np.zeros((0, 0)),
                       I, J, nilpotent_index=0)


def coordinate_colligation(i: int, j: int, I: int, J: int) -> Colligation:
    """Colligation extracting the (i, j) block of the point (1-based indices)."""
    if not (1 <= i <= I and 1 <= j <= J):
        raise ShapeError(f"slot ({i},{j}) outside a {I}x{J} grid")
    b = np.zeros((1, I), dtype=np.complex128)
    b[0, i - 1] = 1.0
    c = np.zeros((J, 1), dtype=np.complex128)
    c[j - 1, 0] = 1.0
    return Colligation(np.zeros((1, 1)), b, c, np.zeros((J, I)), I, J,
                       nilpotent_index=1)


def identity_colligation() -> Colligation:
    """The scalar identity function z -> z (I = J = m = k1 = k2 = 1)."""
    return Colligation([[0.0]], [[1.0]], [[1.0]], [[0.0]], 1, 1, nilpotent_index=1)


# --- ordering helpers -----------------------------------------------------------


def xfirst_to_blocks(value, n: int, k2: int, k1: int) -> np.ndarray:
    """Canonical shuffle from point-first values to a k2 x k1 grid of n x n blocks."""
    a = as_array(value)
    if a.shape != (n * k2, n * k1):
        raise ShapeError(f"value is {a.shape[0]}x{a.shape[1]}, expected {n * k2}x{n * k1}")
    return a.reshape(n, k2, n, k1).transpose(1, 0, 3, 2).reshape(n * k2, n * k1)


def blocks_to_xfirst(value, n: int, k2: int, k1: int) -> np.ndarray:
    """Inverse of xfirst_to_blocks."""
    a = as_array(value)
    if a.shape != (n * k2, n * k1):
        raise ShapeError(f"value is {a.shape[0]}x{a.shape[1]}, expected {n * k2}x{n * k1}")
    return a.reshape(k2, n, k1, n).transpose(1, 0, 3, 2).reshape(n * k2, n * k1)


def xfirst_direct_sum(u, v, k2: int, k1: int) -> np.ndarray:
    """Direct sum along the point index of two point-first operator values."""
    ua, va = as_array(u), as_array(v)
    n = ua.shape[0] // k2
    p = va.shape[0] // k2
    if ua.shape != (n * k2, n * k1) or va.shape != (p * k2, p * k1):
        raise ShapeError("values do not match the stated block dimensions")
    u4 = ua.reshape(n, k2, n, k1)
    v4 = va.reshape(p, k2, p, k1)
    out = np.zeros((n + p, k2, n + p, k1), dtype=np.complex128)
    out[:n, :, :n, :] = u4
    out[n:, :, n:, :] = v4
    return out.reshape((n + p) * k2, (n + p) * k1)
