"""Colligation realizations and their linear-fractional evaluation.

A colligation is a block operator

    V = [A B; C D] : K1 (+) M^(I)  ->  K2 (+) M^(J)

with K1, K2, M finite-dimensional.  Against an nI x nJ block point Y
(typically Y = delta(x) for an I x J polynomial matrix delta) it defines the
function

    F(Y) = (I_n (x) A) + (I_n (x) B) Y_M [ I - (I_n (x) D) Y_M ]^{-1} (I_n (x) C)
         = (I_n (x) A) + (I_n (x) B) [ I - L ]^{-1} Y_M (I_n (x) C)

where Y_M is Y with the auxiliary space M tensored into each block slot and
L = Y_M (I_n (x) D) is the loop operator (the second line is the
push-through identity).  Every route runs on that one loop, on its live
states: of the n*I*m states (a, i, u), those whose column i*m + u of B or
of D is nonzero, N = n*(live count) of them.  A dead state's column of L is
zero, so L is block triangular with a zero block on the dead states, and
every term B L^k w, the value B (I - L)^-1 w and rho(L) are the live
block's.  A compiled polynomial reads each state out at one slot only,
its tag letter's, so its loop has n*m states, 1/I of the full grid.
The series takes one product with L per term, and the closed form (and
the DFT route, which calls it) solves with K = I - L, formed in place over
L.  Y_M and I_n (x) B, I_n (x) D are applied in factored form, never
formed: L and w = Y_M (I_n (x) C), the right-hand side of the one linear
solve, are built by one batched matmul per slot of a view of Y against
D's or C's rows for that slot's live states, written straight into the
slot's rows of the N x N buffer.  funcalc.sharp builds the loop once and
runs the series on it before the closed form consumes it.

The closed form is guarded: K must be invertible with ||K^-1|| at most
RESOLVENT_NORM_CAP, and a loop that is neither nilpotent nor an isometric
contraction must have spectral radius below 1.  Both are settled by a bound
first.  Since ||L|| <= ||D|| ||Y|| = g, a loop of nilpotency index nu has
||K^-1|| <= sum_(k<nu) g^k, any loop with g < 1 has ||K^-1|| <= 1/(1 - g),
and rho(L) <= g; g bounds the live block as well, so a verdict the bound
settles is the same on the live loop as on the full grid.  The SVD of K
runs only when that bound exceeds the cap, and eigvals(L) only when g does
not clear 1 - _SPECTRAL_SLACK, so both decompositions are taken exactly
when the bound cannot settle the check; the SVD reads the live K, the
matrix that is actually solved.
g itself is bounded first by ||D||_F ||Y||, and the SVD of D runs only when
that bound cannot settle a check; ||Y|| comes from the caller, which
funcalc.sharp has already taken.

Polynomials compile (poly_to_colligation) to a deterministic automaton that
reads each word right to left and has no two states with the same tag
letter and the same future: C and D hold only 0/1, the coefficients sit in
B, and D is nilpotent with index equal to the degree, so the series is a
finite exact sum at any point.  (x1 + x2)^k takes 2k states.  Constants and
single coordinates are compiled like any other polynomial.  One builder,
_automaton, takes the terms in a single pass into the suffix trie, merges
the trie's states and fills B, C and D; funcalc.compile_polynomial hands it
its renamed terms directly, with no renamed polynomial in between.

Every model certifies its own nilpotency: the index is the longest path in
the state-transition graph of D, computed when the colligation is built and
never passed in, so no caller can claim a finite loop that D does not have.
That graph and the live states come from one nonzero mask of [B; D].  The
isometry defect ||V*V - I|| is the one quantity left for later: the Gram is
formed, checked finite and decomposed on its first read, so a model whose
isometry no check asks about (a nilpotent model at t >= 1) never forms it.

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
from .freepoly import FreePoly, PolyMatrix, Word
from .matrix_core import (
    _SCREEN_MARGIN,
    _integer,
    ampliate,
    as_array,
    op_norm,
    random_matrix,
    rng_from,
)

__all__ = [
    "Colligation",
    "eval_colligation",
    "homog_series",
    "homog_extract_dft",
    "dft_points_for",
    "random_isometric",
    "xfirst_to_blocks",
]

ISOMETRY_TOL = 1e-8
RESOLVENT_NORM_CAP = 1e12
_SPECTRAL_SLACK = 1e-10
# Largest loop dimension N = n*(live states) an evaluation allocates.  It
# holds two N x N complex matrices, the loop L (which becomes K in place) and
# its LU factor, each 16 N^2 bytes: 64 MiB here.
MAX_LOOP_DIM = 2048


class Colligation:
    """Immutable block system matrix with validated shapes.

    Shapes: A is k2 x k1, B is k2 x (I*m), C is (J*m) x k1, D is (J*m) x (I*m).
    Columns of B and rows of C/D are ordered copy-major: slot (i, state) maps
    to index i*m + state.  A state is live when its column of B or of D has a
    nonzero entry; the live states and ``nilpotent_index`` are read from
    one nonzero mask of [B; D] at construction, with the loop's operands
    for those states, and the loop is built on them alone.
    ``isometric_certified`` is computed, not trusted:
    it is True exactly when the assembled block [A B; C D] satisfies
    ||V*V - I|| <= ISOMETRY_TOL.  The Gram V*V - I is formed, checked
    finite and decomposed on the first read of ``isometry_defect``, so a
    model that never reads it (a nilpotent one outside the unit ball) never
    forms it, and finite blocks whose Gram overflows raise DomainError at
    that read, not at construction.  ``nilpotent_index`` is computed from
    D at construction, never passed.
    """

    __slots__ = ("_A", "_B", "_C", "_D", "_I", "_J", "_m", "_defect",
                 "_nilpotent_index", "_D_norm", "_B_live", "_live_count", "_slots")

    def __init__(self, A, B, C, D, I: int, J: int):
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
            if a.size and not np.isfinite(a).all():
                raise DomainError(f"block {name} has non-finite entries")
        self._A, self._B, self._C, self._D = A, B, C, D
        self._I, self._J, self._m = I, J, m
        self._defect: float | None = None
        self._D_norm: float | None = None
        nonzero = np.empty((k2 + J * m, I * m), dtype=bool)  # [B; D] != 0
        np.not_equal(B, 0, out=nonzero[:k2])
        np.not_equal(D, 0, out=nonzero[k2:])
        self._nilpotent_index = _graph_nilpotency(nonzero[k2:], I, J, m)
        live, count, slots = _live_states(nonzero, I, m)
        # The loop's operands: B's live columns, and per slot D's rows (j, u)
        # at live columns and C's rows (j, u) for the slot's live states u.
        # They are views of the blocks when every state is live.
        d3 = D[:, live].reshape(J, m, count).transpose(1, 0, 2)
        c3 = C.reshape(J, m, k1).transpose(1, 0, 2)
        self._B_live, self._live_count = B[:, live], count
        self._slots = tuple((i, lo, hi, d3[us], c3[us]) for i, lo, hi, us in slots)

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
        """||V*V - I||: the Gram is formed, checked finite and decomposed on
        first read.  Finite blocks whose Gram leaves double range raise
        DomainError here, on every read."""
        if self._defect is None:
            k2, k1 = self._A.shape
            v = np.empty((k2 + self._D.shape[0], k1 + self._D.shape[1]), dtype=np.complex128)
            v[:k2, :k1], v[:k2, k1:], v[k2:, :k1], v[k2:, k1:] = (
                self._A, self._B, self._C, self._D)
            with np.errstate(over="ignore", invalid="ignore"):
                gram = v.conj().T @ v
            gram[np.diag_indices(gram.shape[0])] -= 1.0
            if not np.isfinite(gram).all():  # the blocks are finite, so V*V left double range
                raise DomainError("the isometry defect overflowed")
            self._defect = op_norm(gram)
        return self._defect

    @property
    def isometric_certified(self) -> bool:
        return self.isometry_defect <= ISOMETRY_TOL

    @property
    def nilpotent_index(self) -> int | None:
        """Smallest q with (Y_M D)^q = (D Y_M)^q = 0 for every Y, or None if none.

        Computed from D at construction, never passed: the loop D -> Y -> D
        can only follow the edges of D's state-transition graph, so an
        acyclic graph makes every such loop nilpotent regardless of Y.
        """
        return self._nilpotent_index

    @property
    def D_norm(self) -> float:
        """Operator norm of D, computed once: the loop gain per unit of ||Y||."""
        if self._D_norm is None:
            self._D_norm = op_norm(self._D)
        return self._D_norm

    def __repr__(self):
        return (f"Colligation(k1={self.k1}, k2={self.k2}, I={self._I}, "
                f"J={self._J}, m={self._m}, nilpotent_index={self._nilpotent_index})")

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


def _graph_nilpotency(d_nonzero: np.ndarray, I: int, J: int, m: int) -> int | None:
    """Nilpotency index of the state-transition graph of D, or None, from
    the mask d_nonzero = (D != 0).

    The index is the number of states on the longest path, found by peeling
    the graph layer by layer (Kahn): each layer is the states that feed no
    remaining state.  A graph that stops shrinking has a cycle.  The peeling
    runs in Python on the adjacency as lists, one row per peeled state: at
    the state counts of compiled polynomials, per-layer numpy calls would
    cost more.
    """
    adj = d_nonzero.reshape(J, m, I, m).any(axis=(0, 2))  # adj[u, v]: D carries v into u
    feeds = adj.sum(axis=0).tolist()  # per state, how many remaining states it feeds
    adj = adj.tolist()
    layer = [v for v in range(m) if not feeds[v]]
    layers = peeled = 0
    while layer:
        layers += 1
        peeled += len(layer)
        nxt = []
        for u in layer:
            for v, edge in enumerate(adj[u]):
                if edge:
                    feeds[v] -= 1
                    if not feeds[v]:
                        nxt.append(v)
        layer = nxt
    return layers if peeled == m else None


def _live_states(bd_nonzero: np.ndarray, I: int, m: int):
    """(live, count, slots): the states (i, u) whose column i*m + u of the
    mask bd_nonzero = ([B; D] != 0) has a True entry, in slot-major order.

    ``live`` selects those columns, ``count`` is how many there are, and
    ``slots`` holds (i, lo, hi, us) for each slot i with a live state:
    positions lo:hi of the live order are slot i's states, selected from
    0..m-1 by ``us``.  A selector that is one contiguous run is a slice, so a
    fully live model's operands are views of its blocks.
    """
    alive = bd_nonzero.any(axis=0).tolist()
    live, slots = [], []
    for i in range(I):
        us = [u for u in range(m) if alive[i * m + u]]
        if us:
            slots.append((i, len(live), len(live) + len(us), _run(us)))
            live += [i * m + u for u in us]
    return _run(live), len(live), slots


def _run(ix: list[int]):
    """An increasing index list as a slice when it is one contiguous run,
    else as an index array."""
    if ix and ix[-1] - ix[0] + 1 == len(ix):
        return slice(ix[0], ix[-1] + 1)
    return np.array(ix, dtype=np.intp)


# --- evaluation ----------------------------------------------------------------
#
# Index layout.  The point is read as y4[i, a, j, b] = (block (i, j) of y)[a, b],
# C and D by their slot views c3[j, u, q] and d3[j, u, (i, v)], and B by its
# columns (i, u) as stored.
# Y_M has entries Y_M[(a, i, u), (b, j, v)] = y4[i, a, j, b] * delta(u, v), and
# I_n (x) X acts on the point index a alone.  Every product below is contracted
# from these views.


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
    """(I_n (x) B) w for w with rows (a, live state) and n*k1 columns."""
    return (F._B_live @ w.reshape(n, F._live_count, n * F.k1)).reshape(n * F.k2, n * F.k1)


def _check_loop_dim(F: Colligation, n: int) -> int:
    """The loop dimension N = n * (live states), refused above MAX_LOOP_DIM
    before any N x N matrix is allocated."""
    N = n * F._live_count
    if N > MAX_LOOP_DIM:
        states = "states" if F._live_count == F.I * F.m else f"live states of {n * F.I * F.m}"
        raise DomainError(
            f"loop too large: n={n}, I={F.I}, m={F.m} give N={N} {states}, "
            f"{16 * N * N} bytes per N x N matrix; at most N={MAX_LOOP_DIM} is allowed"
        )
    return N


def _loop(F: Colligation, y4: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, L, w): the loop L = Y_M (I_n (x) D) on the live states, rows
    (a, i, u) and columns (b, i', v), and w = Y_M (I_n (x) C), rows (a, i, u)
    and columns (b, q).

    A dead state (i, u) has zero columns in B and D: its column of L is zero
    and it feeds neither another state nor the output, so dropping it changes
    no series term, no closed form value and no eigenvalue but zeros.  Each
    slot i with live states takes one broadcast matmul of the point, viewed
    as yt[a, ., b, j], against D's rows (j, u) at live columns and C's rows
    (j, u), for the slot's live states u, with j as the contracted index
    (operands the colligation selected at construction): the products are
    written straight into the slot's rows of L and w, so no N x N temporary
    is made.  On a fully live model the operands are views of the blocks,
    and L and w are bitwise one broadcast call over all slots.
    """
    n = y4.shape[1]
    N = _check_loop_dim(F, n)
    k1, s = F.k1, F._live_count
    yt = y4.transpose(1, 0, 3, 2)
    L = np.empty((N, N), dtype=np.complex128)
    w = np.empty((N, n * k1), dtype=np.complex128)
    L4, w4 = L.reshape(n, s, n, s), w.reshape(n, s, n, k1)
    for i, lo, hi, d, c in F._slots:
        np.matmul(yt[:, i, None], d, out=L4[:, lo:hi])
        np.matmul(yt[:, i, None], c, out=w4[:, lo:hi])
    return n, L, w


def _resolvent_bound(g: float, nilpotent_index: int | None) -> float:
    """Upper bound on ||K^-1|| for K = I - L with ||L|| <= g."""
    if nilpotent_index is not None:  # K^-1 = sum_(k<nu) L^k
        total, power = 0.0, 1.0
        for _ in range(nilpotent_index):
            total += power
            power *= g
        return total
    if g < 1.0:  # Neumann series
        return 1.0 / (1.0 - g)
    return math.inf


def _resolvent_matrix(F: Colligation, y_norm: float, L: np.ndarray) -> np.ndarray:
    """Guard the Neumann inversion of K = I - L at a point of norm y_norm,
    and return K formed in place over L (L is consumed).

    The spectral radius must stay below 1 unless the data is isometric with
    ||y|| < 1 or the loop is nilpotent, and ||K^-1|| must stay at most
    RESOLVENT_NORM_CAP.  With g = ||D|| ||y|| >= ||L|| >= rho(L), eigvals(L)
    runs only when g >= 1 - _SPECTRAL_SLACK, and the SVD of K only when
    _resolvent_bound(g) exceeds the cap: a decomposition is taken only where
    the bound cannot settle the check, so the verdict is the decomposition's.
    g is first bounded by ||D||_F ||y||, inflated by _SCREEN_MARGIN past
    rounding, and ||D|| is read only when that bound settles neither check,
    so every verdict is the one the exact g gives.  L is the loop on the
    live states, which g bounds as it bounds the full grid's, so the bound
    settles the same checks.  The SVD reads the live K, the matrix that is
    actually solved; the full grid's ||K^-1|| is never smaller, since the
    live block's inverse is a block of it.
    """
    nilp = F.nilpotent_index
    spectral = nilp is None and not (y_norm < 1.0 and F.isometric_certified) and L.size > 0

    def unsettled(g: float) -> tuple[bool, bool]:
        """Whether a bound g on ||L|| leaves the spectral test, and the cap, open."""
        return (spectral and not g < 1.0 - _SPECTRAL_SLACK,
                not _resolvent_bound(g, nilp) <= RESOLVENT_NORM_CAP)

    check_rho, check_cap = unsettled(
        math.sqrt(np.vdot(F.D, F.D).real) * y_norm * (1.0 + _SCREEN_MARGIN))
    if check_rho or check_cap:
        check_rho, check_cap = unsettled(F.D_norm * y_norm)
    if check_rho:
        rho = float(np.abs(np.linalg.eigvals(L)).max())
        if rho >= 1.0 - _SPECTRAL_SLACK:
            raise DomainError(
                f"point outside the domain of convergence: loop spectral radius {rho:.6f}"
            )
    K = np.negative(L, out=L)
    K[np.diag_indices(K.shape[0])] += 1.0
    if not check_cap:
        return K
    sv = np.linalg.svd(K, compute_uv=False)
    if sv.size and (sv[-1] == 0.0 or 1.0 / sv[-1] > RESOLVENT_NORM_CAP):
        raise DomainError(
            "point outside the domain of convergence: resolvent norm exceeds "
            f"{RESOLVENT_NORM_CAP:.0e}"
        )
    return K


def _closed(F: Colligation, y_norm: float, n: int, L: np.ndarray, w: np.ndarray,
            a0: np.ndarray) -> np.ndarray:
    """The closed form a0 + (I_n (x) B) (I - L)^-1 w on a built loop at a
    point of norm y_norm, with a0 = I_n (x) A; L is consumed."""
    K = _resolvent_matrix(F, y_norm, L)
    return a0 + _apply_b(F, np.linalg.solve(K, w), n)


def _series(F: Colligation, n: int, L: np.ndarray, w: np.ndarray, a0: np.ndarray):
    """Yield (k, P_k) on a built loop: P_0 = a0 = I_n (x) A and
    P_k = (I_n (x) B) L^(k-1) w.  Neither L nor w is written."""
    yield 0, a0
    k = 1
    while True:
        yield k, _apply_b(F, w, n)
        w = L @ w
        k += 1


def eval_colligation(F: Colligation, y) -> np.ndarray:
    """Linear-fractional value of the colligation at an nI x nJ block point."""
    y4 = _point_blocks(F, y)
    n, L, w = _loop(F, y4)
    return _closed(F, op_norm(y4.reshape(F.I * n, F.J * n)), n, L, w, ampliate(n, F.A))


def homog_series(F: Colligation, y):
    """Yield (k, P_k(y)) for k = 0, 1, 2, ... lazily.

    P_0 is the ampliated constant block and
    P_k(y) = (I_n (x) B) L^(k-1) Y_M (I_n (x) C) with the loop operator
    L = Y_M (I_n (x) D), formed once.  The generator never checks
    convergence; callers own the stopping rule.
    """
    y4 = _point_blocks(F, y)
    n, L, w = _loop(F, y4)
    yield from _series(F, n, L, w, ampliate(n, F.A))


def _terms_for_tolerance(t: float, tol: float) -> int:
    """Smallest N >= 0 with t^(N+1)/(1-t) <= tol, for 0 <= t < 1.

    When every degree-k term is at most t^k, that is the tail after degree
    N: sharp sums degrees 0..N, and dft_points_for takes k + 1 + N angles.
    """
    if t == 0.0:
        return 0
    # log(tol) + log1p(-t), not log(tol * (1 - t)): the product can underflow to 0
    n = max(0, math.ceil((math.log(tol) + math.log1p(-t)) / math.log(t) - 1.0))
    while t ** (n + 1) / (1.0 - t) > tol:  # guard against floating rounding at the edge
        n += 1
    return n


def _degree(k) -> int:
    """A homogeneous degree as a Python int; a negative or non-integer k
    raises DomainError."""
    k = _integer(k, "degree k", DomainError)
    if k < 0:
        raise DomainError(f"degree k must be >= 0, got {k}")
    return k


def dft_points_for(k: int, t: float, tol: float) -> int:
    """Smallest certified angle count for degree-k extraction at radius t.

    For an isometric colligation the aliasing error of an N-point average is
    below t^(N-k)/(1-t), so N = k + 1 + _terms_for_tolerance(t, tol) pushes
    it under tol.  Requires an integer k >= 0 and t < 1.
    """
    k = _degree(k)
    if not 0.0 <= t < 1.0:
        raise DomainError("certified extraction needs a point with norm below 1")
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    return k + 1 + _terms_for_tolerance(t, tol)


def homog_extract_dft(F: Colligation, y, k: int, n_angles: int) -> np.ndarray:
    """Extract the degree-k term by averaging evaluations over scaled points.

    Computes (1/N) * sum_j e^(-2 pi i j k / N) F(e^(2 pi i j / N) y).  This is
    an independent route to the terms of homog_series: it only uses the
    closed-form evaluation, never the series algebra.  Aliasing picks up terms of degree
    k + N, k + 2N, ...; choose n_angles with dft_points_for to certify.
    k must be an integer >= 0 and n_angles an integer above k.
    """
    k = _degree(k)
    n_angles = _integer(n_angles, "n_angles", DomainError)
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


# --- compiling polynomials ----------------------------------------------------


def poly_to_colligation(P: PolyMatrix | FreePoly, I: int, J: int) -> Colligation:
    """Compile a polynomial matrix into a colligation over the I x J arrangement.

    Letters are identified with block slots by r = (i-1)*J + j, so evaluating
    the result at the assembled coordinate point reproduces the polynomial.
    Words are read right to left by a deterministic automaton, which
    _automaton builds from the terms as they come (funcalc's
    compile_polynomial hands it its renamed terms the same way):

    1. Suffix trie.  A state is a pair (column beta, nonempty suffix s) of a
       word of some entry (alpha, beta), tagged by its first letter s[0]: it
       reads in at J-slot jj(s[0]) and out at I-slot ii(s[0]).  C feeds the
       one-letter suffixes, D carries s to a.s whenever that is a state too,
       and B reads c from state (beta, w) for each term c.w of (alpha, beta).
       A word's suffix chain is inserted only down to its first suffix that
       is a state already, whose own suffixes are states already too.
    2. Merge.  From the longest suffix down, each state gets the signature
       (tag letter, its B readouts, its successor class per letter); states
       with equal signatures become one, numbered in order of first
       appearance.  This is the minimisation of a deterministic weighted
       automaton: every class keeps at most one successor per letter, so
       each (beta, word) still has exactly one path and the function is
       unchanged in exact arithmetic.  (A numerical Hankel-rank reduction
       can go further when futures are linearly dependent without being
       equal.)  B, C and D are then filled by one indexed assignment each.

    C and D hold only 0/1 entries and the coefficients sit in B alone, so
    each word's coefficient in the expansion is an entry of B, exactly.
    D moves each state to one of smaller height (the longest word left to
    read), so the state graph is acyclic with nilpotency index equal to the
    degree, making the expansion finite and exact.  (x1 + x2)^k compiles to
    2k states.
    """
    P = PolyMatrix.from_poly(P)
    if P.d != I * J:
        raise ShapeError(f"polynomial has d={P.d} letters, arrangement needs {I * J}")
    terms = [(alpha, beta, w, c) for alpha, row in enumerate(P.entries)
             for beta, p in enumerate(row) for w, c in p.sorted_terms()]
    return _automaton(P.I, P.J, terms, I, J)


def _automaton(k2: int, k1: int, terms, I: int, J: int) -> Colligation:
    """The colligation of poly_to_colligation's automaton for the k2 x k1
    polynomial matrix whose nonzero terms are (alpha, beta, word, c), each
    (alpha, beta, word) at most once, in any order, with every letter in
    1..I*J; the result does not depend on the order."""
    A = np.zeros((k2, k1), dtype=np.complex128)
    # Per trie state (beta, s): its B readouts {alpha: c}, and the letters a
    # for which a.s is a state.
    states: dict[tuple[int, Word], tuple[dict[int, complex], set[int]]] = {}
    for alpha, beta, w, coeff in terms:
        if not w:
            A[alpha, beta] = coeff
            continue
        node = states.get((beta, w))
        if node is None:
            node = states[(beta, w)] = ({}, set())
            for p in range(1, len(w)):
                tail = states.get((beta, w[p:]))
                if tail is not None:  # its own suffix chain is in place
                    tail[1].add(w[p - 1])
                    break
                states[(beta, w[p:])] = ({}, {w[p - 1]})
        node[0][alpha] = coeff
    # Longest suffixes first, so every successor is classed already.  A new
    # class records its B readouts and D successors; merged states would
    # write equal entries.  Every one-letter suffix records its C entry.
    cls: dict[tuple[int, Word], int] = {}
    classes: dict[tuple, int] = {}
    b_at: list[tuple[int, int, int]] = []  # (alpha, i, u), reading b_val
    b_val: list[complex] = []
    c_at: list[tuple[int, int, int]] = []  # (j, u, beta)
    d_at: list[tuple[int, int, int, int]] = []  # (j of a, class of a.s, i, u)
    for key in sorted(states, key=lambda bs: (-len(bs[1]), bs)):
        beta, s = key
        reads, grows = states[key]
        nexts = [(a, cls[beta, (a,) + s]) for a in grows]
        sig = (s[0], frozenset(reads.items()), frozenset(nexts))
        u = classes.get(sig)
        if u is None:
            u = classes[sig] = len(classes)
            i = (s[0] - 1) // J
            for alpha, coeff in reads.items():
                b_at.append((alpha, i, u))
                b_val.append(coeff)
            for a, v in nexts:
                d_at.append(((a - 1) % J, v, i, u))
        cls[key] = u
        if len(s) == 1:
            c_at.append(((s[0] - 1) % J, u, beta))
    m = len(classes)
    B = np.zeros((k2, I * m), dtype=np.complex128)
    C = np.zeros((J * m, k1), dtype=np.complex128)
    D = np.zeros((J * m, I * m), dtype=np.complex128)
    np.put(B, [(alpha * I + i) * m + u for alpha, i, u in b_at], b_val)
    np.put(C, [(j * m + u) * k1 + beta for j, u, beta in c_at], 1.0)
    np.put(D, [((j * m + v) * I + i) * m + u for j, v, i, u in d_at], 1.0)
    return Colligation(A, B, C, D, I, J)


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


# --- ordering helpers -----------------------------------------------------------


def xfirst_to_blocks(value, n: int, k2: int, k1: int) -> np.ndarray:
    """Canonical shuffle from point-first values to a k2 x k1 grid of n x n blocks."""
    a = as_array(value)
    if a.shape != (n * k2, n * k1):
        raise ShapeError(f"value is {a.shape[0]}x{a.shape[1]}, expected {n * k2}x{n * k1}")
    return a.reshape(n, k2, n, k1).transpose(1, 0, 3, 2).reshape(n * k2, n * k1)


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
