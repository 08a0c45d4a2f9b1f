"""Free (noncommuting) polynomials, matrices of them, and domain builders.

A free polynomial in ``d`` letters is a finite linear combination of words
over the alphabet ``{1, ..., d}``; words multiply by concatenation and are
evaluated at a MatrixTuple by substituting the coordinate matrices.  An
``I x J`` matrix of free polynomials evaluated at a level-``n`` point gives
an ``nI x nJ`` block matrix; the open set where that block has norm below 1
is the domain the rest of the package works over.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .matrix_core import MatrixTuple

__all__ = [
    "FreePoly",
    "PolyMatrix",
    "e_lambda",
    "row_delta",
    "diag_delta",
    "gap_delta",
    "lens_delta",
    "compose_with_entries",
    "verify_separating_witnesses",
]

Word = tuple[int, ...]


def _canon_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def _concat_product(left: dict[Word, complex], right: dict[Word, complex]) -> dict[Word, complex]:
    """Product of two word -> coefficient maps by concatenation, without zero terms."""
    out: dict[Word, complex] = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            w = w1 + w2
            out[w] = out.get(w, 0j) + c1 * c2
    return {w: c for w, c in out.items() if c != 0}


class FreePoly:
    """An immutable free polynomial in ``d`` noncommuting letters.

    Terms live in a word -> coefficient map, stored in canonical order;
    words are tuples of 1-based letter indices and the empty word is the
    constant term.  Zero
    coefficients are never stored, so structural equality is semantic
    equality.
    """

    __slots__ = ("_d", "_terms")

    def __init__(self, d: int, terms: Mapping[Word, complex] | None = None):
        if d < 1:
            raise ShapeError("a free polynomial needs at least one letter")
        clean: dict[Word, complex] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(int(ell) for ell in word)
            for ell in word:
                if not 1 <= ell <= d:
                    raise ShapeError(f"letter {ell} outside 1..{d} in word {word}")
            c = complex(coeff)
            if c != 0:
                c = clean.get(word, 0j) + c
                if c != 0:
                    clean[word] = c
                else:
                    clean.pop(word, None)
        self._d = d
        self._terms = dict(sorted(clean.items(), key=lambda kv: _canon_key(kv[0])))

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "FreePoly":
        return cls(d)

    @classmethod
    def one(cls, d: int) -> "FreePoly":
        return cls(d, {(): 1.0})

    @classmethod
    def constant(cls, c: complex, d: int) -> "FreePoly":
        return cls(d, {(): c})

    @classmethod
    def letter(cls, j: int, d: int) -> "FreePoly":
        """The coordinate polynomial x^j (1-based)."""
        return cls(d, {(j,): 1.0})

    @classmethod
    def monomial(cls, word: Iterable[int], d: int, coeff: complex = 1.0) -> "FreePoly":
        return cls(d, {tuple(word): coeff})

    # --- basic queries ----------------------------------------------------

    @property
    def d(self) -> int:
        return self._d

    def sorted_terms(self) -> list[tuple[Word, complex]]:
        """Terms in canonical order: by word length, then lexicographically."""
        return list(self._terms.items())

    @property
    def constant_term(self) -> complex:
        return self._terms.get((), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest word length; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(len(w) for w in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # --- arithmetic ---------------------------------------------------------

    def _require_same_d(self, other: "FreePoly") -> None:
        if self._d != other._d:
            raise ShapeError(
                f"polynomials over different alphabets: d={self._d} vs d={other._d}"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FreePoly.constant(other, self._d)
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._require_same_d(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0j) + c
        return FreePoly(self._d, out)

    __radd__ = __add__

    def __neg__(self):
        return FreePoly(self._d, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = FreePoly.constant(other, self._d)
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return FreePoly(self._d, {w: c * v for w, v in self._terms.items()})
        if not isinstance(other, FreePoly):
            return NotImplemented
        self._require_same_d(other)
        return FreePoly(self._d, _concat_product(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("free polynomials only take nonnegative powers")
        out = FreePoly.one(self._d)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self._d == other._d and self._terms == other._terms

    def __hash__(self):
        return hash((self._d, tuple(self.sorted_terms())))

    def __repr__(self):
        if self.is_zero():
            return f"FreePoly(d={self._d}, 0)"
        bits = []
        for w, c in self.sorted_terms()[:4]:
            mono = "*".join(f"x{ell}" for ell in w) if w else "1"
            bits.append(f"({c:.3g})*{mono}")
        tail = " + ..." if len(self._terms) > 4 else ""
        return f"FreePoly(d={self._d}, {' + '.join(bits)}{tail})"

    # --- structure ----------------------------------------------------------

    def homogeneous_part(self, k: int) -> "FreePoly":
        return FreePoly(self._d, {w: c for w, c in self._terms.items() if len(w) == k})

    def substitute(self, images: Sequence["FreePoly"]) -> "FreePoly":
        """Ring substitution sending letter j to images[j-1].

        All images must share one alphabet; the result lives over it.
        """
        if len(images) != self._d:
            raise ShapeError(f"need {self._d} substitution images, got {len(images)}")
        if not images:
            raise ShapeError("substitution needs at least one image")
        d_new = images[0].d
        for h in images:
            if h.d != d_new:
                raise ShapeError("substitution images live over different alphabets")
        # Terms are built and summed as plain dicts: FreePoly arithmetic would
        # rebuild and re-check every word once per letter and per term.
        out: dict[Word, complex] = {}
        for w, c in self.sorted_terms():
            term = {(): c}
            for ell in w:
                term = _concat_product(term, images[ell - 1]._terms)
            for u, v in term.items():
                out[u] = out.get(u, 0j) + v
        return FreePoly(d_new, out)

    def scale_letters(self, s: complex) -> "FreePoly":
        """Substitute x^j -> s * x^j for every letter (coefficients scale by s^|word|)."""
        s = complex(s)
        return FreePoly(self._d, {w: c * s ** len(w) for w, c in self._terms.items()})

    # --- evaluation -----------------------------------------------------------

    def eval(self, x: MatrixTuple) -> np.ndarray:
        """Evaluate at a matrix point: the 1x1 case of ``PolyMatrix.eval``."""
        return PolyMatrix.from_poly(self).eval(x)


class PolyMatrix:
    """A rectangular matrix of free polynomials over one alphabet."""

    __slots__ = ("_rows", "_d")

    def __init__(self, rows: Sequence[Sequence[FreePoly]]):
        if not rows or not rows[0]:
            raise ShapeError("a PolyMatrix needs a non-empty grid")
        ncols = len(rows[0])
        d = rows[0][0].d
        grid = []
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {ncols}")
            for j, p in enumerate(row):
                if not isinstance(p, FreePoly):
                    raise ShapeError(f"entry ({i},{j}) is not a FreePoly")
                if p.d != d:
                    raise ShapeError(
                        f"entry ({i},{j}) has d={p.d}, expected d={d}"
                    )
            grid.append(tuple(row))
        self._rows = tuple(grid)
        self._d = d

    @classmethod
    def from_poly(cls, p: "FreePoly | PolyMatrix") -> "PolyMatrix":
        """A polynomial as a 1x1 PolyMatrix; a PolyMatrix comes back unchanged."""
        if isinstance(p, PolyMatrix):
            return p
        if isinstance(p, FreePoly):
            return cls(((p,),))
        raise ShapeError(f"expected FreePoly or PolyMatrix, got {type(p).__name__}")

    @property
    def I(self) -> int:  # noqa: E743 - the domain calls the row count I
        return len(self._rows)

    @property
    def J(self) -> int:
        return len(self._rows[0])

    @property
    def d(self) -> int:
        return self._d

    def entry(self, i: int, j: int) -> FreePoly:
        """0-based entry access."""
        return self._rows[i][j]

    @property
    def entries(self) -> tuple[tuple[FreePoly, ...], ...]:
        return self._rows

    def scale(self, c: complex) -> "PolyMatrix":
        return PolyMatrix([[p * c for p in row] for row in self._rows])

    def map(self, f: Callable[[FreePoly], FreePoly]) -> "PolyMatrix":
        return PolyMatrix([[f(p) for p in row] for row in self._rows])

    def max_degree(self) -> int:
        return max(p.degree() for row in self._rows for p in row)

    def vanishes_at_zero(self) -> bool:
        """True iff every entry has zero constant term."""
        return all(p.constant_term == 0 for row in self._rows for p in row)

    def eval(self, x: MatrixTuple | np.ndarray) -> np.ndarray:
        """Assembled nI x nJ block evaluation at a level-n point, or at a stack.

        ``x`` is a MatrixTuple or an array of coordinates: ``(d, n, n)`` gives
        the ``(I n, J n)`` value and ``(B, d, n, n)`` gives ``(B, I n, J n)``,
        one value per point, each bitwise the one computed alone.  Every
        distinct word prefix is multiplied once, left to right, for all
        entries.  Each entry sums its terms in canonical order (the empty word
        gives c * I_n), so results are bitwise reproducible run to run.
        """
        coords = x.coords if isinstance(x, MatrixTuple) else np.asarray(x, dtype=np.complex128)
        if coords.ndim < 3 or coords.shape[-1] != coords.shape[-2]:
            raise ShapeError(f"expected (..., d, n, n) coordinates, got shape {coords.shape}")
        if coords.shape[-3] != self._d:
            raise ShapeError(
                f"point has {coords.shape[-3]} coordinates, polynomial has {self._d} letters"
            )
        batch, n = coords.shape[:-3], coords.shape[-1]
        # letters[j] is the (*batch, n, n) stack of coordinate j
        lead = len(batch)
        letters = coords.transpose(lead, *range(lead), lead + 1, lead + 2) if lead else coords
        products: dict[Word, np.ndarray] = {}
        out = np.zeros((*batch, self.I, n, self.J, n), dtype=np.complex128)
        for i, row in enumerate(self._rows):
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                acc = out[..., i, :, j, :]
                for w, c in p.sorted_terms():
                    if not w:
                        acc += c * np.eye(n, dtype=np.complex128)
                        continue
                    m = letters[w[0] - 1]
                    for k in range(2, len(w) + 1):
                        prod = products.get(w[:k])
                        if prod is None:
                            prod = products[w[:k]] = m @ letters[w[k - 1] - 1]
                        m = prod
                    acc += c * m
        return out.reshape(*batch, self.I * n, self.J * n)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"PolyMatrix({self.I}x{self.J}, d={self._d})"


# --- standard defining matrices ---------------------------------------------


def e_lambda(I: int, J: int) -> PolyMatrix:
    """The I x J coordinate arrangement: entry (i,j) is the letter (i-1)*J + j.

    Its unit domain is the block-matrix ball in d = I*J coordinates.
    """
    if I < 1 or J < 1:
        raise ShapeError("arrangement shape must be positive")
    d = I * J
    return PolyMatrix(
        [[FreePoly.letter((i - 1) * J + j, d) for j in range(1, J + 1)]
         for i in range(1, I + 1)]
    )


def row_delta(d: int) -> PolyMatrix:
    """The 1 x d row of coordinates; its unit domain is the row ball."""
    if d < 1:
        raise ShapeError("need at least one coordinate")
    return PolyMatrix([[FreePoly.letter(j, d) for j in range(1, d + 1)]])


def diag_delta(d: int) -> PolyMatrix:
    """The d x d diagonal of coordinates; its unit domain is the polydisc analogue."""
    if d < 1:
        raise ShapeError("need at least one coordinate")
    zero = FreePoly.zero(d)
    return PolyMatrix(
        [[FreePoly.letter(i, d) if i == j else zero for j in range(1, d + 1)]
         for i in range(1, d + 1)]
    )


def _check_gap_eps(eps: float) -> None:
    """Refuse a gap width outside (0, 0.2), where ``gap_delta`` has its bound."""
    if not 0.0 < eps < 0.2:
        raise DomainError(f"eps must lie strictly between 0 and 0.2, got {eps}")


def gap_delta(eps: float) -> PolyMatrix:
    """Two-letter diagonal arrangement whose domain forces y*x close to 1.

    Blocks: (1/eps)(x^2 x^1 - 1), x^1/(1+eps), x^2/(1+eps).  Requires
    0 < eps < 0.2; on that range products x^1 x^2 stay within eps + 4 eps^2
    of 1 in norm on the whole matrix domain, while natural operator pairs
    just outside the matrix levels break the bound.
    """
    _check_gap_eps(eps)
    d = 2
    x1 = FreePoly.letter(1, d)
    x2 = FreePoly.letter(2, d)
    zero = FreePoly.zero(d)
    top = (x2 * x1 - 1) * (1.0 / eps)
    return PolyMatrix(
        [
            [top, zero, zero],
            [zero, x1 * (1.0 / (1.0 + eps)), zero],
            [zero, zero, x2 * (1.0 / (1.0 + eps))],
        ]
    )


def lens_delta() -> PolyMatrix:
    """One-letter arrangement diag(x, x-1); its domain is a lens around (0,1)."""
    d = 1
    x = FreePoly.letter(1, d)
    zero = FreePoly.zero(d)
    return PolyMatrix([[x, zero], [zero, x - 1]])


# --- coordinate recovery ------------------------------------------------------


def compose_with_entries(h: FreePoly, delta: PolyMatrix) -> FreePoly:
    """Substitute the entries of delta (row-major) for the letters of h.

    ``h`` must be a polynomial in I*J letters; the result is a polynomial in
    delta's own d letters.
    """
    if h.d != delta.I * delta.J:
        raise ShapeError(
            f"h has {h.d} letters but delta has {delta.I * delta.J} entries"
        )
    flat = [delta.entry(i, j) for i in range(delta.I) for j in range(delta.J)]
    return h.substitute(flat)


def verify_separating_witnesses(
    delta: PolyMatrix, witnesses: Sequence[FreePoly]
) -> tuple[bool, list[str]]:
    """Check that witness polynomials recover every coordinate from delta's entries.

    Witness r (a polynomial in I*J slot letters) must satisfy
    witness_r(delta entries) == x^r exactly as polynomials.  Returns the overall
    verdict and a per-coordinate detail list.  No search is attempted; the
    witnesses are user-supplied claims that we verify symbolically.
    """
    details: list[str] = []
    ok = True
    if len(witnesses) != delta.d:
        raise ShapeError(f"need {delta.d} witnesses, got {len(witnesses)}")
    for r, h in enumerate(witnesses, start=1):
        composed = compose_with_entries(h, delta)
        target = FreePoly.letter(r, delta.d)
        if composed == target:
            details.append(f"coordinate {r}: recovered exactly")
        else:
            ok = False
            details.append(f"coordinate {r}: composition differs from x^{r}")
    return ok, details
