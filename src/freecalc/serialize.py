"""Canonical JSON for every domain type, plus report rendering.

Wire formats:

* complex number: two-element array ``[re, im]``
* matrix: ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` with ``data``
  flat row-major (length R*C)
* matrix tuple: ``{"n": ..., "d": ..., "coords": [matrix, ...]}``
* free polynomial: ``{"d": ..., "terms": [{"word": [...], "coeff": [re, im]}, ...]}``
  with terms sorted by (length, lexicographic) word order, no zero
  coefficients, no duplicate words
* polynomial matrix: ``{"I": ..., "J": ..., "entries": [[poly, ...], ...]}``
* colligation: ``{"k1", "k2", "I", "J", "m", "A", "B", "C", "D",
  "isometric_certified"}`` — the flag is recomputed on load and the file must
  agree with the recomputation
* evaluation job: ``{"F": colligation, "delta": polymatrix, "T": tuple,
  "params": {"s", "tol", "max_terms"}}``
* report (any dataclass, ``CalcParams`` and ``SampleConfig`` included): an
  object with one key per dataclass field, plus ``ok`` where the class
  defines it; tuples become arrays, non-finite floats become null, and
  nested domain objects and reports use their own formats

Loading is strict: unknown keys, wrong arity, or non-finite numbers raise
ValidationError with a path into the document.  ``dumps_canonical`` emits
sorted keys and two-space indentation so equal values serialize to equal
bytes: for a payload whose object keys are strings, its text equals
``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)`` plus a
newline, byte for byte, which a property test in ``tests/test_serialize.py``
pins.  A small recursive writer makes that text, because ``json.dumps`` falls
back to its pure-Python encoder whenever ``indent`` is set.
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import DomainError, ValidationError
from .freepoly import FreePoly, PolyMatrix, _canon_key
from .funcalc import CalcParams
from .matrix_core import MatrixTuple, as_array
from .realization import Colligation


# --- encoding -----------------------------------------------------------------


def _enc_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _enc_matrix(a) -> dict:
    arr = as_array(a)
    rows, cols = arr.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": np.ascontiguousarray(arr).view(np.float64).reshape(-1, 2).tolist(),
    }


def _enc_tuple(x: MatrixTuple) -> dict:
    return {
        "n": x.n,
        "d": x.d,
        "coords": [_enc_matrix(c) for c in x.coords],
    }


def _enc_poly(p: FreePoly) -> dict:
    return {
        "d": p.d,
        "terms": [
            {"word": [int(i) for i in w], "coeff": _enc_complex(c)}
            for w, c in p.sorted_terms()
        ],
    }


def _enc_polymatrix(p: PolyMatrix) -> dict:
    return {
        "I": p.I,
        "J": p.J,
        "entries": [[_enc_poly(p.entry(i, j)) for j in range(p.J)] for i in range(p.I)],
    }


def _enc_colligation(F: Colligation) -> dict:
    return {
        "k1": F.k1,
        "k2": F.k2,
        "I": F.I,
        "J": F.J,
        "m": F.m,
        "A": _enc_matrix(F.A),
        "B": _enc_matrix(F.B),
        "C": _enc_matrix(F.C),
        "D": _enc_matrix(F.D),
        "isometric_certified": F.isometric_certified,
    }


def _num(x: float) -> float | None:
    """Floats for JSON: non-finite values become null (allow_nan is off)."""
    x = float(x)
    return x if math.isfinite(x) else None


def _enc_field(v) -> Any:
    """One report field: tuples become lists, floats go through _num, and
    domain objects and nested reports go through encode()."""
    if isinstance(v, tuple):
        return [_enc_field(e) for e in v]
    if isinstance(v, float):
        return _num(v)
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return encode(v)


def encode(obj) -> Any:
    """Map a domain object or report onto plain JSON-ready data.

    A report (any dataclass) encodes as its fields, plus ``ok`` when its
    class defines one.
    """
    if isinstance(obj, np.ndarray):
        return _enc_matrix(obj)
    if isinstance(obj, MatrixTuple):
        return _enc_tuple(obj)
    if isinstance(obj, FreePoly):
        return _enc_poly(obj)
    if isinstance(obj, PolyMatrix):
        return _enc_polymatrix(obj)
    if isinstance(obj, Colligation):
        return _enc_colligation(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: _enc_field(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if hasattr(type(obj), "ok"):
            out["ok"] = obj.ok
        return out
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


def _dump_pairs(items: list | tuple, inner: str) -> str | None:
    """The body of a nonempty list of ``[re, im]`` float pairs (a matrix's
    ``data``) in one join, or None when ``items`` is not such a list."""
    if type(items[0]) is not list or set(map(type, items)) != {list}:
        return None
    if set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    reprs = list(map(float.__repr__, flat))
    outer, deep = "\n" + inner, "\n" + inner + "  "
    pairs = map(("," + deep).join, zip(reprs[0::2], reprs[1::2]))
    return "[" + deep + (outer + "]," + outer + "[" + deep).join(pairs) + outer + "]"


def _dump(o, indent: str) -> str:
    """``o`` as ``json.dumps(o, sort_keys=True, indent=2, allow_nan=False)``
    writes it, starting on a line indented by ``indent``; object keys must be
    strings."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    inner = indent + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = _dump_pairs(o, inner)
        if body is None:
            body = (",\n" + inner).join([_dump(v, inner) for v in o])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = sorted(o.items())
        body = (",\n" + inner).join(
            [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}" for k, v in items]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps_canonical(obj) -> str:
    """Canonical text: encoded payload, sorted keys, 2-space indent, no NaN."""
    payload = encode(obj) if not isinstance(obj, (dict, list)) else obj
    return _dump(payload, "") + "\n"


# --- decoding -----------------------------------------------------------------


def _want_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ValidationError(f"expected an object, got {type(v).__name__}", path)
    return v


def _want_keys(v: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    missing = required - v.keys()
    if missing:
        raise ValidationError(f"missing key(s) {sorted(missing)}", path)
    extra = v.keys() - required - optional
    if extra:
        raise ValidationError(f"unknown key(s) {sorted(extra)}", path)


def _want_int(v, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"expected an integer, got {type(v).__name__}", path)
    if minimum is not None and v < minimum:
        raise ValidationError(f"expected an integer >= {minimum}, got {v}", path)
    return v


def _want_real(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"expected a number, got {type(v).__name__}", path)
    try:
        v = float(v)
    except OverflowError:  # an integer past float range
        v = math.inf
    if not math.isfinite(v):
        raise ValidationError("expected a finite number", path)
    return v


def _want_list(v, path: str, length: int | None = None) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"expected an array, got {type(v).__name__}", path)
    if length is not None and len(v) != length:
        raise ValidationError(f"expected {length} element(s), got {len(v)}", path)
    return v


def _want_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ValidationError(f"expected a boolean, got {type(v).__name__}", path)
    return v


def _dec_complex(v, path: str) -> complex:
    arr = _want_list(v, path)
    if len(arr) != 2:
        raise ValidationError(
            f"a complex scalar is a 2-array [re, im], got {len(arr)} element(s)", path
        )
    re = _want_real(arr[0], f"{path}[0]")
    im = _want_real(arr[1], f"{path}[1]")
    return complex(re, im)


def decode_matrix(v, path: str = "$") -> np.ndarray:
    """Decode a matrix as a read-only complex128 array with finite entries."""
    obj = _want_dict(v, path)
    _want_keys(obj, path, {"rows", "cols", "data"})
    rows = _want_int(obj["rows"], f"{path}.rows", minimum=0)
    cols = _want_int(obj["cols"], f"{path}.cols", minimum=0)
    data = _want_list(obj["data"], f"{path}.data", length=rows * cols)
    out = _dec_cells(data)
    if out is None:  # walk the cells to name the first bad one
        out = np.zeros(len(data), dtype=np.complex128)
        for idx, cell in enumerate(data):
            out[idx] = _dec_complex(cell, f"{path}.data[{idx}]")
    try:
        out = out.reshape(rows, cols)
    except ValueError:  # an empty matrix whose other dimension numpy cannot shape
        key = "rows" if rows else "cols"
        raise ValidationError(f"{max(rows, cols)} is past numpy's array limits",
                              f"{path}.{key}") from None
    out.setflags(write=False)
    return out


def _dec_cells(data: list) -> np.ndarray | None:
    """A matrix's ``data`` as a flat complex128 array in one conversion, or
    None unless every cell is an ``[re, im]`` list of finite ints or floats
    (bools excluded)."""
    if set(map(type, data)) != {list} or set(map(len, data)) != {2}:
        return None
    flat = list(chain.from_iterable(data))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        vals = np.fromiter(flat, dtype=np.float64, count=len(flat))
    except OverflowError:  # an integer past float range
        return None
    if not np.isfinite(vals).all():
        return None
    return vals.view(np.complex128)


def decode_tuple(v, path: str = "$") -> MatrixTuple:
    obj = _want_dict(v, path)
    _want_keys(obj, path, {"n", "d", "coords"})
    n = _want_int(obj["n"], f"{path}.n", minimum=1)
    d = _want_int(obj["d"], f"{path}.d", minimum=1)
    coords = _want_list(obj["coords"], f"{path}.coords", length=d)
    mats = []
    for idx, c in enumerate(coords):
        m = decode_matrix(c, f"{path}.coords[{idx}]")
        if m.shape != (n, n):
            raise ValidationError(
                f"coordinate is {m.shape[0]}x{m.shape[1]}, expected {n}x{n}",
                f"{path}.coords[{idx}]",
            )
        mats.append(m)
    return MatrixTuple(mats)


def decode_poly(v, path: str = "$") -> FreePoly:
    obj = _want_dict(v, path)
    _want_keys(obj, path, {"d", "terms"})
    d = _want_int(obj["d"], f"{path}.d", minimum=1)
    terms = _want_list(obj["terms"], f"{path}.terms")
    seen: dict[tuple, complex] = {}
    order: list[tuple] = []
    for idx, t in enumerate(terms):
        tp = f"{path}.terms[{idx}]"
        td = _want_dict(t, tp)
        _want_keys(td, tp, {"word", "coeff"})
        word_raw = _want_list(td["word"], f"{tp}.word")
        word = tuple(
            _want_int(l, f"{tp}.word[{k}]", minimum=1) for k, l in enumerate(word_raw)
        )
        for k, letter in enumerate(word):
            if letter > d:
                raise ValidationError(
                    f"letter {letter} outside alphabet 1..{d}", f"{tp}.word[{k}]"
                )
        coeff = _dec_complex(td["coeff"], f"{tp}.coeff")
        if coeff == 0:
            raise ValidationError("zero coefficient not allowed in canonical form", tp)
        if word in seen:
            raise ValidationError(f"duplicate word {list(word)}", f"{tp}.word")
        seen[word] = coeff
        order.append(word)
    canon = sorted(order, key=_canon_key)
    if order != canon:
        raise ValidationError(
            "terms not in canonical (length, lexicographic) order", f"{path}.terms"
        )
    return FreePoly(d, seen)


def decode_polymatrix(v, path: str = "$") -> PolyMatrix:
    obj = _want_dict(v, path)
    _want_keys(obj, path, {"I", "J", "entries"})
    I = _want_int(obj["I"], f"{path}.I", minimum=1)
    J = _want_int(obj["J"], f"{path}.J", minimum=1)
    rows = _want_list(obj["entries"], f"{path}.entries", length=I)
    grid = []
    for i, row in enumerate(rows):
        cells = _want_list(row, f"{path}.entries[{i}]", length=J)
        grid.append(
            [decode_poly(c, f"{path}.entries[{i}][{j}]") for j, c in enumerate(cells)]
        )
    ds = {p.d for row in grid for p in row}
    if len(ds) > 1:
        raise ValidationError(
            f"entries disagree on the alphabet size: {sorted(ds)}", f"{path}.entries"
        )
    return PolyMatrix(grid)


def decode_colligation(v, path: str = "$") -> Colligation:
    obj = _want_dict(v, path)
    _want_keys(obj, path, {"k1", "k2", "I", "J", "m", "A", "B", "C", "D",
                           "isometric_certified"})
    k1 = _want_int(obj["k1"], f"{path}.k1", minimum=0)
    k2 = _want_int(obj["k2"], f"{path}.k2", minimum=0)
    I = _want_int(obj["I"], f"{path}.I", minimum=1)
    J = _want_int(obj["J"], f"{path}.J", minimum=1)
    m = _want_int(obj["m"], f"{path}.m", minimum=0)
    shapes = {
        "A": (k2, k1),
        "B": (k2, I * m),
        "C": (J * m, k1),
        "D": (J * m, I * m),
    }
    blocks = {}
    for name, (r, c) in shapes.items():
        mat = decode_matrix(obj[name], f"{path}.{name}")
        if mat.shape != (r, c):
            raise ValidationError(
                f"block {name} is {mat.shape[0]}x{mat.shape[1]}, expected {r}x{c}",
                f"{path}.{name}",
            )
        blocks[name] = mat
    claimed = _want_bool(obj["isometric_certified"], f"{path}.isometric_certified")
    try:
        F = Colligation(blocks["A"], blocks["B"], blocks["C"], blocks["D"], I, J)
    except DomainError as exc:
        raise ValidationError(str(exc), path) from exc
    if F.isometric_certified != claimed:
        raise ValidationError(
            f"stored isometric_certified={claimed} contradicts the recomputed "
            f"defect {F.isometry_defect:.3e}",
            f"{path}.isometric_certified",
        )
    return F


def decode_params(v, path: str = "$") -> CalcParams:
    obj = _want_dict(v, path)
    _want_keys(obj, path, set(), {"s", "tol", "max_terms"})
    kwargs = {}
    if "s" in obj and obj["s"] is not None:
        kwargs["s"] = _want_real(obj["s"], f"{path}.s")
    if "tol" in obj:
        kwargs["tol"] = _want_real(obj["tol"], f"{path}.tol")
    if "max_terms" in obj:
        kwargs["max_terms"] = _want_int(obj["max_terms"], f"{path}.max_terms", minimum=1)
    try:
        return CalcParams(**kwargs)
    except Exception as exc:
        raise ValidationError(str(exc), path) from exc


def decode_job(v, path: str = "$") -> dict:
    obj = _want_dict(v, path)
    _want_keys(obj, path, {"F", "delta", "T"}, {"params"})
    return {
        "F": decode_colligation(obj["F"], f"{path}.F"),
        "delta": decode_polymatrix(obj["delta"], f"{path}.delta"),
        "T": decode_tuple(obj["T"], f"{path}.T"),
        "params": decode_params(obj.get("params", {}), f"{path}.params"),
    }


_DETECTORS = (
    ("job", {"F", "delta", "T"}, decode_job),
    ("colligation", {"A", "B", "C", "D"}, decode_colligation),
    ("matrix", {"rows", "cols", "data"}, decode_matrix),
    ("tuple", {"n", "coords"}, decode_tuple),
    ("polymatrix", {"entries"}, decode_polymatrix),
    ("freepoly", {"terms"}, decode_poly),
)


def _detector(v, path: str):
    """The (name, decoder) entry of _DETECTORS whose keys the object ``v``
    has; anything else is an unrecognized document at ``path``."""
    if isinstance(v, dict):
        for name, keys, dec in _DETECTORS:
            if keys <= v.keys():
                return name, dec
    raise ValidationError(
        "unrecognized document: expected a matrix, tuple, polynomial, "
        "polynomial matrix, colligation, or evaluation job",
        path,
    )


def detect_kind(v) -> str:
    """Name the domain type a JSON object encodes, from its key shape."""
    return _detector(_want_dict(v, "$"), "$")[0]


def decode_any(v, path: str = "$"):
    """Decode a JSON object of any supported domain type (detected by keys)."""
    _, dec = _detector(v, path)
    return dec(v, path)


def parse_json(text: str, source: str | None = None):
    """Parse JSON text; a syntax error becomes a ValidationError at its line
    and column, and nesting too deep for the parser or an integer literal
    too long to convert a ValidationError at the root, each naming ``source``
    (a file path) when given."""
    where = f" in {source}" if source else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"invalid JSON{where}: {exc.msg}", "$", line=exc.lineno, col=exc.colno
        ) from exc
    except RecursionError as exc:
        raise ValidationError(f"invalid JSON{where}: nested too deeply", "$") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ValidationError(f"invalid JSON{where}: {exc}", "$") from exc


def read_json(path: str):
    """parse_json() for a file on disk.  A file that cannot be read, or is
    not UTF-8, is a ValidationError naming the path; a missing file stays
    FileNotFoundError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}", "$") from exc
    return parse_json(text, path)


def loads(text: str):
    """Parse and decode a JSON document of any supported domain type."""
    return decode_any(parse_json(text))


def load_path(path: str):
    """loads() for a file on disk."""
    return decode_any(read_json(path))
