"""Byte-compare freecalc reports between a parent tree and this tree.

    python3 tools/report_compare.py PARENT_TREE

PARENT_TREE is a checkout with its own ``src/`` (for instance made with
``git archive``).  In each tree the script runs, with that tree's ``src`` on
``PYTHONPATH``,

* ``freecalc experiment NAME --seed 0`` for every experiment but ``custom``;
* ``freecalc calc --job J`` on four stock jobs: random isometric models on
  ``row_delta(3)`` at n = 8, m = 4 and on ``diag_delta(2)`` at n = 12, m = 3
  (a square 2 x 2 block grid), the compile of ``(x1 + x2)^4`` on
  ``diag_delta(2)`` at n = 6, and the compile of ``x1`` on ``row_delta(1)``
  (V = [[0, 1], [1, 0]], isometric and nilpotent) at n = 4 with
  ||T|| = 0.5, so its contractive, geometric and term-bound certificates
  read the model's isometry defect;
* ``freecalc spectral-check`` of a 23-member random family on
  ``diag_delta(2)`` at a level-3 tuple outside the domain, so every
  violation's right-hand side comes from the sampler's ascents;
* ``freecalc spectral-check`` of a 9-member family from the same generator
  with K = 0.8 and 250 ascent steps, so that ``potential`` violations appear
  and every climb runs past step 200, after which a climb that never
  improves (the constant member's) has decayed its step 20 times;
* ``freecalc supnorm`` of ``x1 x2 + x3`` on ``row_delta(3)`` with 20 ascent
  steps per admissible sample;
* ``freecalc supnorm`` of the same objective on ``diag_delta(3)`` at levels 8
  and 16, 1000 trials each and no ascent, so the default proposal's stacked
  rescale runs over several sampler chunks per level (3 at level 8, 10 at
  level 16, with a 4 MiB chunk);
* ``freecalc supnorm`` of ``x1 x2 x3`` on ``row_delta(3)`` with 40 trials
  per level and 250 ascent steps: each level's 21 admissible starts climb in
  one stacked ascent, every climb all 250 steps;
* ``freecalc supnorm`` of the 4 x 4 matrix with every entry x1 on
  ``row_delta(1)`` at level 8, 1024 trials and 3 ascent steps: the objective
  is 16 times as wide as delta's value, so its 616 admissible starts climb
  in groups sized by the objective (240, 240 and 136 climbs, with a 4 MiB
  chunk) within one sampler chunk.

The stock inputs are written once, with this tree's freecalc, and handed to
both trees.

For each report it prints ``identical`` when the bytes match, and otherwise
``differs`` with the largest absolute and relative differences between
matching floats, then the path of each other value that differs (a bool,
int, string or null, an array whose length differs, or a key that only one
side has), one per line.  Objects are compared on the keys both sides
share, so a removed key does not hide its siblings.
The exit code is 0 when every report is identical and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _random_family(d: int, count: int, max_len: int, seed: int) -> list:
    """The constant 1, the coordinates, then ``count`` seeded sparse polynomials
    of 1-4 words of length <= max_len with complex Gaussian coefficients, each
    a 1 x 1 polynomial matrix."""
    from freecalc.freepoly import FreePoly, PolyMatrix
    from freecalc.matrix_core import task_rng

    polys = [FreePoly.one(d)] + [FreePoly.letter(j, d) for j in range(1, d + 1)]
    words = [w for length in range(max_len + 1) for w in product(range(1, d + 1), repeat=length)]
    for idx in range(count):
        rng = task_rng(seed, 0xFA, idx)
        p = FreePoly.zero(d)
        for _ in range(int(rng.integers(1, 5))):
            w = words[int(rng.integers(0, len(words)))]
            p = p + FreePoly.monomial(w, d, complex(rng.standard_normal(), rng.standard_normal()))
        polys.append(FreePoly.one(d) if p.is_zero() else p)
    return [PolyMatrix([[p]]) for p in polys]


def write_inputs(workdir: Path) -> dict[str, list[str]]:
    """The stock calc, spectral-check and supnorm runs, with their input files
    written with this tree's freecalc."""
    from freecalc.freepoly import FreePoly, PolyMatrix, diag_delta, row_delta
    from freecalc.funcalc import compile_polynomial
    from freecalc.matrix_core import MatrixTuple, op_norm, random_matrix, task_rng
    from freecalc.realization import random_isometric
    from freecalc.serialize import dumps_canonical, encode

    def write(name: str, obj) -> str:
        path = workdir / f"{name}.json"
        path.write_text(dumps_canonical(obj), encoding="utf-8")
        return str(path)

    rng = task_rng(0, 0xCA1C)
    delta = row_delta(3)
    coords = [random_matrix(8, 8, rng) for _ in range(delta.d)]
    scale = 0.6 / op_norm(delta.eval(MatrixTuple(coords)))
    isometric = {"F": random_isometric(delta.I, delta.J, 4, 1, 1, rng), "delta": delta,
                 "T": MatrixTuple([c * scale for c in coords])}
    delta = diag_delta(2)
    x1, x2 = FreePoly.letter(1, 2), FreePoly.letter(2, 2)
    coords = [random_matrix(6, 6, rng) for _ in range(2)]
    compiled = {"F": compile_polynomial((x1 + x2) ** 4, delta), "delta": delta,
                "T": MatrixTuple([c * (1.5 / op_norm(c)) for c in coords])}
    square_rng = task_rng(0, 0xCA1C, 2)  # its own stream: the other inputs stay as they were
    coords = [random_matrix(12, 12, square_rng) for _ in range(delta.d)]
    scale = 0.6 / op_norm(delta.eval(MatrixTuple(coords)))
    square = {"F": random_isometric(delta.I, delta.J, 3, 1, 1, square_rng), "delta": delta,
              "T": MatrixTuple([c * scale for c in coords])}
    letter_rng = task_rng(0, 0xCA1C, 3)  # its own stream, as square_rng's
    c = random_matrix(4, 4, letter_rng)
    letter = {"F": compile_polynomial(FreePoly.letter(1, 1), row_delta(1)),
              "delta": row_delta(1), "T": MatrixTuple([c * (0.5 / op_norm(c))])}
    runs = {}
    for name, job in (("calc-isometric", isometric), ("calc-isometric-square", square),
                      ("calc-compiled", compiled), ("calc-compiled-letter", letter)):
        runs[name] = ["calc", "--job", write(f"{name}.job",
                                             {k: encode(v) for k, v in job.items()})]

    sampling = ["--levels", "1,2,3", "--seed", "0"]
    coords = [random_matrix(3, 3, rng) for _ in range(2)]
    scale = 1.4 / op_norm(delta.eval(MatrixTuple(coords)))
    diag, outside = write("diag-delta", encode(delta)), write(
        "outside-tuple", encode(MatrixTuple([c * scale for c in coords])))
    runs["spectral-check"] = [
        "spectral-check", "--delta", diag, "--tuple", outside,
        "--family", write("family", [encode(p) for p in _random_family(2, 20, 3, seed=5)]),
        "--trials", "8", "--ascent", "12", *sampling]
    runs["spectral-check-long"] = [
        "spectral-check", "--delta", diag, "--tuple", outside,
        "--family", write("family-short", [encode(p) for p in _random_family(2, 6, 3, seed=5)]),
        "--k", "0.8", "--trials", "2", "--ascent", "250", *sampling]
    x1, x2, x3 = (FreePoly.letter(j, 3) for j in (1, 2, 3))
    objective = write("objective", encode(x1 * x2 + x3))
    row = write("row-delta", encode(row_delta(3)))
    runs["supnorm"] = [
        "supnorm", "--poly", objective, "--delta", row, "--trials", "10", "--ascent", "20",
        *sampling]
    runs["supnorm-chunked"] = [
        "supnorm", "--poly", objective, "--delta", write("diag-delta-3", encode(diag_delta(3))),
        "--trials", "1000", "--ascent", "0", "--levels", "8,16", "--seed", "0"]
    runs["supnorm-long"] = [
        "supnorm", "--poly", write("objective-cubic", encode(x1 * x2 * x3)), "--delta", row,
        "--trials", "40", "--ascent", "250", *sampling]
    x1 = FreePoly.letter(1, 1)
    runs["supnorm-wide"] = [
        "supnorm", "--poly", write("objective-wide", encode(PolyMatrix([[x1] * 4] * 4))),
        "--delta", write("row-delta-1", encode(row_delta(1))),
        "--trials", "1024", "--ascent", "3", "--levels", "8", "--seed", "0"]
    return runs


def experiment_names() -> list[str]:
    from freecalc.experiments import EXPERIMENT_NAMES

    return [name for name in EXPERIMENT_NAMES if name != "custom"]


def run_report(tree: Path, argv: list[str], out: Path) -> tuple[int, bytes | None]:
    """Exit code and report bytes of ``freecalc ARGV --out OUT`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("FREECALC_SEED", None)
    proc = subprocess.run([sys.executable, "-m", "freecalc", *argv, "--out", str(out)],
                          cwd=out.parent, env=env, capture_output=True, check=False)
    return proc.returncode, out.read_bytes() if out.exists() else None


def diff(a, b, path: str = "$") -> tuple[float, float, list[str]]:
    """The largest absolute and relative differences between matching floats,
    and the path of every other value that differs: a bool, int, string or
    null, a type, an array's length, or a key only one side's object has.
    Two objects are compared on the keys they share."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, 0.0, []
        return abs(a - b), abs(a - b) / max(abs(a), abs(b)), []
    if isinstance(a, dict) and isinstance(b, dict):
        parts = [diff(a[k], b[k], f"{path}.{k}") for k in a if k in b]
        parts.append((0.0, 0.0, [f"{path}.{k}" for k in sorted(a.keys() ^ b.keys())]))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [diff(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return 0.0, 0.0, [] if a == b and type(a) is type(b) else [path]
    return (max((p[0] for p in parts), default=0.0), max((p[1] for p in parts), default=0.0),
            [leaf for p in parts for leaf in p[2]])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        sys.exit("usage: python3 tools/report_compare.py PARENT_TREE")
    parent = Path(args[0]).resolve()
    if not (parent / "src" / "freecalc" / "__init__.py").is_file():
        sys.exit(f"error: no freecalc sources under {parent / 'src'}")
    trees = {"parent": parent, "change": HERE}
    sys.path.insert(0, str(HERE / "src"))  # inputs and experiment names come from this tree
    all_same = True
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        reports = {name: ["experiment", name, "--seed", "0"] for name in experiment_names()}
        reports.update(write_inputs(workdir))
        for name, argv_ in reports.items():
            results = {}
            for side, tree in trees.items():
                side_dir = workdir / side
                side_dir.mkdir(exist_ok=True)
                results[side] = run_report(tree, argv_, side_dir / f"{name}.json")
            (p_code, p_raw), (c_code, c_raw) = results["parent"], results["change"]
            if p_raw is None or c_raw is None:
                verdict = f"differs: no report (exit {p_code} parent, {c_code} change)"
            elif p_raw == c_raw and p_code == c_code:
                verdict = "identical"
            else:
                absolute, rel, leaves = diff(json.loads(p_raw), json.loads(c_raw))
                verdict = (f"differs: exit {p_code} parent, {c_code} change, "
                           f"max float difference {absolute:.3g} absolute, {rel:.3g} relative"
                           + "".join(f"\n  other value differs: {leaf}" for leaf in leaves))
            all_same &= verdict == "identical"
            print(f"{name}: {verdict}", flush=True)
    return 0 if all_same else 1


if __name__ == "__main__":
    raise SystemExit(main())
