"""The three closed-loop workloads of the freecalc benchmark.

A workload turns (seed, stream, op index) into one input with ``make``, runs
one operation on it with ``run`` (the only timed call), and checks the output
with ``check``, which raises ``CheckFailed`` and otherwise returns counters.
Warm-up makes ops 0 .. ``warm_ops - 1`` on the WARM stream, which covers
every matrix size class the workload uses, so first-call costs (library
start-up, the first allocation at each size) land in set-up, not in latency.
``period`` is the length of the workload's rotation of op kinds.

``run`` calls freecalc through module attributes (``funcalc.sharp``, not a
name imported here), so the traced run sees the wrappers rebound in those
modules.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from freecalc import cli, funcalc, serialize, spectral
from freecalc.freepoly import FreePoly, diag_delta, gap_delta, row_delta
from freecalc.matrix_core import MatrixTuple, op_norm, random_matrix
from freecalc.realization import random_isometric

TIMED, WARM = 0, 1
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, i))


def _norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a), 2))


class CalcIsometric:
    """``freecalc calc --job J --out R`` through ``cli.main`` on random isometric models.

    Four shapes give loop dimensions N = n*J*m of 96, 192, 288 (row_delta(3)
    with n = 8, 16, 24 and m = 4) and 72 (diag_delta(2), n = 12, m = 3).  The
    rotation of five ops holds N = 192 twice, so that p50 lies inside that
    shape's latencies and p90 inside those of N = 288, not on the gap between
    two shapes.  The scaled
    point norm t runs over [0.5, 0.8] on a seeded golden-ratio sequence, so
    every prefix of the run covers that range evenly and the term count of
    the geometric stopping rule (about 34 to 110) is spread the same way on
    every seed.
    """

    name = "calc-isometric"
    SHAPES = (("row", 8, 4), ("row", 16, 4), ("diag", 12, 3), ("row", 16, 4), ("row", 24, 4))

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.deltas = {"row": row_delta(3), "diag": diag_delta(2)}
        self.job_path = os.path.join(workdir, "job.json")
        self.out_path = os.path.join(workdir, "report.json")
        self.phase = float(np.random.default_rng((seed, 2)).random())

    warm_ops = period = len(SHAPES)

    def make(self, i: int, stream: int = TIMED) -> dict:
        rng = _rng(self.seed, stream, i)
        kind, n, m = self.SHAPES[i % len(self.SHAPES)]
        delta = self.deltas[kind]
        t = 0.5 + 0.3 * ((self.phase + i * _GOLDEN) % 1.0)
        F = random_isometric(delta.I, delta.J, m, 1, 1, rng)
        coords = [random_matrix(n, n, rng) for _ in range(delta.d)]
        # With params.s unset, sharp picks s = (t0 + 1) / 2, so ||delta(T)|| = t / (2 - t)
        # makes the scaled norm exactly t.
        scale = (t / (2.0 - t)) / op_norm(delta.eval(MatrixTuple(coords)))
        T = MatrixTuple([c * scale for c in coords])
        job = {"F": serialize.encode(F), "delta": serialize.encode(delta), "T": serialize.encode(T)}
        with open(self.job_path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps_canonical(job))
        return {"t": t}

    def run(self, inp: dict) -> int:
        return cli.main(["calc", "--job", self.job_path, "--out", self.out_path])

    def check(self, inp: dict, code: int) -> dict:
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(self.out_path, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        certs = report["certificates"]
        if not report["ok"] or not certs or not all(c["passed"] for c in certs):
            raise CheckFailed("a certificate did not pass")
        if abs(report["t"] - inp["t"]) > 1e-9:
            raise CheckFailed(f"report t={report['t']} but the job was made for t={inp['t']}")
        v = report["value"]
        value = np.array([re + 1j * im for re, im in v["data"]]).reshape(v["rows"], v["cols"])
        if _norm(value) > 1.0 + 1e-8:
            raise CheckFailed(f"||value|| = {_norm(value)} exceeds 1")
        return {"report_bytes": len(raw)}


class SampleGap:
    """``sup_norm_estimate`` of ||x1 x2 - 1|| on gap_delta(0.1) with the gap proposal.

    Ops cycle mass, mass, refine; each group of three stays on one level and
    the levels cycle 2, 3, 4.  A mass op is 200 trials without ascent, a
    refine op 20 trials with 15 ascent steps each.  About half the level-4
    proposals are admissible, so 20 trials leave an op without an admissible
    start with odds near 1e-6, where 5 trials would leave about 3% of them
    without one.  Every op has its own sampler seed, derived from the
    workload seed.
    """

    name = "sample-gap"
    EPS = 0.1
    LEVELS = (2, 3, 4)

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.delta = gap_delta(self.EPS)
        self.objective = FreePoly.letter(1, 2) * FreePoly.letter(2, 2) - 1
        proposal = spectral.gap_domain_proposal(self.EPS)
        self.proposal = tracer.wrap("spectral.proposal", proposal) if tracer else proposal

    warm_ops = period = 3 * len(LEVELS)

    def make(self, i: int, stream: int = TIMED) -> spectral.SampleConfig:
        refine = i % 3 == 2
        level = self.LEVELS[(i // 3) % len(self.LEVELS)]
        op_seed = int(np.random.SeedSequence((self.seed, stream, i)).generate_state(1)[0])
        return spectral.SampleConfig(
            levels=(level,),
            trials_per_level=20 if refine else 200,
            ascent_steps=15 if refine else 0,
            seed=op_seed,
        )

    def run(self, cfg: spectral.SampleConfig):
        return spectral.sup_norm_estimate(self.objective, self.delta, cfg, proposal=self.proposal)

    def check(self, cfg, rep) -> dict:
        bound = self.EPS + 4.0 * self.EPS**2
        if rep.admissible < 1 or rep.estimate is None:
            raise CheckFailed("no admissible sample")
        if rep.estimate > bound:
            raise CheckFailed(f"estimate {rep.estimate} exceeds eps + 4 eps^2 = {bound}")
        return {"trials": rep.trials, "admissible": rep.admissible}


class CompiledPoly:
    """``compile_polynomial`` + ``sharp`` at tuples with max ||T_j|| = 1.5.

    Every fourth op is (x1 + x2)^4 on diag_delta(2) at n = 6 (m = 64,
    N = 768); that share keeps p90 inside this slow mode rather than on the
    edge between the two modes.  The other ops are random sparse two-letter
    polynomials on diag_delta(2) and row_delta(2) with n in {4, 6, 8}: a
    constant plus three words of distinct lengths from 1 to 4, so that
    m = 6, 7, 8 or 9.  Delta, n and the word lengths follow a fixed rotation
    and only letters, coefficients and T are drawn, so every seed gets the
    same mix of sizes.
    """

    name = "compiled-poly"
    SIZES = (4, 6, 8)
    LENGTHS = ((1, 2, 3), (2, 3, 4), (1, 2, 4), (1, 3, 4))

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.seed = seed
        self.deltas = (diag_delta(2), row_delta(2))
        self.heavy = (FreePoly.letter(1, 2) + FreePoly.letter(2, 2)) ** 4

    # Ops 0..7 cover every (delta, n) pair of the light ops and the heavy op.
    warm_ops = 8
    period = 4

    def make(self, i: int, stream: int = TIMED) -> tuple:
        rng = _rng(self.seed, stream, i)
        if i % 4 == 3:
            P, delta, n = self.heavy, self.deltas[0], 6
        else:
            j = 3 * (i // 4) + i % 4
            delta = self.deltas[j % 2]
            n = self.SIZES[(j // 2) % len(self.SIZES)]
            terms = {(): complex(*rng.standard_normal(2))}
            for q in self.LENGTHS[(j // 6) % len(self.LENGTHS)]:
                word = tuple(int(x) for x in rng.integers(1, 3, size=q))
                terms[word] = complex(*rng.standard_normal(2))
            P = FreePoly(2, terms)
        coords = [random_matrix(n, n, rng) for _ in range(2)]
        T = MatrixTuple([c * (1.5 / op_norm(c)) for c in coords])
        return P, delta, T

    def run(self, inp: tuple) -> np.ndarray:
        P, delta, T = inp
        F = funcalc.compile_polynomial(P, delta)
        return funcalc.sharp(F, delta, T).value

    def check(self, inp: tuple, value) -> dict:
        P, _, T = inp
        want = P.eval(T)
        err = _norm(value - want)
        if not err <= 1e-8 * max(1.0, _norm(want)):
            raise CheckFailed(f"||value - P(T)|| = {err}")
        return {}


WORKLOADS = {w.name: w for w in (CalcIsometric, SampleGap, CompiledPoly)}
