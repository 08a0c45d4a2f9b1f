"""End-to-end acceptance gate.

Thirteen checks covering the whole stack at sweep scale: contractivity and
series envelopes of isometric models, closed-form agreement, homogeneous
term bounds with independent DFT extraction, the defect factorization,
direct-sum/similarity covariance, the named domain arrangements, sampled
sup-norm bounds, the commutator floor, compression monotonicity and its
failure mode, compiled-polynomial consistency, the block norm lemma, and
byte-level reproducibility of the experiment reports.

Each test prints one PASS line with the measured quantity so a log of the
run doubles as a results table.
"""

import time
from itertools import islice

import numpy as np
import pytest

from freecalc.errors import DomainError
from freecalc.freepoly import (
    FreePoly,
    PolyMatrix,
    diag_delta,
    e_lambda,
    gap_delta,
    row_delta,
)
from freecalc.funcalc import (
    CalcParams,
    compile_polynomial,
    poly_consistency,
    sharp,
)
from freecalc.matrix_core import (
    MatrixTuple,
    ampliate,
    cyclic_shift,
    direct_sum,
    op_norm,
    random_matrix,
    random_tuple,
    similarity,
    task_rng,
)
from freecalc.realization import (
    dft_points_for,
    eval_colligation,
    homog_extract_dft,
    homog_series,
    random_isometric,
    xfirst_direct_sum,
)
from freecalc.serialize import dumps_canonical
from freecalc.spectral import SampleConfig, compression_check
from freecalc.experiments import (
    run_custom,
    run_experiment,
    run_gap,
)


# --- shared material ---------------------------------------------------------------

# arrangements with I <= J, so square-state isometric models always exist
_DELTA_MENU = [
    e_lambda(1, 1),
    e_lambda(1, 2),
    e_lambda(2, 2),
    e_lambda(1, 3),
    e_lambda(2, 3),
    e_lambda(3, 3),
    diag_delta(2),
    diag_delta(3),
    row_delta(2),
    row_delta(3),
    row_delta(4),
]


def _ball_point(n: int, I: int, J: int, t: float, seed: int) -> np.ndarray:
    rng = task_rng(seed, 0xAC)
    g = random_matrix(n * I, n * J, rng)
    return g * (t / op_norm(g))


def _scaled_to(delta: PolyMatrix, x: MatrixTuple, target: float) -> MatrixTuple:
    """Rescale a tuple so the arrangement norm hits the target exactly.

    Every arrangement used here is linear with no constant term, so the
    norm scales with the tuple.
    """
    c = target / op_norm(delta.eval(x))
    return MatrixTuple(c * a for a in x.coords)


def _random_poly(d: int, rng: np.random.Generator, max_len: int = 3) -> FreePoly:
    terms = {}
    for _ in range(4):
        length = int(rng.integers(0, max_len + 1))
        word = tuple(int(rng.integers(1, d + 1)) for _ in range(length))
        terms[word] = complex(rng.standard_normal(), rng.standard_normal())
    # make sure it is not accidentally constant
    terms[(1,)] = terms.get((1,), 0.0) + 1.0
    return FreePoly(d, terms)


@pytest.fixture(scope="module")
def contractive_sweep():
    """100 isometric models on varied arrangements, points pushed to norm <= 0.9.

    Shared by the first three gate checks so the sweep runs once.
    """
    runs = []
    start = time.monotonic()
    for case in range(100):
        delta = _DELTA_MENU[case % len(_DELTA_MENU)]
        m = 1 + case % 4
        k = 1 + case % 2
        n = 1 + case % 3
        target = 0.2 + 0.7 * (case % 8) / 7.0
        F = random_isometric(delta.I, delta.J, m, k, k, 91_000 + case)
        T = _scaled_to(delta, random_tuple(n, delta.d, 1.0, 92_000 + case), target)
        rep = sharp(F, delta, T, CalcParams())
        runs.append((rep, float(op_norm(rep.value))))
    elapsed = time.monotonic() - start
    return runs, elapsed


def test_isometric_values_stay_contractive(contractive_sweep):
    runs, elapsed = contractive_sweep
    worst = max(v for _, v in runs)
    for rep, value_norm in runs:
        assert value_norm <= 1.0 + 1e-8
        assert rep.ok, [c for c in rep.certificates if not c.passed]
    assert elapsed <= 60.0
    print(f"PASS contractivity: max ||value|| = {worst:.9f} over 100 models "
          f"({elapsed:.1f}s)")


def test_series_norm_within_geometric_envelope(contractive_sweep):
    runs, _ = contractive_sweep
    slack = 0.0
    for rep, value_norm in runs:
        certs = {c.name: c for c in rep.certificates}
        env = certs["series_norm_geometric"]
        assert env.passed and env.lhs <= 1.0 / (1.0 - rep.t) + 1e-6
        assert value_norm <= 1.0 / (1.0 - rep.t) + 1e-6
        slack = max(slack, env.lhs - 1.0 / (1.0 - rep.t))
    print(f"PASS geometric envelope: max excess over 1/(1-t) = {slack:.3e}")


def test_truncated_series_matches_closed_form(contractive_sweep):
    runs, _ = contractive_sweep
    worst = 0.0
    for rep, _ in runs:
        assert rep.tail_bound is not None and rep.tail_bound <= 1e-10
        assert rep.closed_form_agreement is not None
        assert rep.closed_form_agreement <= 1e-9
        worst = max(worst, rep.closed_form_agreement)
    print(f"PASS two-path agreement: max |series - closed form| = {worst:.3e}")


def test_homogeneous_terms_bounded_and_dft_consistent():
    shapes = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]
    worst_excess = -np.inf
    worst_dft = 0.0
    for c in range(50):
        I, J = shapes[c % len(shapes)]
        m = 1 + c % 3
        k = 1 + c % 2
        F = random_isometric(I, J, m, k, k, 93_000 + c)
        for p in range(20):
            t = 0.3 + 0.65 * ((c * 20 + p) % 14) / 13.0
            n = 1 + p % 2
            y = _ball_point(n, I, J, t, 94_000 + c * 20 + p)
            for deg, term in islice(homog_series(F, y), 13):
                excess = op_norm(term) - t**deg
                worst_excess = max(worst_excess, excess)
                assert excess <= 1e-8
        # independent extraction of the same graded pieces by angle averaging
        t = 0.55
        y = _ball_point(1, I, J, t, 95_000 + c)
        for k_deg in range(5):
            n_angles = dft_points_for(k_deg, t, 1e-12)
            gap = op_norm(homog_extract_dft(F, y, k_deg, n_angles)
                          - next(islice(homog_series(F, y), k_deg, None))[1])
            worst_dft = max(worst_dft, gap)
            assert gap <= 1e-10
    print(f"PASS homogeneous bound: max ||P_k(y)|| - t^k = {worst_excess:.3e}, "
          f"max DFT gap = {worst_dft:.3e}")


def test_defect_factorization_residual_and_positivity():
    # I - F(Y)*F(Y) = W*(I - Y_M* Y_M)W with W the ampliated state resolvent
    # times C; Y_M is rebuilt from raw Kronecker products, independently of
    # the evaluator's internal einsum.
    shapes = [
        (1, 1, 1, 1, 1),
        (1, 1, 2, 1, 2),
        (2, 2, 2, 2, 2),
        (1, 2, 2, 2, 2),
        (2, 3, 1, 2, 1),
        (2, 2, 3, 1, 1),
        (1, 3, 2, 3, 1),
        (3, 3, 1, 2, 2),
    ]
    worst_res = 0.0
    worst_eig = np.inf
    for c in range(50):
        I, J, m, k1, k2 = shapes[c % len(shapes)]
        n = 1 + c % 3
        t = 0.4 + 0.5 * (c % 6) / 5.0
        F = random_isometric(I, J, m, k1, k2, 96_000 + c)
        y = _ball_point(n, I, J, t, 97_000 + c)
        ym = np.zeros((n * I * m, n * J * m), dtype=np.complex128)
        for i in range(I):
            for j in range(J):
                e = np.zeros((I, J))
                e[i, j] = 1.0
                block = y[i * n : (i + 1) * n, j * n : (j + 1) * n]
                ym += np.kron(block, np.kron(e, np.eye(m)))
        W = np.linalg.solve(np.eye(n * J * m) - ampliate(n, F.D) @ ym, ampliate(n, F.C))
        rhs = W.conj().T @ (np.eye(n * J * m) - ym.conj().T @ ym) @ W
        val = eval_colligation(F, y)
        lhs = np.eye(n * k1) - val.conj().T @ val
        res = op_norm(lhs - rhs)
        min_eig = float(np.linalg.eigvalsh((rhs + rhs.conj().T) / 2.0).min())
        worst_res = max(worst_res, res)
        worst_eig = min(worst_eig, min_eig)
        assert res <= 1e-9
        assert min_eig >= -1e-9
    print(f"PASS defect identity: max residual = {worst_res:.3e}, "
          f"min eigenvalue = {worst_eig:.3e} over 50 models")


def test_evaluations_respect_sums_and_similarities():
    worst_sum = 0.0
    worst_sim = 0.0

    # 100 polynomial cases: 50 direct sums, 50 similarities
    for c in range(50):
        d = 2 + c % 2
        rng = task_rng(98_000, c)
        p = _random_poly(d, rng)
        x = random_tuple(1 + c % 3, d, 0.8, 98_100 + c)
        y = random_tuple(1 + (c + 1) % 3, d, 0.7, 98_200 + c)
        big = p.eval(direct_sum(x, y))
        want = np.zeros_like(big)
        want[: x.n, : x.n] = p.eval(x)
        want[x.n :, x.n :] = p.eval(y)
        gap = op_norm(big - want)
        worst_sum = max(worst_sum, gap)
        assert gap <= 1e-10

        s = np.eye(x.n) + 0.3 * random_matrix(x.n, x.n, task_rng(98_300, c))
        lhs = p.eval(similarity(s, x))
        rhs = np.linalg.solve(s, p.eval(x) @ s)
        gap = op_norm(lhs - rhs)
        worst_sim = max(worst_sim, gap)
        assert gap <= 1e-8

    # 100 model cases through the coordinate arrangements
    menu = [(1, 1), (1, 2), (2, 2), (2, 3)]
    for c in range(50):
        I, J = menu[c % len(menu)]
        delta = e_lambda(I, J)
        F = random_isometric(I, J, 1 + c % 2, 1 + c % 2, 1 + c % 2, 99_000 + c)

        x1 = _scaled_to(delta, random_tuple(1 + c % 2, delta.d, 1.0, 99_100 + c), 0.85)
        x2 = _scaled_to(delta, random_tuple(1 + (c + 1) % 3, delta.d, 1.0, 99_200 + c), 0.8)
        v1 = eval_colligation(F, delta.eval(x1))
        v2 = eval_colligation(F, delta.eval(x2))
        big = eval_colligation(F, delta.eval(direct_sum(x1, x2)))
        gap = op_norm(big - xfirst_direct_sum(v1, v2, F.k2, F.k1))
        worst_sum = max(worst_sum, gap)
        assert gap <= 1e-10

        n = 2 + c % 2
        x = _scaled_to(delta, random_tuple(n, delta.d, 1.0, 99_300 + c), 0.35)
        s = np.eye(n) + 0.25 * random_matrix(n, n, task_rng(99_400, c))
        xs = similarity(s, x)
        inflate = op_norm(delta.eval(xs))
        if inflate > 0.9:  # conjugation can push toward the wall; back off
            x = MatrixTuple((0.9 / inflate) * a for a in x.coords)
            xs = similarity(s, x)
        lhs = eval_colligation(F, delta.eval(xs))
        val = eval_colligation(F, delta.eval(x))
        rhs = np.linalg.solve(np.kron(s, np.eye(F.k2)), val) @ np.kron(s, np.eye(F.k1))
        gap = op_norm(lhs - rhs)
        worst_sim = max(worst_sim, gap)
        assert gap <= 1e-8

    print(f"PASS sums/similarities: 200 cases, max direct-sum gap = {worst_sum:.3e}, "
          f"max similarity gap = {worst_sim:.3e}")


def test_diagonal_arrangement_norm_is_max_coordinate():
    worst = 0.0
    case = 0
    for d in (2, 3, 5):
        delta = diag_delta(d)
        for i in range(34 if d == 5 else 33):
            n = 1 + case % 4
            T = random_tuple(n, d, 0.3 + 1.5 * (case % 5) / 4.0, 100_000 + case)
            lhs = op_norm(delta.eval(T))
            rhs = max(op_norm(c) for c in T.coords)
            gap = abs(lhs - rhs)
            worst = max(worst, gap)
            assert gap <= 1e-12 * max(1.0, rhs)
            case += 1
    assert case == 100
    print(f"PASS diagonal norm identity: max |gap| = {worst:.3e} over 100 tuples")


def test_near_inverse_product_sup_within_quadratic_bound():
    # sup ||x y - 1|| over the domain where the product is eps-close to the
    # identity: the sampled estimate must respect eps + 4 eps^2
    trials = {0.05: 20_000, 0.1: 6_000, 0.15: 6_000}
    for eps in (0.05, 0.1, 0.15):
        start = time.monotonic()
        rep = run_gap(seed=0, eps=eps, trials_per_level=trials[eps])
        elapsed = time.monotonic() - start
        assert rep["ok"], [c for c in rep["checks"] if not c["passed"]]
        bound = eps + 4.0 * eps * eps
        estimate = rep["results"]["estimate"]
        admissible = (rep["results"]["mass_pass"]["admissible"]
                      + rep["results"]["refine_pass"]["admissible"])
        assert estimate is not None and estimate <= bound
        assert admissible >= 10_000
        assert elapsed <= 180.0
        print(f"PASS near-inverse sup (eps={eps}): estimate {estimate:.6f} "
              f"<= {bound:.6f}, {admissible} admissible ({elapsed:.1f}s)")


def test_commutator_residual_never_below_one():
    d = 2
    x1 = FreePoly.letter(1, d)
    x2 = FreePoly.letter(2, d)
    q = x1 * x2 - x2 * x1 - 1
    min_norm = np.inf
    count = 0
    eigen_checked = 0
    for level in range(1, 9):
        for tr in range(1300):
            rng = task_rng(101_000, level, tr)
            x = MatrixTuple([random_matrix(level, level, rng) for _ in range(d)])
            qx = q.eval(x)
            nq = op_norm(qx)
            min_norm = min(min_norm, nq)
            if eigen_checked < 100:
                # the commutator part has trace zero, so the eigenvalues of q
                # sum to -level and the spectral radius cannot drop below 1
                eig = np.linalg.eigvals(qx)
                assert abs(eig.sum() + level) <= 1e-8 * max(1.0, level)
                radius = float(np.abs(eig).max())
                assert radius >= 1.0 - 1e-10
                assert nq >= radius - 1e-10
                eigen_checked += 1
            count += 1
    assert count == 10_400
    assert min_norm >= 1.0 - 1e-10
    print(f"PASS commutator floor: min ||q(x)|| = {min_norm:.12f} over {count} pairs, "
          f"{eigen_checked} eigenvalue cross-checks")


def test_affine_compression_monotone_with_counter_instance():
    x1 = FreePoly.letter(1, 2)
    x2 = FreePoly.letter(2, 2)
    affine_menu = [
        e_lambda(2, 2),
        diag_delta(2),
        diag_delta(3),
        row_delta(3),
        PolyMatrix([[x1 - 0.5, 0.3 * x2], [FreePoly(2, {(): 0.2}), x2 + 0.1]]),
    ]
    for c in range(100):
        delta = affine_menu[c % len(affine_menu)]
        n = 3 + c % 4
        x = random_tuple(n, delta.d, 0.3 + 1.2 * (c % 5) / 4.0, 102_000 + c)
        keep = 1 + c % (n - 1)
        rep = compression_check(delta, x, keep, mode="assert")
        assert rep.affine and rep.holds
        assert rep.compressed_norm <= rep.full_norm + 1e-10

    # degree-2 entries break the monotonicity: the circulant pair sits well
    # inside the near-inverse domain, yet its corner compression blows up
    delta = gap_delta(0.1)
    shift = cyclic_shift(40)
    pair = MatrixTuple([shift, shift.conj().T])
    full = op_norm(delta.eval(pair))
    assert full == pytest.approx(1.0 / 1.1, abs=1e-12)
    rep = compression_check(delta, pair, 20, mode="report")
    assert rep.compressed_norm == pytest.approx(10.0, abs=1e-9)
    assert not rep.holds
    assert any("not guaranteed" in note for note in rep.notes)
    with pytest.raises(DomainError):
        compression_check(delta, pair, 20, mode="assert")
    print(f"PASS compression: 100 affine cases monotone; degree-2 counter-instance "
          f"jumps {full:.6f} -> {rep.compressed_norm:.6f}")


def test_compiled_models_reproduce_polynomials():
    worst = 0.0
    for c in range(50):
        d = 1 + c % 3
        delta = [diag_delta(d), row_delta(d), e_lambda(1, d)][c % 3]
        rng = task_rng(103_000, c)
        P = _random_poly(d, rng)
        s = (1.0, 0.5, 0.8)[c % 3]
        n = 1 + c % 3
        # keep the whole segment r -> delta(rT)/s strictly inside the ball
        T = _scaled_to(delta, random_tuple(n, d, 1.0, 103_500 + c), 0.8 * s)
        F = compile_polynomial(P, delta, s=s)
        rep = sharp(F, delta, T, CalcParams(s=s))
        gap = float(op_norm(rep.value - P.eval(T)))
        worst = max(worst, gap)
        assert gap <= 1e-9
        audit = poly_consistency(
            P, F, delta, T, CalcParams(s=s),
            SampleConfig(levels=(1, 2), trials_per_level=20, ascent_steps=0, seed=c),
        )
        assert audit.consistent and audit.sharp_gap <= 1e-9
    print(f"PASS compiled consistency: max ||model value - P(T)|| = {worst:.3e} "
          f"over 50 compilations")


def test_assembled_block_norm_dominates_entries():
    worst = np.inf
    for c in range(100):
        rng = task_rng(104_000, c)
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        heights = [int(rng.integers(1, 4)) for _ in range(rows)]
        widths = [int(rng.integers(1, 4)) for _ in range(cols)]
        blocks = [
            [random_matrix(heights[r], widths[cc], rng) for cc in range(cols)]
            for r in range(rows)
        ]
        assembled = op_norm(np.block(blocks))
        best = max(op_norm(b) for row in blocks for b in row)
        worst = min(worst, assembled - best)
        assert assembled >= best - 1e-12
    print(f"PASS block norm lemma: min (||R|| - max block) = {worst:.3e} "
          f"over 100 assemblies")


def test_experiment_reports_are_byte_reproducible():
    specs = [
        ("gap", 3, dict(levels=(2, 3), trials_per_level=120, refine_trials=10,
                        ascent_steps=20, min_admissible=40)),
        ("rowball", 1, dict(d=2, identity_trials=6, level=2)),
        ("polydisc", 2, dict(d=2, identity_trials=5, level=2,
                             family_max_len=1, spectral_trials=15)),
        ("commutator", 4, dict(levels=(1, 2), trials_per_level=40,
                               eigen_checks=5, osc_size=6, emptiness_trials=10)),
        ("lens", 5, dict(r=0.7, size=4)),
    ]
    for name, seed, options in specs:
        first = dumps_canonical(run_experiment(name, seed, dict(options)))
        second = dumps_canonical(run_experiment(name, seed, dict(options)))
        assert first == second, f"{name} report changed between identical runs"

    delta = diag_delta(2)
    p = FreePoly(2, {(1, 2): 0.5, (1,): -1.0})
    job = {
        "F": compile_polynomial(p, delta, s=1.0),
        "delta": delta,
        "T": random_tuple(2, 2, 0.5, 105_000),
        "params": CalcParams(s=1.0),
    }
    first = dumps_canonical(run_custom(job, seed=9, source="inline"))
    second = dumps_canonical(run_custom(job, seed=9, source="inline"))
    assert first == second
    print("PASS determinism: 6 experiment reports byte-identical across reruns")
