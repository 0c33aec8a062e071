"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with -s to see them; the verbose test names mirror the
criteria).  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np

from oracles import brute_force_min, forward_pass, hmm_posteriors_by_enumeration
from sdude import (
    SymbolSequence,
    bsc_channel,
    build_channel,
    build_loss,
    build_tables,
    concentration_sweep,
    dude_denoise,
    fb_posteriors,
    hamming_loss,
    run_switching_hmm_experiment,
    run_two_block_experiment,
    sdude_denoise,
    two_block_sequence,
)
from sdude.errors import RankError


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_channel_set(count=100, seed=2024):
    rng = np.random.default_rng(seed)
    channels = []
    while len(channels) < count:
        clean = int(rng.integers(2, 5))
        noisy = int(rng.integers(clean, 5))
        try:
            channels.append(build_channel(rng.dirichlet(np.ones(noisy), size=clean)))
        except RankError:
            continue
    return channels


def test_criterion_1_unbiased_estimated_loss():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for ch in _random_channel_set():
        recon = int(rng.integers(2, 5))
        loss = build_loss(rng.uniform(0.0, 2.0, size=(ch.clean_size, recon)))
        tables = build_tables(ch, loss)
        worst = max(worst, float(np.max(np.abs(ch.pi @ tables.ell - tables.rho))))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "unbiasedness",
        worst < 1e-7 and elapsed < 1.0,
        f"max |pi@ell - rho| = {worst:.3e} over 100 channels in {elapsed:.2f}s",
    )


def test_criterion_2_right_inverse():
    start = time.perf_counter()
    worst = 0.0
    for ch in _random_channel_set():
        eye = np.eye(ch.clean_size)
        worst = max(worst, float(np.max(np.abs(ch.pi @ ch.h_matrix - eye))))
    bsc_err = float(
        np.max(
            np.abs(
                bsc_channel(0.1).h_matrix - np.array([[1.125, -0.125], [-0.125, 1.125]])
            )
        )
    )
    elapsed = time.perf_counter() - start
    _report(
        2,
        "right inverse",
        worst < 1e-9 and bsc_err < 1e-12 and elapsed < 1.0,
        f"max |pi@H - I| = {worst:.3e}; BSC(0.1) error = {bsc_err:.3e}; {elapsed:.2f}s",
    )


def test_criterion_3_dp_matches_brute_force():
    start = time.perf_counter()
    tables = build_tables(bsc_channel(0.1), hamming_loss(2))
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        z = SymbolSequence(rng.integers(0, 2, size=n), 2)
        for k in (0, 1):
            if n <= 2 * k:
                continue
            for m in (0, 1, 2):
                if m > (n - 2 * k) // 2:
                    continue
                expected = brute_force_min(z, k, m, tables)
                got = forward_pass(z, k, m, tables).forward_min
                worst = max(worst, abs(got - expected))
                checked += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        "DP optimality oracle",
        worst <= 1e-12 and elapsed < 30.0,
        f"max |DP - enumeration| = {worst:.2e} over {checked} instances in {elapsed:.1f}s",
    )


def test_criterion_4_zero_shift_coincides_with_plain_denoiser():
    start = time.perf_counter()
    ch, loss = bsc_channel(0.1), hamming_loss(2)
    tables = build_tables(ch, loss)
    rng = np.random.default_rng(11)
    identical = True
    for trial in range(50):
        z = SymbolSequence(rng.integers(0, 2, size=10**4), 2)
        for k in range(5):
            a = dude_denoise(z, k, ch, loss, tables=tables)
            b, _, _ = sdude_denoise(z, k, 0, ch, loss, tables=tables)
            if not np.array_equal(a.symbols, b.symbols):
                identical = False
    elapsed = time.perf_counter() - start
    _report(
        4,
        "m=0 coincidence",
        identical and elapsed < 10.0,
        f"250 runs bit-identical = {identical} in {elapsed:.1f}s",
    )


def test_criterion_5_two_block_perfect_denoising():
    start = time.perf_counter()
    report = run_two_block_experiment(160000, 0.1, 0, 1, seeds=tuple(range(10)))
    sdude_bers = [report.result("sdude", seed=s).ber for s in range(10)]
    dude_bers = [report.result("dude", seed=s).ber for s in range(10)]
    elapsed = time.perf_counter() - start
    zeros = sum(1 for b in sdude_bers if b == 0.0)
    ok = (
        all(b <= 1e-4 for b in sdude_bers)
        and all(abs(b - 0.1) <= 0.005 for b in dude_bers)
        and elapsed < 10.0
    )
    _report(
        5,
        "two-block perfect denoising",
        ok,
        f"shifting BER max = {max(sdude_bers):.2e} ({zeros}/10 exact zero); "
        f"plain BER range = [{min(dude_bers):.4f}, {max(dude_bers):.4f}]; {elapsed:.1f}s",
    )


def test_criterion_6_switching_hmm_reproduction():
    start = time.perf_counter()
    report = run_switching_hmm_experiment(
        10**6, 0.1, 0.01, 0.2, 5 * 10**5, k_list=(4, 6), m_list=(1,), seed=0
    )
    fb = report.result("fb-genie").ratio_to_delta
    dude6 = report.result("dude", k=6).ratio_to_delta
    sdude41 = report.result("sdude", k=4, m=1).ratio_to_delta
    elapsed = time.perf_counter() - start
    ok = (
        abs(fb - 0.4865) <= 0.02
        and abs(dude6 - 0.5738) <= 0.02
        and abs(sdude41 - 0.4979) <= 0.02
        and elapsed < 300.0
    )
    _report(
        6,
        "switching-HMM reproduction",
        ok,
        f"fb = {fb:.4f} (target 0.4865±0.02), plain k=6 = {dude6:.4f} (0.5738±0.02), "
        f"shifting (4,1) = {sdude41:.4f} (0.4979±0.02); {elapsed:.0f}s",
    )


def test_criterion_7_smoothing_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        delta = float(rng.uniform(0.02, 0.45))
        ch = bsc_channel(delta)
        n = int(rng.integers(2, 11))
        cut = int(rng.integers(1, n + 1))
        p1, p2 = rng.uniform(0.02, 0.48, size=2)
        sym = lambda p: np.array([[1 - p, p], [p, 1 - p]])
        if cut >= n:
            segments = [(1, n, sym(p1))]
            steps = [sym(p1)] * (n - 1)
        else:
            segments = [(1, cut, sym(p1)), (cut + 1, n, sym(p2))]
            steps = [sym(p1) if t + 1 <= cut else sym(p2) for t in range(1, n)]
        z = SymbolSequence(rng.integers(0, 2, size=n), 2)
        post = fb_posteriors(z, segments, ch)
        expected = hmm_posteriors_by_enumeration(
            z.symbols, steps, np.array([0.5, 0.5]), ch.pi
        )
        worst = max(worst, float(np.max(np.abs(post - expected))))
    elapsed = time.perf_counter() - start
    _report(
        7,
        "smoothing oracle",
        worst < 1e-10 and elapsed < 10.0,
        f"max posterior error = {worst:.2e} over 100 parameterizations in {elapsed:.1f}s",
    )


def _linear_r2(xs, ys):
    coef = np.polyfit(xs, ys, 1)
    fit = np.polyval(coef, xs)
    resid = np.sum((np.asarray(ys) - fit) ** 2)
    total = np.sum((np.asarray(ys) - np.mean(ys)) ** 2)
    return 1.0 - resid / total


def test_criterion_8_linear_complexity():
    ch, loss = bsc_channel(0.1), hamming_loss(2)
    tables = build_tables(ch, loss)
    rng = np.random.default_rng(17)
    k = 1
    sequences = {
        n: SymbolSequence(rng.integers(0, 2, size=n), 2)
        for n in (10**5, 2 * 10**5, 4 * 10**5)
    }

    def measure(points, rounds=7):
        best = {p: np.inf for p in points}
        for n, m in points:  # warmup
            sdude_denoise(sequences[n], k, m, ch, loss, tables=tables)
        for _ in range(rounds):
            for p in points:
                t0 = time.perf_counter()
                sdude_denoise(sequences[p[0]], k, p[1], ch, loss, tables=tables)
                best[p] = min(best[p], time.perf_counter() - t0)
        return [best[p] for p in points]

    # A transiently loaded machine corrupts individual timings; keep the
    # best attempt out of three (min-of-rounds within each attempt).
    n_list = [10**5, 2 * 10**5, 4 * 10**5]
    m_list = [1, 2, 4, 8]
    r2_n = r2_m = -np.inf
    for _ in range(3):
        t_n = measure([(n, 2) for n in n_list])
        r2_n = max(r2_n, _linear_r2(n_list, t_n))
        t_m = measure([(2 * 10**5, m) for m in m_list])
        r2_m = max(r2_m, _linear_r2(m_list, t_m))
        if r2_n > 0.99 and r2_m > 0.99:
            break
    ok = r2_n > 0.99 and r2_m > 0.99
    _report(
        8,
        "O(mn) scaling",
        ok,
        f"R2 over n = {r2_n:.4f} (times {[f'{t*1e3:.0f}ms' for t in t_n]}); "
        f"R2 over m = {r2_m:.4f} (times {[f'{t*1e3:.0f}ms' for t in t_m]})",
    )


def test_criterion_9_concentration_toward_the_genie():
    report = concentration_sweep(
        two_block_sequence,
        bsc_channel(0.1),
        0,
        1,
        n_list=(10**3, 10**4, 10**5),
        trials=50,
        seed=0,
    )
    means = [row["mean_gap"] for row in report.sweep]
    ok = means[0] > means[1] > means[2] and means[2] < 0.01
    _report(
        9,
        "concentration",
        ok,
        f"mean gaps = {[f'{g:.2e}' for g in means]} (strictly decreasing, last < 0.01)",
    )
