"""Acceptance suite: one headline check per guarantee, each printing a
single PASS/FAIL line (run with ``pytest -v tests/test_acceptance.py -s``)."""

import time

import numpy as np

from psdnorm import (
    DomainSpec,
    PsdNormLayer,
    WelchConfig,
    apply_mapping,
    bures_distance,
    dense_monge_oracle,
    evaluate_alignment,
    geodesic_interpolate,
    instancenorm_forward,
    make_shifted_domains,
    monge_filter,
    psdnorm_forward,
    running_update,
    sample_gaussian_with_psd,
    welch_psd,
)
from psdnorm.io import load_state, save_state


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_symmetric_psd(rng, c, f, lo=0.5, hi=2.0):
    half = rng.uniform(lo, hi, (c, f // 2 + 1))
    return np.concatenate([half, half[:, -2 + (f % 2):0:-1]], axis=1)[:, :f]


def smooth_psd(rng, c, f):
    """Strictly positive trig-polynomial PSD, smooth across the spectrum."""
    nu = np.arange(f) / f
    rows = []
    for _ in range(c):
        a1, a2 = rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15)
        rows.append(np.exp(a1 * np.cos(2 * np.pi * nu) + a2 * np.cos(4 * np.pi * nu)))
    return np.stack(rows)


def test_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        f = int(rng.choice([4, 8, 16]))
        c = int(rng.choice([1, 2]))
        p_src = random_symmetric_psd(rng, c, f)
        p_tgt = random_symmetric_psd(rng, c, f)
        x = rng.standard_normal((c, f))
        dense = dense_monge_oracle(p_src, p_tgt, x)
        filtered = apply_mapping(x, monge_filter(p_src, p_tgt))
        worst = max(worst, np.max(np.abs(dense - filtered)) / np.max(np.abs(x)))
    dt = time.perf_counter() - t0
    report("oracle equivalence", worst < 1e-6 and dt < 10,
           f"max relative error {worst:.3e} over 50 pairs in {dt:.2f}s")


def test_instancenorm_special_case():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    cfg = WelchConfig(1, stride=1, window_kind="boxcar")
    for _ in range(50):
        n, c, l = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(8, 64))
        batch = rng.standard_normal((n, c, l)) * rng.uniform(0.5, 3) + rng.uniform(-2, 2)
        layer = PsdNormLayer(filter_size=1, welch=cfg, barycenter=np.ones((c, 1)),
                             update_count=1)
        out, _ = psdnorm_forward(layer, batch, "eval")
        ref = instancenorm_forward(batch, eps=0.0)
        worst = max(worst, np.max(np.abs(out - ref)))
    dt = time.perf_counter() - t0
    report("instancenorm special case", worst < 1e-10 and dt < 5,
           f"max deviation {worst:.3e} over 50 batches in {dt:.2f}s")


def test_geodesic_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    end_err = mid_err = fix_err = 0.0
    for _ in range(50):
        p = rng.uniform(0.1, 5.0, (2, 8))
        q = rng.uniform(0.1, 5.0, (2, 8))
        end_err = max(end_err,
                      np.max(np.abs(geodesic_interpolate(p, q, 0.0) - p)),
                      np.max(np.abs(geodesic_interpolate(p, q, 1.0) - q)))
        mid = geodesic_interpolate(p, q, 0.5)
        d = bures_distance(p, q)
        mid_err = max(mid_err,
                      abs(bures_distance(p, mid) - d / 2),
                      abs(bures_distance(mid, q) - d / 2))
        value = running_update(None, p, 0.05)
        fix_err = max(fix_err, np.max(np.abs(running_update(value, p, 0.05) - p)))
    dt = time.perf_counter() - t0
    ok = end_err < 1e-14 and mid_err < 1e-12 and fix_err < 1e-14 and dt < 1
    report("geodesic correctness", ok,
           f"endpoints {end_err:.2e}, midpoint {mid_err:.2e}, "
           f"fixed point {fix_err:.2e} in {dt:.2f}s")


def test_spectral_transport():
    t0 = time.perf_counter()
    f, l = 8, 2 ** 14
    cfg = WelchConfig(f)
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        p_src = smooth_psd(rng, 1, f)
        p_tgt = smooth_psd(rng, 1, f)
        x = sample_gaussian_with_psd(
            DomainSpec(p_src, n_signals=1, length=l, seed=seed)
        )[0]
        p_est = welch_psd(x - x.mean(axis=1, keepdims=True), cfg)
        y = apply_mapping(x, monge_filter(p_est, p_tgt))
        p_out = welch_psd(y - y.mean(axis=1, keepdims=True), cfg)
        errs.append(np.mean(np.abs(p_out - p_tgt) / p_tgt))
    mean_err = float(np.mean(errs))
    dt = time.perf_counter() - t0
    report("spectral transport", mean_err < 0.10 and dt < 60,
           f"mean per-bin relative error {mean_err:.4f} over 20 seeds in {dt:.1f}s")


def test_welch_flatness():
    t0 = time.perf_counter()
    l = 2 ** 16
    worst = 0.0
    for f in (4, 8, 16):
        acc = np.zeros(f)
        for seed in range(20):
            x = np.random.default_rng(200 * f + seed).standard_normal((1, l))
            acc += welch_psd(x, WelchConfig(f))[0]
        mean_bins = acc / 20
        worst = max(worst, np.max(np.abs(mean_bins - 1.0)))
        assert np.all(mean_bins >= 0.97) and np.all(mean_bins <= 1.03)
    dt = time.perf_counter() - t0
    report("welch flatness", worst <= 0.03 and dt < 30,
           f"max |mean bin - 1| = {worst:.4f} for f in (4,8,16) in {dt:.1f}s")


def test_alignment_benchmark():
    t0 = time.perf_counter()
    r_psd, r_inst, r_none = [], [], []
    for seed in range(20):
        domains = make_shifted_domains(
            np.ones((2, 8)), 3, 1.0, n_signals=8, length=2 ** 12, seed=seed
        )
        r_psd.append(evaluate_alignment(domains, "psdnorm").reduction_ratio)
        r_inst.append(evaluate_alignment(domains, "instancenorm").reduction_ratio)
        r_none.append(evaluate_alignment(domains, "none").reduction_ratio)
    m_psd, m_inst, m_none = map(lambda r: float(np.mean(r)), (r_psd, r_inst, r_none))
    dt = time.perf_counter() - t0
    ok = m_psd < 0.2 and m_psd < m_inst and m_psd < m_none and dt < 120
    report("alignment benchmark", ok,
           f"ratios psdnorm {m_psd:.3f} < instancenorm {m_inst:.3f}, "
           f"none {m_none:.3f} over 20 seeds in {dt:.1f}s")


def test_complexity_scaling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    base = dict(n=8, c=4, l=2 ** 12)
    layer = PsdNormLayer(filter_size=8)
    shapes = {"base": base, **{key: {**base, key: 2 * base[key]} for key in "ncl"}}
    batches = {name: rng.standard_normal((s["n"], s["c"], s["l"]))
               for name, s in shapes.items()}

    # Interleaved rounds, best of k per shape: a drift in host speed between
    # rounds slows every shape alike instead of reading as bad scaling.
    best = dict.fromkeys(batches, np.inf)
    for _ in range(9):
        for name, batch in batches.items():
            t = time.perf_counter()
            psdnorm_forward(layer, batch)
            best[name] = min(best[name], time.perf_counter() - t)
    factors = {key: best[key] / best["base"] for key in "ncl"}
    dt = time.perf_counter() - t0
    ok = all(v <= 2.5 for v in factors.values()) and dt < 60
    report("complexity scaling", ok,
           "doubling factors " + ", ".join(f"{k}={v:.2f}x" for k, v in factors.items())
           + f" in {dt:.1f}s")


def test_determinism_round_trip(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((3, 2, 256))
    _, layer = psdnorm_forward(PsdNormLayer(filter_size=4), batch)

    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    save_state(p1, layer)
    save_state(p2, load_state(p1))
    state_ok = p1.read_bytes() == p2.read_bytes()

    out_a, _ = psdnorm_forward(layer, batch, "eval")
    out_b, _ = psdnorm_forward(load_state(p1), batch, "eval")
    eval_ok = np.array_equal(out_a, out_b)

    domains = make_shifted_domains(
        np.ones((1, 8)), 2, 1.0, n_signals=4, length=2 ** 11, seed=0
    )
    rep_a, rep_b = (evaluate_alignment(domains, "psdnorm") for _ in range(2))
    bench_ok = (rep_a.pre_distances.tobytes() == rep_b.pre_distances.tobytes()
                and rep_a.post_distances.tobytes() == rep_b.post_distances.tobytes()
                and rep_a.reduction_ratio == rep_b.reduction_ratio
                and rep_a.method == "psdnorm")

    dt = time.perf_counter() - t0
    ok = state_ok and eval_ok and bench_ok and dt < 10
    report("determinism & round-trip", ok,
           f"state bytes {state_ok}, eval bits {eval_ok}, "
           f"bench bytes {bench_ok} in {dt:.2f}s")
