"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS/FAIL` line with the measured
numbers (run pytest with -s to see them) and asserts the stated
tolerances, runtime budget included.
"""

import math
import time

import numpy as np

from a2glos.analytic import max_comm_distance, p_los, p_los_baseline
from a2glos.cli import main
from a2glos.environment import Environment, get_scenario, height_cdf
from a2glos.fit import (
    TrainConfig,
    approx_vs_analytic_error,
    build_dataset,
    cost_and_gradient,
    train,
)
from a2glos.geometry import FresnelSpec, LinkGeometry, wavelength_from_frequency
from a2glos.rt_sim import estimate_p_los, sample_heights
from mesh_reference import mt_batch

WL6 = wavelength_from_frequency(6e9)
WL28 = wavelength_from_frequency(28e9)


def report(num, name, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_1_reduction_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        h_rx = rng.uniform(0.0, 10.0)
        h_tx = h_rx + rng.uniform(0.1, 1500.0)
        d = rng.uniform(1.0, 3000.0)
        env = Environment(rng.uniform(0.05, 0.9), rng.uniform(50.0, 900.0), rng.uniform(3.0, 60.0))
        link = LinkGeometry(h_tx, h_rx, d)
        gap = abs(p_los(link, env, FresnelSpec(0.0), width=0.0) - p_los_baseline(link, env))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "reduction identity (zero width, zero wavelength)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max |gap|={worst:.2e} (tol 1e-12), {elapsed:.2f} s (budget 1 s)",
    )


def test_criterion_2_mcd_reproduction():
    t0 = time.perf_counter()
    env = Environment(0.5, 300.0, 50.0)
    spec = FresnelSpec(WL6)
    published = {30.0: 70.2, 300.0: 157.6, 800.0: 305.9, 1500.0: 515.4}
    results = {}
    for h_tx, target in published.items():
        mcd = max_comm_distance(h_tx, 1.5, env, spec, 0.6)
        results[h_tx] = (mcd, mcd / target - 1.0)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"h_tx={h:.0f}: {m:.1f} m vs {published[h]} m ({dev:+.1%})"
        for h, (m, dev) in results.items()
    )
    ok = all(abs(dev) <= 0.05 for _, dev in results.values()) and elapsed < 10.0
    report(2, "max communication distances within 5%", ok, f"{detail}; {elapsed:.1f} s (budget 10 s)")


def test_criterion_3_frequency_and_width_trends():
    t0 = time.perf_counter()
    env = Environment(0.3, 500.0, 15.0)
    d_grid = np.arange(1.0, 1001.0, 1.0)
    links = [LinkGeometry(70.0, 1.5, d) for d in d_grid]

    specs = [FresnelSpec(wavelength_from_frequency(f * 1e9)) for f in (1.2, 6.0, 28.0)]
    specs.append(FresnelSpec(0.0))
    curves = [np.array([p_los(l, env, s) for l in links]) for s in specs]
    freq_ordered = all(
        np.all(curves[i + 1] >= curves[i] - 1e-12) for i in range(len(curves) - 1)
    )
    six_vs_inf_gap = float(np.max(np.abs(curves[3] - curves[1])))

    spec6 = FresnelSpec(WL6)
    width_curves = [
        np.array([p_los(l, env, spec6, width=w) for l in links]) for w in (0.0, 20.0, 40.0)
    ]
    width_ordered = all(
        np.all(width_curves[i + 1] <= width_curves[i] + 1e-12)
        for i in range(len(width_curves) - 1)
    )
    elapsed = time.perf_counter() - t0
    ok = freq_ordered and width_ordered and six_vs_inf_gap < 0.05 and elapsed < 10.0
    report(
        3,
        "frequency/width ordering and saturation",
        ok,
        f"freq ordered={freq_ordered}, width ordered={width_ordered}, "
        f"max|P_inf - P_6GHz|={six_vs_inf_gap:.4f} (tol 0.05), {elapsed:.1f} s (budget 10 s)",
    )


def test_criterion_4_approximate_model_quality():
    t0 = time.perf_counter()
    env = get_scenario("urban").env
    spec = FresnelSpec(WL28)
    ds = build_dataset(env, spec, h_rx=1.5)
    cfg = TrainConfig()
    mlp_d1, mlp_d2 = train(ds, ("d1", "d2"), cfg)
    mse, max_abs = approx_vs_analytic_error(mlp_d1, mlp_d2, env, spec)
    elapsed = time.perf_counter() - t0
    ok = mse <= 0.03 and max_abs <= 0.12 and elapsed < 300.0
    report(
        4,
        "retrained parametric model vs analytic curves",
        ok,
        f"MSE={mse:.4f} (tol 0.03), max|err|={max_abs:.3f} (tol 0.12), "
        f"{elapsed:.0f} s (budget 300 s)",
    )


def test_criterion_5_intersection_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    n = 100_000
    origins = rng.uniform(-2.0, 2.0, (n, 3))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    tris = rng.uniform(-2.0, 2.0, (n, 3, 3))

    # the mesh oracle's Moller-Trumbore kernel, one ray per triangle
    hits, s, u, v = mt_batch(origins, dirs, tris)

    # oracle: the 3x3 linear system, solved by LU factorization
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    a = np.stack([-dirs, e1, e2], axis=2)
    det = np.linalg.det(a)
    solvable = np.abs(det) > 1e-12
    sol = np.full((n, 3), np.nan)
    rhs = (origins - tris[:, 0])[solvable][:, :, None]
    sol[solvable] = np.linalg.solve(a[solvable], rhs)[:, :, 0]
    o_hit = (
        solvable
        & (sol[:, 0] > 0.0)
        & (sol[:, 1] >= 0.0)
        & (sol[:, 2] >= 0.0)
        & (sol[:, 1] + sol[:, 2] <= 1.0)
    )

    same_verdict = bool(np.all(o_hit == hits))
    both = o_hit & hits
    mt = np.stack([s, u, v], axis=1)[both]
    lu = sol[both]
    scale = np.maximum(1.0, np.maximum(np.abs(mt), np.abs(lu)))
    worst = float(np.max(np.abs(mt - lu) / scale)) if len(mt) else 0.0
    elapsed = time.perf_counter() - t0
    ok = same_verdict and worst <= 1e-9 and elapsed < 5.0
    report(
        5,
        "ray/triangle solver vs linear-solve oracle",
        ok,
        f"hit/miss identical={same_verdict} ({int(both.sum())} hits), "
        f"worst rel dev={worst:.2e} (tol 1e-9), {elapsed:.1f} s (budget 5 s)",
    )


def test_criterion_6_simulation_vs_analytic():
    t0 = time.perf_counter()
    spec = FresnelSpec(WL28)
    env = get_scenario("urban").env

    # distance sweep: uniform building placement per the simulation
    # campaign's published parameter table
    d_grid = list(np.arange(50.0, 1001.0, 50.0))
    est = estimate_p_los(env, spec, 500.0, 2.0, d_grid, realizations=10,
                         links_per_ring=72, seed=42, layout="uniform")
    analytic = np.array([p_los(LinkGeometry(500.0, 2.0, d), env, spec) for d in d_grid])
    mad = float(np.mean(np.abs(est.p_los - analytic)))

    # elevation-angle crossings at P = 0.6
    published = {"urban": 32.5, "dense-urban": 50.6, "high-rise": 72.6}
    theta = np.arange(20.0, 85.1, 2.5)
    crossings = {}
    for name in published:
        e = get_scenario(name).env
        dg = [498.0 / math.tan(math.radians(t)) for t in theta]
        sim = estimate_p_los(e, spec, 500.0, 2.0, dg, realizations=10,
                             links_per_ring=72, seed=777, layout="uniform")
        cross = float("nan")
        for i, p in enumerate(sim.p_los):
            if p >= 0.6:
                if i == 0:
                    cross = theta[0]
                else:
                    prev = sim.p_los[i - 1]
                    cross = theta[i - 1] + 2.5 * (0.6 - prev) / (p - prev)
                break
        crossings[name] = cross
    elapsed = time.perf_counter() - t0
    angles_ok = all(
        abs(crossings[n] - published[n]) <= 5.0 for n in published
    )
    detail_angles = "; ".join(
        f"{n}: {crossings[n]:.1f} vs {published[n]} deg" for n in published
    )
    ok = mad <= 0.1 and angles_ok and elapsed < 600.0
    report(
        6,
        "Monte-Carlo estimate vs analytic model",
        ok,
        f"MAD={mad:.3f} (tol 0.1); crossings {detail_angles} (tol 5 deg); "
        f"{elapsed:.0f} s (budget 600 s)",
    )


def test_criterion_7_height_distribution():
    t0 = time.perf_counter()
    gamma = 15.0
    samples = np.sort(sample_heights(gamma, 100_000, np.random.default_rng(7)))
    n = len(samples)
    cdf = np.array([height_cdf(gamma, h) for h in samples])
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    ks = float(max(upper, lower))
    elapsed = time.perf_counter() - t0
    ok = ks < 0.01 and elapsed < 2.0
    report(
        7,
        "sampled building heights vs height law",
        ok,
        f"KS={ks:.5f} (tol 0.01) on {n} samples, {elapsed:.1f} s (budget 2 s)",
    )


def test_criterion_8_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        j = int(rng.integers(1, 6))
        n = int(rng.integers(3, 16))
        w1, b1, w2 = rng.normal(0, 2, j), rng.normal(0, 2, j), rng.normal(0, 2, j)
        b2 = float(rng.normal())
        x, t = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
        eta = float(rng.uniform(0, 1))
        _, grads = cost_and_gradient(w1, b1, w2, b2, x, t, eta)
        analytic = np.concatenate([grads[0], grads[1], grads[2], [grads[3]]])
        numeric = np.zeros_like(analytic)
        packs = [w1.copy(), b1.copy(), w2.copy(), np.array([b2])]
        h = 1e-6
        k = 0
        for p in packs:
            for i in range(len(p)):
                for sgn in (1.0, -1.0):
                    p[i] += sgn * h
                    c, _ = cost_and_gradient(
                        packs[0], packs[1], packs[2], float(packs[3][0]), x, t, eta
                    )
                    numeric[k] += sgn * c
                    p[i] -= sgn * h
                numeric[k] /= 2.0 * h
                k += 1
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(
        8,
        "training gradient vs central differences",
        ok,
        f"worst rel dev={worst:.2e} (tol 1e-6) over 50 networks, "
        f"{elapsed:.1f} s (budget 5 s)",
    )


def test_criterion_9_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    commands = {
        "analytic": ["analytic", "--scenario", "urban", "--htx", "70", "--hrx", "1.5",
                     "--f-ghz", "6", "--d", "1:500:1", "--mcd", "0.6"],
        "scene": ["scene", "--scenario", "urban", "--extent", "600", "--seed", "11"],
        "simulate": ["simulate", "--scenario", "urban", "--htx", "120", "--hrx", "2",
                     "--f-ghz", "28", "--d", "100:300:100", "--realizations", "3",
                     "--links-per-ring", "24", "--seed", "9"],
        "compare": ["compare", "--scenario", "urban", "--htx", "120", "--hrx", "2",
                    "--f-ghz", "28", "--d", "100,300", "--realizations", "2",
                    "--links-per-ring", "24", "--seed", "9",
                    "--models", "analytic,approx-3gpp,approx-5gcm"],
        "fit": ["fit", "--scenario", "urban", "--f-ghz", "28",
                "--delta-h", "68.5,168.5,268.5,368.5,468.5,568.5,668.5,768.5,868.5,968.5",
                "--d", "25:1000:25", "--epochs", "500", "--seed", "7",
                "--out-prefix", str(tmp_path / "net")],
    }
    stable = {}
    for name, args in commands.items():
        outputs = []
        for run, threads in enumerate(("1", "4")):
            monkeypatch.setenv("A2G_LOS_THREADS", threads)
            out = tmp_path / f"{name}-{run}.csv"
            code = main(args + ["--out", str(out)])
            assert code == 0, f"{name} run failed"
            outputs.append(out.read_bytes())
        stable[name] = outputs[0] == outputs[1]
    elapsed = time.perf_counter() - t0
    ok = all(stable.values())
    report(
        9,
        "seeded commands byte-identical across runs and thread caps",
        ok,
        "; ".join(f"{k}={'ok' if v else 'DIFFERS'}" for k, v in stable.items())
        + f"; {elapsed:.0f} s",
    )
