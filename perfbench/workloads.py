"""The four workloads: the CLI commands each runs, and the checks on their output.

A workload turns the run's seed into a list of ``a2glos`` command lines,
names the files those commands write, and checks one pass's output
(the printed text of every command, then the files) against results the
benchmark works out for itself in ``oracle``.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data"

# sweep: every preset, a ladder of TX heights, two carriers and the
# infinite-frequency limit; each seed moves every height by up to 2 %.
SWEEP_HEIGHTS = (30.0, 100.0, 300.0, 1000.0)
SWEEP_CARRIERS = (2.4, 28.0, None)
SWEEP_HRX = 1.5
SWEEP_MCD = 0.6
# Elevation sweeps at 28 GHz use the angles whose ground distance
# delta_h / tan(theta) is one of these, so they can be matched against the
# distance rows.
ELEVATION_D = (5.0, 20.0, 50.0, 100.0, 200.0, 400.0, 700.0, 1000.0)

# montecarlo-low: high-rise blocks around a low TX, scattered uniformly.
LOW_SCENARIO = "high-rise"
LOW_HTX = 60.0

REALIZATIONS = 5
LINKS_PER_RING = 72
RING_GRID = "50:1000:50"
# Rings of the montecarlo-low compare: 10 rings in a 1,100 m scene.
LOW_RING_GRID = "50:500:50"
# Random links tested against the slab test, per scene, over this many
# 600 m scenes.
BLOCKAGE_SCENES = 2
BLOCKAGE_LINKS = 150

# Fit reference grids: 98 height differences x 101 distances, as the fit
# command defaults to.
FIT_DELTA_H = tuple(28.5 + 10.0 * k for k in range(98))
FIT_D = (1.0,) + tuple(10.0 * k for k in range(1, 101))
# The integer-grid fit is redone for one record, drawn by the seed, from each
# of this many equal slices of the sorted delta_h records.
FIT_GRID_STRATA = 12


def _freq_args(f_ghz):
    return ["--f-inf"] if f_ghz is None else ["--f-ghz", repr(f_ghz)]


def _parse(text: str):
    """Split CSV output into '#' lines, the column header and the rows."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


def _echo(comments) -> dict[str, str]:
    """The 'key=value' parameter echo of the second header line."""
    return dict(token.split("=", 1) for token in comments[1][2:].split())


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def files(self) -> list[Path]:
        """Files the commands write, read back after each pass."""
        return []

    def check(self, outputs: list[str], package) -> list[str]:
        """Problems found in one pass's outputs; empty when all is right.

        A command that failed printed nothing; its output is not checked.
        """
        raise NotImplementedError


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = random.Random(seed)
        self.plan = []  # (preset, htx, f_ghz or None, elevation?)
        for preset in oracle.PRESETS:
            for base in SWEEP_HEIGHTS:
                htx = round(base * (1.0 + rng.uniform(-0.02, 0.02)), 3)
                for f_ghz in SWEEP_CARRIERS:
                    self.plan.append((preset, htx, f_ghz, False))
                self.plan.append((preset, htx, 28.0, True))

    def commands(self):
        cmds = []
        for preset, htx, f_ghz, elevation in self.plan:
            argv = ["analytic", "--scenario", preset, "--htx", repr(htx),
                    "--hrx", repr(SWEEP_HRX), *_freq_args(f_ghz)]
            if elevation:
                angles = [math.degrees(math.atan((htx - SWEEP_HRX) / d)) for d in ELEVATION_D]
                argv += ["--elevation", ",".join(repr(a) for a in angles)]
            else:
                argv += ["--d", "1:1000:1", "--mcd", repr(SWEEP_MCD)]
            cmds.append(argv)
        return cmds

    def check(self, outputs, package):
        problems = []
        distance_rows = {}
        for (preset, htx, f_ghz, elevation), text in zip(self.plan, outputs):
            if not text:
                continue
            where = f"analytic {preset} htx={htx} f={f_ghz} elevation={elevation}"
            alpha, beta, gamma = oracle.PRESETS[preset]
            lam = oracle.wavelength(f_ghz)
            comments, header, rows = _parse(text)
            echo = _echo(comments)
            if (float(echo["alpha"]), float(echo["beta"]), float(echo["gamma"])) != (alpha, beta, gamma):
                problems.append(f"{where}: echoed area {echo} is not {preset}")

            def ref(d):
                return oracle.p_los(alpha, beta, gamma, lam, htx, SWEEP_HRX, d)

            if elevation:
                if header != ["theta_deg", "p_los"] or len(rows) != len(ELEVATION_D):
                    problems.append(f"{where}: header {header}, {len(rows)} rows")
                    continue
                by_d = distance_rows.get((preset, htx, f_ghz), {})
                for (theta, p), d_grid in zip(rows, ELEVATION_D):
                    d = (htx - SWEEP_HRX) / math.tan(math.radians(theta))
                    if not _close(p, ref(d), 1e-12):
                        problems.append(f"{where}: theta={theta} P={p} != {ref(d)}")
                    if not _close(p, by_d.get(d_grid, math.nan), 1e-9):
                        problems.append(f"{where}: theta={theta} P={p} != distance row "
                                        f"d={d_grid} P={by_d.get(d_grid)}")
                continue
            if header != ["d", "p_los"] or len(rows) != 1000:
                problems.append(f"{where}: header {header}, {len(rows)} rows")
                continue
            distance_rows[(preset, htx, f_ghz)] = dict(rows)
            for d, p in rows:
                if not 0.0 <= p <= 1.0:
                    problems.append(f"{where}: d={d} P={p} outside [0, 1]")
                elif math.floor(d * math.sqrt(alpha * beta) / 1000.0) == 0 and p != 1.0:
                    problems.append(f"{where}: d={d} P={p} with no building expected")
                elif not _close(p, ref(d), 1e-12):
                    problems.append(f"{where}: d={d} P={p} != {ref(d)}")
            mcd = [c for c in comments if c.startswith("# mcd ")]
            value = mcd[0].split("distance_m=")[1] if mcd else "missing"
            if value in ("none", "missing"):
                problems.append(f"{where}: MCD {value}")
                continue
            mcd_d = float(value)
            above = [ref(mcd_d + 0.1 * k / 64.0) for k in range(1, 65)]
            if ref(mcd_d) < SWEEP_MCD or min(above) >= SWEEP_MCD:
                problems.append(f"{where}: P does not cross {SWEEP_MCD} within 0.1 m "
                                f"above the MCD {mcd_d}")
        return problems


class Fit(Workload):
    name = "fit"

    def commands(self):
        return [["fit", "--scenario", "urban", "--f-ghz", "28", "--seed", str(self.seed),
                 "--out-prefix", str(self.work / "urban")]]

    def files(self):
        return [self.work / "urban.d1.txt", self.work / "urban.d2.txt"]

    def check(self, outputs, package):
        report, d1_text, d2_text = outputs
        if not report:
            return []
        alpha, beta, gamma = oracle.PRESETS["urban"]
        lam = oracle.wavelength(28.0)
        h_rx = 1.5
        try:
            nets = {"d1": oracle.parse_mlp(d1_text), "d2": oracle.parse_mlp(d2_text)}
        except ValueError as exc:
            return [f"fit: model file does not load: {exc}"]
        comments, header, rows = _parse(report)
        if header != ["delta_h", "d1", "d2"] or not rows:
            return [f"fit: report header {header}, {len(rows)} records"]
        problems = []

        def value(prefix, key):
            line = next((c for c in comments if c.startswith(prefix)), f"{key}=nan")
            return float(line.split(f"{key}=")[1].split()[0])

        # Error mesh recomputed from the model files.
        total, worst = 0.0, 0.0
        for dh in FIT_DELTA_H:
            d1 = max(oracle.mlp(nets["d1"], dh), 1e-3)
            d2 = max(oracle.mlp(nets["d2"], dh), 1e-3)
            for d in FIT_D:
                err = oracle.p_approx(d, d1, d2) - oracle.p_los(
                    alpha, beta, gamma, lam, h_rx + dh, h_rx, d)
                total += err * err
                worst = max(worst, abs(err))
        mse = total / (len(FIT_DELTA_H) * len(FIT_D))
        got_mse = value("# approx_vs_analytic", "mse")
        got_max = value("# approx_vs_analytic", "max_abs_err")
        if not _close(got_mse, mse, 1e-9 * mse + 1e-15) or not _close(got_max, worst, 1e-9):
            problems.append(f"fit: report mse={got_mse} max={got_max}, "
                            f"recomputed mse={mse} max={worst}")

        # Each network beats predicting the mean of its target.
        for column, tag in ((1, "d1"), (2, "d2")):
            target = [r[column] for r in rows]
            mean = sum(target) / len(target)
            std = math.sqrt(sum((t - mean) ** 2 for t in target) / len(target))
            got = value(f"# {tag}:", "train_rmse_m")
            if not got < std:
                problems.append(f"fit: {tag} train RMSE {got} not below target std {std}")

        # The refined fit is no worse than the best point of the integer grid.
        residuals = {float(c.split("delta_h=")[1].split()[0]): float(c.split("fit_mse=")[1])
                     for c in comments if c.startswith("# residual ")}
        rng, keys = random.Random(self.seed), sorted(residuals)
        for k in range(FIT_GRID_STRATA):
            dh = rng.choice(keys[k * len(keys) // FIT_GRID_STRATA:
                                 (k + 1) * len(keys) // FIT_GRID_STRATA])
            curve = [oracle.p_los(alpha, beta, gamma, lam, h_rx + dh, h_rx, d) for d in FIT_D]
            best = _integer_grid_sse(curve)
            refined = residuals[dh] * len(FIT_D)
            if refined > best * (1.0 + 1e-9) + 1e-12:
                problems.append(f"fit: delta_h={dh} refined SSE {refined} above "
                                f"integer-grid SSE {best}")
        return problems


def _integer_grid_sse(curve) -> float:
    """Smallest SSE of the breakpoint/decay curve over D1 = 1..600, D2 = 1..2000.

    Residuals are formed directly, one block of D2 values at a time, not by
    the expanded matrix products the program uses.
    """
    import numpy as np

    d = np.array(FIT_D)
    y = np.array(curve)
    d1 = np.arange(1.0, 601.0)
    scale = np.minimum(d1[:, None] / d[None, :], 1.0)[:, None, :]  # (D1, 1, d)
    residual = np.empty((d1.size, 50, d.size))
    best = math.inf
    for start in range(1, 2001, 50):  # 2000 = 40 blocks of 50
        d2 = np.arange(float(start), float(start + 50))
        tail = np.exp(-d[None, :] / d2[:, None])  # (D2, d)
        np.multiply(scale, 1.0 - tail, out=residual)
        residual += tail - y
        best = min(best, float(np.min(np.einsum("ijk,ijk->ij", residual, residual))))
    return best


class _MonteCarlo(Workload):
    scenario = ""
    layout = ""
    htx = 0.0
    rings = RING_GRID

    def _argv(self, command, freq):
        return [command, "--scenario", self.scenario, "--htx", repr(self.htx), "--hrx", "2",
                *freq, "--d", self.rings, "--realizations", str(REALIZATIONS),
                "--links-per-ring", str(LINKS_PER_RING), "--layout", self.layout,
                "--seed", str(self.seed)]

    def _check_estimate(self, where, rows) -> list[str]:
        """P in [0, 1] and a CI half-width of 1.96 sqrt(p(1-p)/n) for a link
        count n that also makes P a whole number of clear links."""
        problems = []
        start, stop, step = (float(v) for v in self.rings.split(":"))
        if [r[0] for r in rows] != [start + k * step for k in range(int((stop - start) / step) + 1)]:
            return [f"{where}: rings {[r[0] for r in rows]}"]
        for row in rows:
            d, p, ci = row[:3]
            if not 0.0 <= p <= 1.0:
                problems.append(f"{where}: d={d} P={p} outside [0, 1]")
                continue
            fits = any(
                abs(p * n - round(p * n)) <= 1e-9 * n
                and _close(ci, 1.96 * math.sqrt(p * (1.0 - p) / n), 1e-12)
                for n in range(1, REALIZATIONS * LINKS_PER_RING + 1)
            )
            if not fits:
                problems.append(f"{where}: d={d} P={p} CI={ci} fits no link count")
        return problems

    def _check_blockage(self, package) -> list[str]:
        """los_blocked_geometric against the slab test, on random links over
        synthesized scenes, and geometric blockage implying Fresnel blockage."""
        rt_sim, geometry = package.rt_sim, package.geometry
        env = package.environment.get_scenario(self.scenario).env
        spec = geometry.FresnelSpec(geometry.wavelength_from_frequency(28e9))
        rng = random.Random(self.seed)
        problems, blocked, links = [], 0, 0
        for _ in range(BLOCKAGE_SCENES):
            scene = rt_sim.synthesize_scene(env, 600.0, rng.randrange(2**32), layout=self.layout)
            boxes = [(b.center_x - b.width / 2, b.center_x + b.width / 2,
                      b.center_y - b.width / 2, b.center_y + b.width / 2, b.height)
                     for b in scene.buildings]
            scene_links = 0
            while scene_links < BLOCKAGE_LINKS and len(problems) < 5:
                tx = (rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(20.0, 200.0))
                rx = (rng.uniform(-280, 280), rng.uniform(-280, 280), 2.0)
                if any(x0 <= rx[0] <= x1 and y0 <= rx[1] <= y1 for x0, x1, y0, y1, _ in boxes):
                    continue  # receivers inside a footprint are not valid
                scene_links += 1
                links += 1
                want = any(oracle.segment_hits_box(tx, rx, *box) for box in boxes)
                got = rt_sim.los_blocked_geometric(scene, tx, rx)
                blocked += got
                if got != want:
                    problems.append(f"{self.name}: link {tx}->{rx} geometric={got}, slab={want}")
                elif got and not rt_sim.los_blocked_fresnel(scene, tx, rx, spec):
                    problems.append(f"{self.name}: link {tx}->{rx} blocked but Fresnel-clear")
        if not problems and not 0 < blocked < links:
            problems.append(f"{self.name}: {blocked} of {links} random links blocked")
        return problems


class MonteCarlo(_MonteCarlo):
    name = "montecarlo"
    scenario = "urban"
    layout = "grid"
    htx = 500.0

    def commands(self):
        return [self._argv("simulate", ["--f-ghz", "28"])]

    def check(self, outputs, package):
        problems = self._check_blockage(package)
        if outputs[0]:
            comments, header, rows = _parse(outputs[0])
            if header != ["d", "p_sim", "ci_halfwidth"]:
                return problems + [f"simulate: header {header}"]
            problems += self._check_estimate("simulate", rows)
        return problems


class MonteCarloLow(_MonteCarlo):
    name = "montecarlo-low"
    scenario = LOW_SCENARIO
    layout = "uniform"
    htx = LOW_HTX
    rings = LOW_RING_GRID
    models = "analytic,approx-3gpp,approx-5gcm,approx-retrained"

    def commands(self):
        model_args = ["--models", self.models,
                      "--d1-model", str(DATA / "high-rise.d1.txt"),
                      "--d2-model", str(DATA / "high-rise.d2.txt")]
        return [self._argv("compare", freq) + model_args
                for freq in (["--f-ghz", "28"], ["--f-inf"])]

    def check(self, outputs, package):
        alpha, beta, gamma = oracle.PRESETS[self.scenario]
        nets = [oracle.parse_mlp((DATA / f"high-rise.{t}.txt").read_text()) for t in ("d1", "d2")]
        dh = self.htx - 2.0
        retrained = (max(oracle.mlp(nets[0], dh), 1e-3), max(oracle.mlp(nets[1], dh), 1e-3))
        problems, sims = [], []
        for text, f_ghz in zip(outputs, (28.0, None)):
            if not text:
                continue
            where = f"compare f={f_ghz}"
            comments, header, rows = _parse(text)
            want = ["d", "p_sim", "ci_halfwidth", "p_analytic", "p_approx_3gpp",
                    "p_approx_5gcm", "p_approx_retrained"]
            if header != want:
                problems.append(f"{where}: header {header}")
                continue
            problems += self._check_estimate(where, rows)
            sims.append([r[1] for r in rows])
            lam = oracle.wavelength(f_ghz)
            for d, _, _, p_an, p_3gpp, p_5gcm, p_re in rows:
                wanted = (oracle.p_los(alpha, beta, gamma, lam, self.htx, 2.0, d),
                          oracle.p_approx(d, *oracle.STANDARD_PARAMS["3gpp"]),
                          oracle.p_approx(d, *oracle.STANDARD_PARAMS["5gcm"]),
                          oracle.p_approx(d, *retrained))
                for got, ref, model in zip((p_an, p_3gpp, p_5gcm, p_re), wanted, self.models.split(",")):
                    if not _close(got, ref, 1e-12):
                        problems.append(f"{where}: d={d} {model} P={got} != {ref}")
        if len(sims) == 2:
            for (d, *_), p28, pinf in zip(rows, *sims):
                if pinf < p28:
                    problems.append(f"compare: d={d} P(f-inf)={pinf} < P(28 GHz)={p28}")
        return problems + self._check_blockage(package)


WORKLOADS = {w.name: w for w in (Sweep, Fit, MonteCarlo, MonteCarloLow)}
