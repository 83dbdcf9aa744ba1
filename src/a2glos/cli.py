"""Command-line interface: scenario sweeps, fitting, simulation, comparison.

All commands emit CSV with '#'-prefixed provenance headers (parameter echo,
seed, package version) so any output file can regenerate its figure. File
outputs, the CSV and any model or scene files, are each written to a
temporary sibling and renamed into place only once all of them are
written, so a failing run leaves no output file behind.

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import __version__
# perfbench/tracing.py wraps p_los, max_comm_distance and p_los_vs_elevation here by name.
from .analytic import max_comm_distance, p_los, p_los_curve, p_los_vs_elevation  # noqa: F401
from .approx import (
    ApproxParams,
    STANDARD_PARAM_SETS,
    load_mlp,
    mlp_forward,
    p_los_approx,
    save_mlp,
)
from .environment import Environment, get_scenario
from .fit import (
    TrainConfig,
    approx_vs_analytic_error,
    build_dataset,
    default_d_grid,
    rmse,
    split_dataset,
    train,
)
from .geometry import FresnelSpec, wavelength_from_frequency
from .rt_sim import (
    default_extent,
    dump_scene_csv,
    estimate_p_los,
    realization_scene,
    scene_csv_lines,
    synthesize_scene,
)

_KNOWN_MODELS = ("analytic", "approx-retrained", "approx-3gpp", "approx-5gcm")

#: Files a command writes besides its CSV: (path, writer) pairs, written
#: together with the CSV, all or none.
Files = list[tuple[Path, Callable[[IO[str]], None]]]


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive ends when step divides the
    span), a comma list 'a,b,c', or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0.0 or stop < start:
            raise ValueError(f"bad grid bounds {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(count)]
    if "," in text:
        return [float(p) for p in text.split(",") if p]
    return [float(text)]


def _resolve_env(args) -> tuple[Environment, str]:
    if args.scenario is not None:
        preset = get_scenario(args.scenario)
        return preset.env, preset.name
    if None in (args.alpha, args.beta, args.gamma):
        raise ValueError("give --scenario or all of --alpha/--beta/--gamma")
    return Environment(args.alpha, args.beta, args.gamma), "custom"


def _resolve_spec(args) -> tuple[FresnelSpec, str]:
    if getattr(args, "f_inf", False):
        return FresnelSpec(0.0, order=getattr(args, "order", 1)), "inf"
    if args.f_ghz is None:
        raise ValueError("give --f-ghz or --f-inf")
    lam = wavelength_from_frequency(args.f_ghz * 1e9)
    return FresnelSpec(lam, order=getattr(args, "order", 1)), f"{args.f_ghz:g}"


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x))


def _emit(args, lines: list[str], files: Files) -> None:
    """Write the CSV and the command's other files, all or none.

    Every file is first written to a temporary sibling. The CSV goes to
    stdout, or the temporaries are renamed into place, only once all of
    them have been written; a failure removes them all. Files get the
    permissions a plain ``open`` would give (0o666 less the umask).
    """
    text = "\n".join(lines) + "\n"
    outputs = list(files)
    if args.out is not None:
        outputs.insert(0, (Path(args.out), lambda fh: fh.write(text)))
    umask = os.umask(0)
    os.umask(umask)
    staged: list[tuple[str, Path]] = []
    try:
        for path, write in outputs:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                os.chmod(tmp, 0o666 & ~umask)
                write(fh)
        if args.out is None:
            sys.stdout.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _header(command: str, pairs: dict[str, object]) -> list[str]:
    echo = " ".join(f"{k}={v}" for k, v in pairs.items())
    return [f"# a2glos v{__version__} {command}", f"# {echo}"]


def cmd_analytic(args) -> tuple[list[str], Files]:
    env, scen = _resolve_env(args)
    spec, freq = _resolve_spec(args)
    pairs = {
        "scenario": scen,
        "alpha": env.alpha,
        "beta": env.beta,
        "gamma": env.gamma,
        "f_ghz": freq,
        "order": spec.order,
        "htx": args.htx,
        "hrx": args.hrx,
        "width": "model" if args.width is None else args.width,
    }
    lines = _header("analytic", pairs)
    if args.elevation is not None:
        thetas = _parse_grid(args.elevation)
        probs = p_los_vs_elevation(
            env, spec, args.htx, args.hrx,
            [math.radians(t) for t in thetas], width=args.width,
        )
        lines.append("theta_deg,p_los")
        lines += [f"{_fmt(t)},{_fmt(p)}" for t, p in zip(thetas, probs)]
    else:
        grid = _parse_grid(args.d)
        probs = p_los_curve(args.htx, args.hrx, grid, env, spec, args.width).tolist()
        lines.append("d,p_los")
        lines += [f"{_fmt(d)},{_fmt(p)}" for d, p in zip(grid, probs)]
    if args.mcd is not None:
        mcd = max_comm_distance(args.htx, args.hrx, env, spec, args.mcd, width=args.width)
        value = "none" if mcd is None else _fmt(mcd)
        lines.append(f"# mcd threshold={_fmt(args.mcd)} distance_m={value}")
    return lines, []


def cmd_fit(args) -> tuple[list[str], Files]:
    env, scen = _resolve_env(args)
    spec, freq = _resolve_spec(args)
    cfg = TrainConfig(
        hidden_neurons=args.hidden,
        learning_rate=args.lr,
        epochs=args.epochs,
        eta=args.eta,
        split_seed=args.seed,
    )
    delta_h_grid = _parse_grid(args.delta_h) if args.delta_h else None
    d_grid = _parse_grid(args.d) if args.d else None
    n_fit_points = len(d_grid) if d_grid is not None else len(default_d_grid())
    ds = build_dataset(env, spec, h_rx=args.hrx, delta_h_grid=delta_h_grid, d_grid=d_grid)
    if not ds.records:
        first = ds.rejected[0]
        raise RuntimeError(
            f"dataset generation failed: delta_h={first[0]} rejected ({first[1]})"
        )
    train_ds, val_ds = split_dataset(ds, cfg.split_seed)
    tags = ("d1", "d2")
    models = dict(zip(tags, train(ds, tags, cfg=cfg)))
    mse, max_err = approx_vs_analytic_error(
        models["d1"], models["d2"], env, spec,
        h_rx=args.hrx, delta_h_grid=delta_h_grid, d_grid=d_grid,
    )
    pairs = {
        "scenario": scen,
        "alpha": env.alpha,
        "beta": env.beta,
        "gamma": env.gamma,
        "f_ghz": freq,
        "hrx": args.hrx,
        "seed": args.seed,
        "hidden": cfg.hidden_neurons,
        "lr": cfg.learning_rate,
        "epochs": cfg.epochs,
        "eta": cfg.eta,
    }
    lines = _header("fit", pairs)
    # config comment in the dataset-file format, so the report itself can
    # be read back as a dataset
    lines.append(
        f"# alpha={env.alpha!r} beta={env.beta!r} gamma={env.gamma!r} "
        f"lambda={spec.wavelength!r} order={spec.order} h_rx={args.hrx!r}"
    )
    for tag, model in models.items():
        lines.append(
            f"# {tag}: train_rmse_m={_fmt(rmse(model, train_ds, tag))} "
            f"validation_rmse_m={_fmt(rmse(model, val_ds, tag))}"
        )
    lines.append(f"# approx_vs_analytic mse={_fmt(mse)} max_abs_err={_fmt(max_err)}")
    for record, sse in zip(ds.records, ds.fit_sse):
        lines.append(f"# residual delta_h={_fmt(record.delta_h)} fit_mse={_fmt(sse / n_fit_points)}")
    for dh, reason in ds.rejected:
        lines.append(f"# rejected delta_h={_fmt(dh)}: {reason}")
    lines.append("delta_h,d1,d2")
    lines += [f"{_fmt(r.delta_h)},{_fmt(r.d1)},{_fmt(r.d2)}" for r in ds.records]
    prefix = Path(args.out_prefix)
    files = [
        (prefix.parent / f"{prefix.name}.{tag}.txt", lambda fh, m=model: save_mlp(m, fh))
        for tag, model in models.items()
    ]
    return lines, files


def _run_simulation(args, env, spec):
    if args.elevation is not None:
        thetas = _parse_grid(args.elevation)
        dh = args.htx - args.hrx
        d_grid = [dh / math.tan(math.radians(t)) for t in thetas]
        labels = thetas
        label_name = "theta_deg"
    else:
        d_grid = _parse_grid(args.d)
        labels = d_grid
        label_name = "d"
    est = estimate_p_los(
        env,
        spec,
        h_tx=args.htx,
        h_rx=args.hrx,
        d_grid=d_grid,
        realizations=args.realizations,
        links_per_ring=args.links_per_ring,
        seed=args.seed,
        extent=args.extent,
        layout=args.layout,
    )
    return labels, label_name, d_grid, est


def cmd_simulate(args) -> tuple[list[str], Files]:
    env, scen = _resolve_env(args)
    spec, freq = _resolve_spec(args)
    labels, label_name, d_grid, est = _run_simulation(args, env, spec)
    pairs = {
        "scenario": scen,
        "alpha": env.alpha,
        "beta": env.beta,
        "gamma": env.gamma,
        "f_ghz": freq,
        "htx": args.htx,
        "hrx": args.hrx,
        "realizations": args.realizations,
        "links_per_ring": args.links_per_ring,
        "layout": args.layout,
        "seed": args.seed,
    }
    lines = _header("simulate", pairs)
    lines.append(f"{label_name},p_sim,ci_halfwidth")
    for lab, p, ci in zip(labels, est.p_los, est.ci_halfwidth):
        lines.append(f"{_fmt(lab)},{_fmt(p)},{_fmt(ci)}")
    files: Files = []
    if args.dump_scene:
        scene = realization_scene(
            env, args.extent or default_extent(d_grid), args.seed, 0, layout=args.layout
        )
        files.append((Path(args.dump_scene), lambda fh: dump_scene_csv(scene, fh)))
    return lines, files


def cmd_compare(args) -> tuple[list[str], Files]:
    env, scen = _resolve_env(args)
    spec, freq = _resolve_spec(args)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = [m for m in models if m not in _KNOWN_MODELS]
    if unknown:
        raise ValueError(f"unknown models: {', '.join(unknown)}; choose from {_KNOWN_MODELS}")
    labels, label_name, d_grid, est = _run_simulation(args, env, spec)

    columns: dict[str, list[float]] = {}
    notes: list[str] = []
    for model in models:
        if model == "analytic":
            columns[model] = p_los_curve(args.htx, args.hrx, d_grid, env, spec).tolist()
        elif model in ("approx-3gpp", "approx-5gcm"):
            params = STANDARD_PARAM_SETS[model.split("-")[1]]
            columns[model] = [p_los_approx(d, params) for d in d_grid]
        else:  # approx-retrained
            if args.d1_model and args.d2_model:
                pair = (load_mlp(args.d1_model), load_mlp(args.d2_model))
            else:
                from .fit import train_pair

                notes.append("# note: retrained models trained in-process (no model files given)")
                m1, m2, _ = train_pair(env, spec, h_rx=args.hrx)
                pair = (m1, m2)
            dh = args.htx - args.hrx
            params = ApproxParams(
                d1=max(mlp_forward(pair[0], dh), 1e-3),
                d2=max(mlp_forward(pair[1], dh), 1e-3),
            )
            columns[model] = [p_los_approx(d, params) for d in d_grid]
            notes.append(
                f"# approx-retrained d1={_fmt(params.d1)} d2={_fmt(params.d2)}"
            )

    pairs = {
        "scenario": scen,
        "alpha": env.alpha,
        "beta": env.beta,
        "gamma": env.gamma,
        "f_ghz": freq,
        "htx": args.htx,
        "hrx": args.hrx,
        "realizations": args.realizations,
        "links_per_ring": args.links_per_ring,
        "layout": args.layout,
        "seed": args.seed,
        "models": ",".join(models),
    }
    lines = _header("compare", pairs)
    lines += notes
    col_names = [m.replace("-", "_") for m in models]
    lines.append(f"{label_name},p_sim,ci_halfwidth," + ",".join("p_" + c for c in col_names))
    for i, lab in enumerate(labels):
        row = [_fmt(lab), _fmt(est.p_los[i]), _fmt(est.ci_halfwidth[i])]
        row += [_fmt(columns[m][i]) for m in models]
        lines.append(",".join(row))
    # summary: deviation vs simulation and breakpoint (last d with P >= 0.999)
    sim = np.asarray(est.p_los)
    for m in models:
        col = np.asarray(columns[m])
        ok = ~np.isnan(sim)
        mad = float(np.mean(np.abs(col[ok] - sim[ok]))) if ok.any() else float("nan")
        above = [d for d, p in zip(d_grid, col) if p >= 0.999]
        bp = "none" if not above else _fmt(max(above))
        lines.append(f"# summary {m}: mad_vs_sim={_fmt(mad)} breakpoint_m={bp}")
    return lines, []


def cmd_scene(args) -> tuple[list[str], Files]:
    env, scen = _resolve_env(args)
    scene = synthesize_scene(env, args.extent, seed=args.seed, layout=args.layout)
    lines = _header(
        "scene",
        {
            "scenario": scen,
            "alpha": env.alpha,
            "beta": env.beta,
            "gamma": env.gamma,
            "extent": args.extent,
            "layout": args.layout,
            "seed": args.seed,
            "buildings": len(scene),
        },
    )
    return lines + scene_csv_lines(scene), []


def _add_env_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", help="preset name (suburban, urban, dense-urban, high-rise)")
    p.add_argument("--alpha", type=float, help="built-up area fraction")
    p.add_argument("--beta", type=float, help="buildings per km^2")
    p.add_argument("--gamma", type=float, help="Rayleigh height scale [m]")


def _add_freq_args(p: argparse.ArgumentParser) -> None:
    freq = p.add_mutually_exclusive_group()
    freq.add_argument("--f-ghz", type=float, help="carrier frequency [GHz]")
    freq.add_argument("--f-inf", action="store_true", help="infinite-frequency limit (zero wavelength)")
    p.add_argument("--order", type=int, default=1, help="clearance-zone order (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a2glos",
        description="LoS probability for air-to-ground links over statistical urban areas",
    )
    parser.add_argument("--version", action="version", version=f"a2glos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form LoS probability sweep")
    _add_env_args(p)
    _add_freq_args(p)
    p.add_argument("--htx", type=float, required=True, help="TX height [m]")
    p.add_argument("--hrx", type=float, default=1.5, help="RX height [m]")
    p.add_argument("--d", default="1:1000:1", help="distance grid start:stop:step [m]")
    p.add_argument("--elevation", help="emit P vs elevation angle over this grid [deg]")
    p.add_argument("--mcd", type=float, help="append max communication distance at this threshold")
    p.add_argument("--width", type=float, help="override mean building width [m]")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("fit", help="fit parameter networks against the analytic model")
    _add_env_args(p)
    _add_freq_args(p)
    p.add_argument("--hrx", type=float, default=1.5)
    p.add_argument("--delta-h", help="height-difference grid [m] (default 28.5:998.5:10)")
    p.add_argument("--d", help="distance grid for curve fitting [m]")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--lr", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=30000)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--out-prefix", required=True, help="model files written as PREFIX.d1.txt / PREFIX.d2.txt")
    p.add_argument("--out", help="report CSV path (default stdout)")
    p.set_defaults(func=cmd_fit)

    simulate = sub.add_parser("simulate", help="ray-tracing Monte-Carlo estimate")
    compare = sub.add_parser("compare", help="overlay simulation with model predictions")
    for p in (simulate, compare):
        _add_env_args(p)
        _add_freq_args(p)
        p.add_argument("--htx", type=float, required=True)
        p.add_argument("--hrx", type=float, default=2.0)
        p.add_argument("--d", default="50:1000:50", help="ring radius grid [m]")
        p.add_argument("--elevation", help="elevation-angle grid [deg] instead of --d")
        p.add_argument("--realizations", type=int, default=5)
        p.add_argument("--links-per-ring", type=int, default=72)
        p.add_argument("--extent", type=float, help="scene side [m] (default 2*max(d)+100)")
        p.add_argument("--layout", choices=("grid", "uniform"), default="grid")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", help="output CSV path (default stdout)")
    simulate.add_argument("--dump-scene", help="also write the scene of realization 0 as CSV here")
    simulate.set_defaults(func=cmd_simulate)

    compare.add_argument(
        "--models",
        default="analytic,approx-3gpp,approx-5gcm",
        help=f"comma list from {', '.join(_KNOWN_MODELS)}",
    )
    compare.add_argument("--d1-model", help="breakpoint-parameter model file for approx-retrained")
    compare.add_argument("--d2-model", help="decay-parameter model file for approx-retrained")
    compare.set_defaults(func=cmd_compare)

    p = sub.add_parser("scene", help="synthesize a city scene and dump it as CSV")
    _add_env_args(p)
    p.add_argument("--extent", type=float, default=1000.0)
    p.add_argument("--layout", choices=("grid", "uniform"), default="grid")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_scene)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines, files = args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: no partial output was written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(args, lines, files)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
