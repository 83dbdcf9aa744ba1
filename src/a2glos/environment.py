"""Statistical description of a built-up area.

An area is summarised by the ITU-R P.1410 triple (alpha, beta, gamma):
fraction of land covered by buildings, mean building count per km^2, and
the Rayleigh scale of the building-height distribution. All derived
quantities (height law, counts, widths, positions along a path) follow
from that triple.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from numpy.typing import ArrayLike


@dataclass(frozen=True)
class Environment:
    """ITU-R P.1410 statistical parameters of an urban area."""

    alpha: float  # fraction of land covered by buildings, in (0, 1]
    beta: float  # mean building count per km^2
    gamma: float  # Rayleigh scale of building heights [m]

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class ScenarioPreset:
    """A named Environment, as loaded from a scenario table."""

    name: str
    env: Environment


def height_cdf(gamma: float, h: float) -> float:
    """Probability that a building is shorter than h; 0 for negative h."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if h <= 0.0:
        return 0.0
    return 1.0 - math.exp(-h * h / (2.0 * gamma * gamma))


def building_count(env: Environment, d_rx: ArrayLike) -> int | np.ndarray:
    """Expected number of buildings crossed by a path of length d_rx [m]:
    an int for a scalar, else a float array of whole counts of its shape."""
    d = np.asarray(d_rx, dtype=float)
    negative = d[d < 0.0]
    if negative.size:
        raise ValueError(f"d_rx must be >= 0, got {negative[0]}")
    n = np.floor(d * math.sqrt(env.alpha * env.beta) / 1000.0)
    return int(n) if n.ndim == 0 else n


def mean_width(env: Environment) -> float:
    """Mean building width 1000*sqrt(alpha/beta) [m]."""
    return 1000.0 * math.sqrt(env.alpha / env.beta)


def building_position(env: Environment, d_rx: float, i: int) -> float:
    """Distance [m] from the TX to the i-th building along the path.

    Buildings are spread evenly over the path, shifted by half a building
    width; the last position may exceed d_rx by up to W/2.
    """
    n = building_count(env, d_rx)
    if n < 1:
        raise ValueError(f"no buildings along a path of {d_rx} m")
    if not 1 <= i <= n:
        raise ValueError(f"building index must be in [1, {n}], got {i}")
    return (i - 0.5) * d_rx / n + mean_width(env) / 2.0


# Accepted spellings beyond the names in the bundled table.
_ALIASES = {
    "dense": "denseurban",
    "highrise": "highriseurban",
}


def canonical_name(name: str) -> str:
    """Case-, hyphen- and alias-insensitive form of a scenario name."""
    key = re.sub(r"[-_\s]", "", name.lower())
    return _ALIASES.get(key, key)


def load_scenarios(path: str | Path | None = None) -> dict[str, ScenarioPreset]:
    """Load a scenario table: one `name alpha beta gamma` entry per line.

    Lines may carry '#' comments. With no path, the bundled table of the
    four standard presets (suburban through high-rise urban) is used.
    """
    if path is None:
        text = (
            resources.files("a2glos").joinpath("data/scenarios.txt").read_text()
        )
    else:
        text = Path(path).read_text()
    presets: dict[str, ScenarioPreset] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"scenario table line {lineno}: expected 'name alpha beta gamma', got {raw!r}"
            )
        name = parts[0]
        alpha, beta, gamma = (float(p) for p in parts[1:])
        presets[name] = ScenarioPreset(name, Environment(alpha, beta, gamma))
    return presets


def get_scenario(name: str, presets: dict[str, ScenarioPreset] | None = None) -> ScenarioPreset:
    """Look up a preset by name, ignoring case, hyphens and underscores."""
    if presets is None:
        presets = load_scenarios()
    wanted = canonical_name(name)
    for preset in presets.values():
        if canonical_name(preset.name) == wanted:
            return preset
    raise KeyError(f"unknown scenario {name!r}; known: {', '.join(presets)}")
