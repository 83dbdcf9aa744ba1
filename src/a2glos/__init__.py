"""LoS probability toolkit for air-to-ground radio links over urban areas.

Three mutually validating prediction paths:

* ``analytic``  - closed-form model with Fresnel clearance;
* ``approx``    - parametric breakpoint/decay model whose parameters are
  produced by a small trained network (``fit`` trains it);
* ``rt_sim``    - ray-tracing Monte-Carlo estimate over synthesized city
  scenes.
"""

from .geometry import (
    SPEED_OF_LIGHT,
    FresnelSpec,
    LinkGeometry,
    allowed_height,
    fresnel_axes,
    fresnel_radius_at,
    wavelength_from_frequency,
)
from .environment import (
    Environment,
    ScenarioPreset,
    building_count,
    building_position,
    get_scenario,
    height_cdf,
    load_scenarios,
    mean_width,
)
from .analytic import (
    max_comm_distance,
    p_los,
    p_los_baseline,
    p_los_curve,
    p_los_vs_elevation,
)
from .approx import (
    ApproxParams,
    Mlp,
    STANDARD_PARAM_SETS,
    load_mlp,
    mlp_forward,
    p_los_approx,
    save_mlp,
)
from .fit import (
    FitDataset,
    FitRecord,
    TrainConfig,
    build_dataset,
    load_dataset,
    rmse,
    split_dataset,
    train,
    train_pair,
)
from .rt_sim import (
    Building,
    PLosEstimate,
    Scene,
    dump_scene_csv,
    estimate_p_los,
    los_blocked_fresnel,
    los_blocked_geometric,
    synthesize_scene,
)

__version__ = "0.1.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "FresnelSpec",
    "LinkGeometry",
    "allowed_height",
    "fresnel_axes",
    "fresnel_radius_at",
    "wavelength_from_frequency",
    "Environment",
    "ScenarioPreset",
    "building_count",
    "building_position",
    "get_scenario",
    "height_cdf",
    "load_scenarios",
    "mean_width",
    "max_comm_distance",
    "p_los",
    "p_los_baseline",
    "p_los_curve",
    "p_los_vs_elevation",
    "ApproxParams",
    "Mlp",
    "STANDARD_PARAM_SETS",
    "load_mlp",
    "mlp_forward",
    "p_los_approx",
    "save_mlp",
    "FitDataset",
    "FitRecord",
    "TrainConfig",
    "build_dataset",
    "load_dataset",
    "rmse",
    "split_dataset",
    "train",
    "train_pair",
    "Building",
    "PLosEstimate",
    "Scene",
    "dump_scene_csv",
    "estimate_p_los",
    "los_blocked_fresnel",
    "los_blocked_geometric",
    "synthesize_scene",
    "__version__",
]
