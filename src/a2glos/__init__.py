"""LoS probability toolkit for air-to-ground radio links over urban areas.

Three mutually validating prediction paths:

* ``analytic``  - closed-form model with Fresnel clearance;
* ``approx``    - parametric breakpoint/decay model whose parameters are
  produced by a small trained network (``fit`` trains it);
* ``rt_sim``    - ray-tracing Monte-Carlo estimate over synthesized city
  scenes.
"""

from types import ModuleType as _ModuleType

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
    estimate_p_los,
    los_blocked_fresnel,
    los_blocked_geometric,
    synthesize_scene,
)

__version__ = "0.1.0"

# Every public name the imports above bind, in import order; submodules are not exported.
__all__ = [
    name for name, value in dict(globals()).items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
