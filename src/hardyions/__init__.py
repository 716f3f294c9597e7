"""Two trapped ions as a Hardy interferometer, with weakly coupled meters.

The internal dynamics of two three-level ions realize the interferometric
setup in which counterfactual reasoning assigns each particle two
incompatible paths. A weakly coupled meter (the ions' relative coordinate,
or a third ion) reads out intermediate-state populations without
destroying the interference; post-selecting on the rare joint outcome
exposes weak values (gg, ge, eg, ff) = (-1, +1, +1, 0) for the intermediate
paths, visible as a pointer that moves opposite to the force applied to it.
Each experiment is data (a meter and the coupling pulses it inserts in the
interferometer) run by one engine, protocol.evolve.
"""

from .errors import InvariantError, PostSelectionError
from .meter import (
    GaussianPointer,
    QubitPointer,
    gaussian_mean_x,
    gaussian_moments,
    gaussian_second_moment,
    grid_moments,
    to_grid,
)
from .protocol import (
    Experiment,
    RunConfig,
    ThirdIonReport,
    WeakValueReport,
    closed_form_mean,
    evolve,
    run_ideal,
    run_strong_comparison,
    run_third_ion,
    run_weak_gaussian,
    third_ion_excited_population,
    third_ion_experiment,
    weak_gaussian_experiment,
    weak_limit_check,
    weak_values_postselected,
)
from .pulses import (
    annihilation_pulse,
    beamsplitter,
    light_shift_meter,
    partial_ccnot,
    strong_measurement,
)
from .shots import ShotResult, run_experiment_mc
from .statecore import (
    GaussianMeter,
    NoMeter,
    QubitMeter,
    SystemState,
    apply_unitary,
    init_ground,
    internal_probabilities,
    pointer_component,
    project_internal,
    state_to_json_dict,
)

__version__ = "0.1.0"
