"""Two trapped ions as a Hardy interferometer, with weakly coupled meters.

The internal dynamics of two three-level ions realize the interferometric
setup in which counterfactual reasoning assigns each particle two
incompatible paths. A weakly coupled meter (the ions' relative coordinate,
or a third ion) reads out intermediate-state populations without
destroying the interference; post-selecting on the rare joint outcome
exposes weak values of (+1, +1, -1) for the intermediate paths, visible as
a pointer that moves opposite to the force applied to it.
"""

from .errors import InvariantError, PostSelectionError
from .meter import (
    GaussianPointer,
    GridPointer,
    QubitPointer,
    gaussian_mean_x,
    gaussian_overlap,
    gaussian_second_moment,
    gaussian_variance,
    grid_moments,
    qubit_rotate,
    to_grid,
)
from .protocol import (
    RunConfig,
    ThirdIonReport,
    WeakValueReport,
    closed_form_mean,
    run_ideal,
    run_strong_comparison,
    run_third_ion,
    run_weak_gaussian,
    third_ion_excited_population,
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
from .shots import ShotResult, run_experiment_mc, sample_pointer, shots_required
from .statecore import (
    GaussianMeter,
    GridMeter,
    IonBasisIndex,
    NoMeter,
    QubitMeter,
    SystemState,
    apply_unitary,
    init_ground,
    internal_probabilities,
    pointer_component,
    project_internal,
    state_overlap,
    state_to_json_dict,
)

__version__ = "0.1.0"
