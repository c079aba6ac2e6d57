"""Coupled diffusions on the Heisenberg group H^n.

Core pieces:

* :mod:`heiscouple.group`      -- group operations, dilations, quasinorm/distance
* :mod:`heiscouple.coupling`   -- coupling matrices, moving frames, policies
* :mod:`heiscouple.simulate`   -- full/reduced Euler schemes, exact reflection runs
* :mod:`heiscouple.static`     -- one-shot (static) couplings and the conditional
                                  vertical law at a fixed time
* :mod:`heiscouple.estimators` -- moment/exponent estimators, transport costs,
                                  closed-form reference laws
* :mod:`heiscouple.experiments`-- named experiment drivers behind the CLI
"""

from heiscouple.group import (
    mul,
    inverse,
    dilate,
    rotate,
    quasinorm,
    quasidistance,
    identity,
    point,
)
from heiscouple.coupling import (
    CouplingPolicy,
    synchronous_matrix,
    reflection_matrix,
    perverse_matrix,
    validate_coupling_matrix,
    complete_jhat,
    frame,
    change_basis,
    synchronous_policy,
    reflection_policy,
    perverse_policy,
    kendall_policy,
    custom_policy,
)
from heiscouple.simulate import (
    CouplingState,
    PathEnsemble,
    kendall_success_times,
    simulate_ensemble,
    simulate_reflection_exact,
)
from heiscouple.static import (
    StaticJointSample,
    baseline_translation_couple,
    conditional_vertical_density,
    sample_levy_area_given_endpoint,
    static_couple,
)
from heiscouple.experiments import EXPERIMENTS, ConfigError, run_experiment

__version__ = "0.1.0"
