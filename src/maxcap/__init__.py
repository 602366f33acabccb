"""Maximum-capture facility location under logit-family choice models.

Pick C locations to open against incumbent competitors so that the expected
captured demand is maximized, where each customer zone chooses among open
locations and the outside option according to a generating-function
(multinomial / nested logit) random-utility model.
"""

from .choice_models import ChoiceModel, MultinomialLogit, NestedLogit
from .instances import (
    FormatError,
    GeneratorParams,
    MmnlParams,
    assign_nests,
    generate_euclidean,
    mmnl_expand,
    read_instance,
    write_instance,
)
from .objective import (
    IncrementalEvaluator,
    Instance,
    Solution,
    objective,
    objective_gradient,
    objective_relaxed,
)
from .oracle import (
    PropertyReport,
    brute_force_opt,
    brute_force_subproblem,
    check_cpgf_contracts,
    check_gradient,
    check_monotonicity,
    check_submodularity,
    check_subproblem,
)
from .solver import (
    Phase,
    RunReport,
    SolverConfig,
    ggx,
    solve_subproblem,
)

__version__ = "0.1.0"

__all__ = [
    "ChoiceModel",
    "MultinomialLogit",
    "NestedLogit",
    "FormatError",
    "GeneratorParams",
    "MmnlParams",
    "assign_nests",
    "generate_euclidean",
    "mmnl_expand",
    "read_instance",
    "write_instance",
    "IncrementalEvaluator",
    "Instance",
    "Solution",
    "objective",
    "objective_gradient",
    "objective_relaxed",
    "PropertyReport",
    "brute_force_opt",
    "brute_force_subproblem",
    "check_cpgf_contracts",
    "check_gradient",
    "check_monotonicity",
    "check_submodularity",
    "check_subproblem",
    "Phase",
    "RunReport",
    "SolverConfig",
    "ggx",
    "solve_subproblem",
]
