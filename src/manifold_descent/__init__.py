"""Descent methods on manifolds where the retraction is only defined
locally, with a benchmark catalog and a small CLI."""

from .bench import (
    METHOD_ORDER,
    BallMinResult,
    ScenarioResult,
    UnknownMethod,
    UnknownScenario,
    ball_minimize,
    corpus,
    run_scenario,
    smallest_eigenvalue,
)
from .linalg import (
    NonFinite,
    SingularMatrix,
    SymMatrix,
    sym_eig,
)
from .manifold import (
    Euclidean,
    NotOnManifold,
    NotTangent,
    OpenSubset,
    Sphere,
    StepTooLarge,
    open_ball,
)
from .objective import (
    Objective,
    Problem,
    QuadraticForm,
    builtin_problems,
    negate,
    riemannian_grad,
    riemannian_hess,
)
from .optim import (
    METHODS,
    BacktrackingParams,
    IterateRecord,
    IterateTrace,
    LineSearchExhausted,
    MissingLipschitz,
    NewQNewtonParams,
    StandardGDParams,
    StopCriteria,
    Termination,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "METHODS",
    "METHOD_ORDER",
    "BacktrackingParams",
    "BallMinResult",
    "Euclidean",
    "IterateRecord",
    "IterateTrace",
    "LineSearchExhausted",
    "MissingLipschitz",
    "NewQNewtonParams",
    "NonFinite",
    "NotOnManifold",
    "NotTangent",
    "Objective",
    "OpenSubset",
    "Problem",
    "QuadraticForm",
    "ScenarioResult",
    "SingularMatrix",
    "Sphere",
    "StandardGDParams",
    "StepTooLarge",
    "StopCriteria",
    "SymMatrix",
    "Termination",
    "UnknownMethod",
    "UnknownScenario",
    "ball_minimize",
    "builtin_problems",
    "corpus",
    "negate",
    "open_ball",
    "riemannian_grad",
    "riemannian_hess",
    "run",
    "run_scenario",
    "smallest_eigenvalue",
    "sym_eig",
]
