"""The package's public surface, pinned so that adding or removing a
public name is a deliberate edit of this list."""

import manifold_descent

PUBLIC_NAMES = [
    "BacktrackingParams", "BallMinResult", "Euclidean",
    "IterateRecord", "IterateTrace", "LineSearchExhausted", "METHODS",
    "METHOD_ORDER", "MissingLipschitz", "NewQNewtonParams",
    "NonFinite", "NotOnManifold", "NotTangent",
    "Objective", "OpenSubset", "Problem", "QuadraticForm", "ScenarioResult",
    "SingularMatrix", "Sphere", "StepTooLarge", "StopCriteria", "SymMatrix",
    "Termination", "UnknownMethod", "UnknownScenario", "armijo_rhs",
    "ball_minimize", "builtin_problems", "corpus", "default_iters",
    "negate", "open_ball",
    "riemannian_grad", "riemannian_hess", "run", "run_scenario",
    "smallest_eigenvalue", "sym_eig",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 39
    assert sorted(manifold_descent.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(manifold_descent, name), name
