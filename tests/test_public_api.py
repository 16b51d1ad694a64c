"""The package's public surface, pinned so that adding or removing a
public name, or a parameter of ``run`` or ``run_scenario``, is a
deliberate edit of these lists."""

import inspect

import manifold_descent

PUBLIC_NAMES = [
    "BacktrackingParams", "BallMinResult", "Euclidean",
    "IterateRecord", "IterateTrace", "METHODS",
    "METHOD_ORDER", "MissingLipschitz", "NewQNewtonParams",
    "NonFinite", "NotOnManifold", "NotTangent",
    "Objective", "OpenSubset", "Problem", "QuadraticForm", "ScenarioResult",
    "Sphere", "StandardGDParams", "StepTooLarge",
    "StopCriteria", "SymMatrix",
    "Termination", "UnknownMethod", "UnknownScenario",
    "ball_minimize", "builtin_problems", "corpus",
    "negate", "open_ball",
    "riemannian_grad", "run", "run_scenario",
    "smallest_eigenvalue",
]

# Every stepper setting is a field of a params class, so neither entry
# point takes one as a keyword of its own.
SIGNATURES = {
    "run": ["obj", "x0", "method", "params", "stop", "rng"],
    "run_scenario": ["scenario_id", "method", "iters", "seed", "retraction",
                     "params", "grad_tol", "return_trace", "_problems"],
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(manifold_descent.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(manifold_descent, name), name
    # Helpers that only bench and the tests read, the eigh wrapper and
    # the two exceptions run maps to terminations live in their modules.
    for name in ("armijo_rhs", "default_iters", "sym_eig", "riemannian_hess",
                 "LineSearchExhausted", "SingularMatrix"):
        assert not hasattr(manifold_descent, name), name


def test_entry_point_parameters_are_pinned():
    for name, params in SIGNATURES.items():
        fn = getattr(manifold_descent, name)
        assert list(inspect.signature(fn).parameters) == params, name
