"""End-to-end checks of the command line front end.

Everything goes through ``main(argv)`` so the exit-code contract is
exercised the same way a shell would see it.
"""

import json

import numpy as np
import pytest

from manifold_descent.bench import _row
from manifold_descent.cli import _json_float, _report_csv, _report_table, main
from manifold_descent.optim import IterateRecord, IterateTrace, Termination


def _write_matrix(path, dim, rows):
    path.write_text(json.dumps({"dim": dim, "rows": rows}))
    return str(path)


def test_reports_spell_non_finite_values():
    # The CSV and table reports print nan, inf and -inf as printf does.
    trace = IterateTrace([IterateRecord(3, np.array([np.inf, -np.inf, 0.5]), np.nan,
                                        0.0, 0.0, 0.0)], Termination.DIVERGED, set())
    result = _row("s", "newton", trace)
    row = _report_csv([result]).splitlines()[1]
    assert row == "s,newton,3,Diverged,,nan,inf -inf 0.5"
    row = _report_table([result]).splitlines()[1].split()
    assert row == ["s", "newton", "3", "nan", "Diverged", "-", "(inf,", "-inf,", "0.5)"]


def test_json_float_null_for_non_finite():
    assert _json_float(float("nan")) == "null"
    assert _json_float(float("inf")) == "null"
    assert _json_float(1.0) == "1"


def test_run_scenario_table(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "r_backtracking",
               "--iters", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["scenario", "method"]
    assert "example7" in lines[1] and "r_backtracking" in lines[1]


def test_run_scenario_json_key_order(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "r_backtracking",
               "--iters", "5", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    rec = json.loads(
        out.strip()[1:-1].strip().rstrip(","),
        object_pairs_hook=lambda pairs: [k for k, _ in pairs],
    )
    assert rec == ["scenario_id", "method", "final_point", "final_value",
                   "steps", "termination", "flags"]


def test_run_scenario_csv(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "r_backtracking",
               "--iters", "5", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scenario_id,method,steps,termination,flags,final_value,final_point"
    fields = lines[1].split(",")
    assert fields[0] == "example7"
    assert len(fields[6].split()) == 2


def test_run_missing_method(capsys):
    rc = main(["run", "--scenario", "example7"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--method" in err


def test_run_scenario_and_matrix_conflict(tmp_path, capsys):
    path = _write_matrix(tmp_path / "a.json", 2, [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "example7", "--matrix", path])
    capsys.readouterr()
    assert exc.value.code == 2


def test_run_unknown_scenario(capsys):
    rc = main(["run", "--scenario", "example99", "--method", "r_backtracking"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "example99" in err


def test_run_unknown_method(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "sgd"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "sgd" in err


def test_run_matrix_identity_table(tmp_path, capsys):
    path = _write_matrix(tmp_path / "eye.json", 2, [[1.0, 0.0], [0.0, 1.0]])
    rc = main(["run", "--matrix", path, "--method", "r_backtracking"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda1 = 1"
    assert lines[1].startswith("vector  = (")


def test_run_matrix_forwards_only_the_method_given(tmp_path, capsys):
    # An empty --method is a method name like any other, not the default.
    path = _write_matrix(tmp_path / "eye.json", 2, [[1.0, 0.0], [0.0, 1.0]])
    assert main(["run", "--matrix", path, "--method", ""]) == 2
    assert "unknown scenario or method" in capsys.readouterr().err


def test_run_matrix_json_and_csv(tmp_path, capsys):
    path = _write_matrix(tmp_path / "d.json", 2, [[4.0, 0.0], [0.0, -1.0]])
    rc = main(["run", "--matrix", path, "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["lambda1"] - (-1.0)) < 1e-6
    vec = np.asarray(payload["vector"])
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-8

    rc = main(["run", "--matrix", path, "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda1,x0,x1"
    assert abs(float(lines[1].split(",")[0]) - (-1.0)) < 1e-6


def test_run_matrix_of_dimension_one(tmp_path, capsys):
    path = _write_matrix(tmp_path / "one.json", 1, [[3.0]])
    assert main(["run", "--matrix", path, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda1"] == 3.0 and out["vector"] == [1.0]


def test_run_matrix_asymmetric(tmp_path, capsys):
    path = _write_matrix(tmp_path / "bad.json", 2, [[1.0, 2.0], [0.0, 1.0]])
    rc = main(["run", "--matrix", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err


def test_run_matrix_non_finite_entries(tmp_path, capsys):
    path = _write_matrix(tmp_path / "inf.json", 2,
                         [[1.0, float("inf")], [float("inf"), 1.0]])
    rc = main(["run", "--matrix", path])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure" in err


def test_run_matrix_near_the_top_of_the_double_range(tmp_path, capsys):
    path = _write_matrix(tmp_path / "big.json", 2, [[1e308, 0.0], [0.0, 1.0]])
    assert main(["run", "--matrix", path, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["lambda1"] - 1.0) <= 1e-6 * 1e308
    path = _write_matrix(tmp_path / "huge.json", 3,
                         [[-1.7e308, 1e308, 0.0], [1e308, 1e308, 3.0],
                          [0.0, 3.0, 1.0]])
    assert main(["run", "--matrix", path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err


def test_run_refuses_a_nan_grad_tol(capsys):
    rc = main(["run", "--scenario", "example4", "--method", "r_newton",
               "--grad-tol", "nan"])
    assert rc == 2
    assert "configuration error: grad_tol" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--method", "r_backtracking", "--delta0", "inf"], "delta0"),
    (["--method", "r_backtracking", "--delta0", "nan"], "delta0"),
    (["--method", "r_new_q_newton", "--deltas", "nan,1"], "deltas"),
    (["--method", "r_new_q_newton", "--deltas", "0,inf"], "deltas"),
    (["--method", "r_new_q_newton", "--exponent-a", "inf"], "exponent_a"),
])
def test_run_refuses_a_non_finite_stepper_setting(flags, field, capsys):
    # Once accepted: delta0 = inf ended LineSearchExhausted and a nan
    # delta Diverged, both after 0 steps with exit 0.
    rc = main(["run", "--scenario", "example7"] + flags)
    captured = capsys.readouterr()
    assert rc == 2
    assert "configuration error: %s must be a real number in" % field in captured.err
    assert captured.out == ""


def test_run_matrix_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["run", "--matrix", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err


def test_run_matrix_wrong_shape(tmp_path, capsys):
    path = _write_matrix(tmp_path / "shape.json", 3, [[1.0, 0.0], [0.0, 1.0]])
    rc = main(["run", "--matrix", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "does not match" in err


@pytest.mark.parametrize("dim, rows", [("2", [[1.0, 0.0], [0.0, 1.0]]),
                                       (True, [[3.0]])])
def test_run_matrix_dim_not_an_integer(tmp_path, capsys, dim, rows):
    # A string dim once escaped as a TypeError with exit 1, and true
    # passed the shape test as 1.
    path = _write_matrix(tmp_path / "dim.json", dim, rows)
    assert main(["run", "--matrix", path]) == 2
    assert capsys.readouterr().err == (
        "configuration error: dim must be an integer, got %s\n" % json.dumps(dim))


def test_run_matrix_not_a_dict(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[[1, 0], [0, 1]]")
    rc = main(["run", "--matrix", str(path)])
    assert rc == 2
    capsys.readouterr()


STEPPER_FLAGS = [
    ["--alpha", "0.3"], ["--beta", "0.5"], ["--delta0", "2"],
    ["--exponent-a", "3"], ["--deltas", "0,5,9"], ["--lr", "0.01"],
    ["--grad-tol", "1e-3"], ["--random-deltas"],
]

# The scenario method that reads each stepper flag; --grad-tol is read
# by every method.
FLAG_READER = {"--alpha": "r_backtracking", "--beta": "r_backtracking",
               "--delta0": "r_local_backtracking", "--exponent-a": "r_new_q_newton",
               "--deltas": "r_new_q_newton", "--lr": "r_standard_gd",
               "--random-deltas": "r_new_q_newton"}


@pytest.mark.parametrize("flag", STEPPER_FLAGS)
def test_run_matrix_rejects_stepper_flags(tmp_path, capsys, flag):
    # The eigenvalue solver takes no stepper overrides; ignoring them
    # would print the same bytes as a run without them.
    path = _write_matrix(tmp_path / "d.json", 2, [[4.0, 0.0], [0.0, -1.0]])
    rc = main(["run", "--matrix", path] + flag)
    assert rc == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("flag", [f for f in STEPPER_FLAGS if f[0] in FLAG_READER])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_scenario_rejects_stepper_flags_the_method_does_not_read(capsys, flag,
                                                                command):
    # r_newton reads none of these; ignoring one would print the same
    # bytes as a run without it.
    base = [command, "--scenario", "example7", "--iters", "3"]
    assert main(base + ["--method", "r_newton"] + flag) == 2
    assert "does not read" in capsys.readouterr().err
    assert main(base + ["--method", FLAG_READER[flag[0]]] + flag) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("method, flags, named", [
    ("r_newton", ["--alpha", "0.3", "--lr", "0.1"], "--alpha, --lr"),
    ("r_backtracking", ["--lr", "0.1", "--delta0", "2", "--random-deltas"],
     "--lr, --random-deltas"),
    ("newton", ["--deltas", "0,1", "--exponent-a", "3", "--grad-tol", "1e-3"],
     "--exponent-a, --deltas"),
])
def test_unread_flags_are_named_as_typed(capsys, command, method, flags, named):
    # The message names the tag and the flags, not the stepper and the
    # params class they turn into.
    assert main([command, "--scenario", "example7", "--method", method] + flags) == 2
    assert capsys.readouterr().err == (
        "configuration error: method %s does not read %s\n" % (method, named))


@pytest.mark.parametrize("command", ["run", "trace"])
def test_scenario_rejects_flags_of_both_params_classes(capsys, command):
    # No method reads flags of two params classes: each tag names every
    # flag its own class has no field for, so the clash is the one
    # refusal of unread flags.
    cases = [
        (["--alpha", "0.3", "--deltas", "0,1"],
         {"r_backtracking": "--deltas", "r_new_q_newton": "--alpha",
          "r_newton": "--alpha, --deltas"}),
        (["--exponent-a", "3", "--delta0", "0.5", "--beta", "0.9", "--lr", "0.1"],
         {"r_backtracking": "--exponent-a, --lr",
          "r_new_q_newton": "--beta, --delta0, --lr",
          "r_newton": "--beta, --delta0, --exponent-a, --lr"}),
    ]
    for flags, named in cases:
        for method in ("r_backtracking", "r_new_q_newton", "r_newton"):
            assert main([command, "--scenario", "example7", "--method", method]
                        + flags) == 2
            assert capsys.readouterr().err == (
                "configuration error: method %s does not read %s\n"
                % (method, named[method]))


def test_run_matrix_accepts_run_flags(tmp_path, capsys):
    path = _write_matrix(tmp_path / "d.json", 2, [[4.0, 0.0], [0.0, -1.0]])
    rc = main(["run", "--matrix", path, "--method", "r_backtracking",
               "--iters", "40", "--seed", "3", "--retraction", "geodesic",
               "--format", "json"])
    assert rc == 0
    assert abs(json.loads(capsys.readouterr().out)["lambda1"] + 1.0) < 1e-8


def test_run_bad_deltas_string(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "r_new_q_newton",
               "--deltas", "0,abc"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error" in err


def test_run_duplicate_deltas_rejected(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "r_new_q_newton",
               "--deltas", "1,1"])
    assert rc == 2
    capsys.readouterr()


def test_run_random_deltas_smoke(capsys):
    rc = main(["run", "--scenario", "example7", "--method", "r_new_q_newton",
               "--random-deltas", "--seed", "3", "--iters", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "example7" in out


def test_corpus_json_deterministic(capsys):
    rc = main(["corpus", "--format", "json"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(["corpus", "--format", "json"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second
    payload = json.loads(first)
    assert len(payload) == 108


def test_corpus_csv_row_count(capsys):
    rc = main(["corpus", "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 109
    assert lines[0].startswith("scenario_id,method,")


def test_trace_header_matches_dimension(capsys):
    rc = main(["trace", "--scenario", "example1", "--method", "r_newton",
               "--iters", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "iter,f,grad_norm,step_size,x0"

    rc = main(["trace", "--scenario", "example7", "--method", "r_backtracking",
               "--iters", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[0] == "iter,f,grad_norm,step_size,x0,x1"


def test_trace_zero_iters_one_row(capsys):
    rc = main(["trace", "--scenario", "example7", "--method", "r_backtracking",
               "--iters", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "0"


def test_trace_kink_problem_newton_reaches_tiny_iterate(capsys):
    rc = main(["trace", "--scenario", "example1", "--method", "r_newton",
               "--iters", "38"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 40
    assert abs(float(lines[-1].split(",")[4])) <= 1e-10


def test_trace_backtracking_values_monotone(capsys):
    rc = main(["trace", "--scenario", "example7", "--method", "r_backtracking",
               "--iters", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert len(values) >= 2
    assert all(b <= a for a, b in zip(values, values[1:]))
