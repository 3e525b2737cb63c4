import json

import numpy as np
import pytest

from spinbundles.cli import main, parse_polynomial

FAST = ["--samples", "128", "--ode-steps", "128"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_polynomial_terms(points):
    f = parse_polynomial("2.5*x1^2*x3 - x2 + 0.5")
    vals = f(points[:64])
    expected = 2.5 * points[:64, 0] ** 2 * points[:64, 2] - points[:64, 1] + 0.5
    assert np.abs(vals - expected).max() < 1e-14


def test_parse_polynomial_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x4")
    with pytest.raises(ValueError):
        parse_polynomial("")
    with pytest.raises(ValueError):
        parse_polynomial("x1^9")
    with pytest.raises(ValueError):
        parse_polynomial("2**x1")


def test_verify_json_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--format", "json", *FAST)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["seed"] == 7
    assert {"check_id", "anchor", "residual", "tolerance", "pass"} == set(payload["checks"][0])
    assert out.endswith("\n")


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", *FAST)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert lines[-1].startswith("PASS:")


def test_verify_deterministic_modulo_wall_time(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--seed", "3", "--format", "json", *FAST)
    _, out2, _ = run_cli(capsys, "verify", "--seed", "3", "--format", "json", *FAST)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert a == b
    # byte-identical apart from the wall-clock line
    keep = lambda text: [ln for ln in text.splitlines() if '"wall_ms"' not in ln]
    assert keep(out1) == keep(out2)


def test_verify_fault_injection_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--fault-inject", "exchange.unitarity", "--format", "json", *FAST
    )
    assert code == 1
    payload = json.loads(out)
    failed = {c["check_id"] for c in payload["checks"] if not c["pass"]}
    assert failed == {"exchange.unitarity", "exchange.rule", "br.parallel-residual"}


def test_holonomy_nontrivial_bundle(capsys):
    code, out, _ = run_cli(capsys, "holonomy", "--bundle", "xi-minus", "--loop", "antipodal")
    assert code == 0
    assert abs(float(out.strip()) + 1.0) < 1e-6


def test_holonomy_trivial_and_moved_bundles(capsys):
    code, out, _ = run_cli(capsys, "holonomy", "--bundle", "xi-plus", "--loop", "antipodal")
    assert code == 0 and abs(float(out.strip()) - 1.0) < 1e-6
    code, out, _ = run_cli(
        capsys, "holonomy", "--bundle", "br:0", "--loop", "antipodal", "--steps", "1024"
    )
    assert code == 0 and abs(float(out.strip()) + 1.0) < 1e-6


def test_holonomy_small_circle_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "holonomy",
        "--bundle",
        "xi-minus",
        "--loop",
        "small-circle:0.4",
        "--steps",
        "1024",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["holonomy"]["re"] - 1.0) < 1e-6
    assert abs(payload["holonomy"]["im"]) < 1e-6


def test_exchange_at_origin(capsys):
    code, out, _ = run_cli(capsys, "exchange", "--at", "0,0")
    assert code == 0
    assert "unitarity residual:     0.000e+00" in out


def test_exchange_json(capsys):
    code, out, _ = run_cli(capsys, "exchange", "--at", "1.0,2.0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unitarity_residual"] < 1e-12
    assert payload["exchange_rule_residual"] < 1e-10
    u = np.array(payload["block_re"]) + 1j * np.array(payload["block_im"])
    assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12


def test_experiment_runs_both_gauges(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "--chi", "odd-linear", "--field", "x3", "--samples", "256"
    )
    assert code == 0
    assert "invariant=True singlevalued=True anti_singlevalued=False" in out
    code, out, _ = run_cli(
        capsys, "experiment", "--chi", "even-constant", "--field", "x3", "--samples", "256"
    )
    assert code == 0
    assert "invariant=True singlevalued=False anti_singlevalued=True" in out


def test_experiment_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment",
        "--chi",
        "even-constant",
        "--field",
        "x1",
        "--samples",
        "256",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == {
        "invariant": True,
        "singlevalued": False,
        "anti_singlevalued": True,
    }


def test_experiment_json_is_strict_for_even_coefficient(capsys):
    # A coefficient with an even part has no section to measure in step 1;
    # its residual must be JSON null, since strict parsers reject NaN.
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    code, out, _ = run_cli(
        capsys, "experiment", "--field", "x1^2", "--samples", "256", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["steps"]["step1"]["projector_residual"] is None


def test_usage_errors_exit_two(capsys):
    # each usage error with a fragment of its message; experiment checks
    # its sampling options with the same messages as verify
    for argv, message in (
        (["bogus"], "invalid choice"),
        (["verify", "--fault-inject", "nonsense"], "no fault is wired"),
        (["experiment", "--chi", "odd-linear", "--field", "x1^9"], "exceeds"),
        (["holonomy", "--bundle", "wat", "--loop", "antipodal"], "unknown bundle"),
        (["holonomy", "--bundle", "xi-minus", "--loop", "wat"], "unknown loop"),
        (["exchange", "--at", "zero"], "--at expects"),
        (["verify", "--samples", "2"], "samples must be at least 64"),
        (
            ["experiment", "--field", "x3", "--tol-functional", "-1"],
            "tol_functional must be positive",
        ),
        (["experiment", "--field", "x3", "--samples", "0"], "samples must be at least 64"),
        # sizes are capped before anything is allocated
        (["verify", "--samples", "100000000000"], "samples must be at most 1048576"),
        (["verify", "--ode-steps", "100000000000"], "ode_steps must be at most 65536"),
        (
            ["experiment", "--field", "x3", "--samples", "100000000000"],
            "samples must be at most 1048576",
        ),
        (
            ["holonomy", "--bundle", "xi-minus", "--loop", "antipodal", "--steps", "100000000000"],
            "steps must be at most 65536",
        ),
        (
            ["holonomy", "--bundle", "xi-minus", "--loop", "antipodal", "--steps", "8"],
            "steps must be at least 16",
        ),
        # each subcommand takes only the options it reads
        (
            ["holonomy", "--bundle", "xi-minus", "--loop", "antipodal", "--tol-holonomy", "0"],
            "unrecognized arguments",
        ),
        (
            ["holonomy", "--bundle", "xi-minus", "--loop", "antipodal", "--samples", "16"],
            "unrecognized arguments",
        ),
        (
            [
                "holonomy", "--bundle", "xi-minus", "--loop", "antipodal",
                "--tol-holonomy", "1e-30", "--steps", "256",
            ],
            "unrecognized arguments",
        ),
        (
            ["holonomy", "--bundle", "xi-minus", "--loop", "antipodal", "--ode-steps", "256"],
            "unrecognized arguments",
        ),
        (["exchange", "--at", "0.3,0.2", "--ode-steps", "8"], "unrecognized arguments"),
        (["exchange", "--at", "0.3,0.2", "--tol-algebraic", "1e-40"], "unrecognized arguments"),
        (["experiment", "--field", "x3", "--ode-steps", "64"], "unrecognized arguments"),
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err

