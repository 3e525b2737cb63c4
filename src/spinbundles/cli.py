"""Command-line front end: run the verification suite and individual probes.

Subcommands:
  verify      run every check and print a text or JSON report
  holonomy    transport a fiber frame around a loop and print the holonomy
  exchange    print the exchange block and its residuals at one direction
  experiment  run the five-step gauge experiment on a polynomial coefficient

Exit codes: 0 success / all checks pass, 1 check failures, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .berry_robbins import exchange_block, exchange_rule_residual
from .config_space import SpherePoint, sample_sphere
from .errors import ConfigError, GeometryError
from .experiments import (
    FAULT_TARGETS,
    SuiteConfig,
    VerificationReport,
    _check_sampling,
    five_step_from_coefficient,
    run_suite,
)
from .line_bundle import ChiVariant
from .section_algebra import polynomial_field
from .transport import (
    antipodal_arc,
    grassmann_field,
    great_circle,
    holonomy,
    small_circle,
    constant_projector_field,
)

MAX_FIELD_DEGREE = 8

_TERM_RE = re.compile(r"x([123])(?:\^(\d+))?$")


def parse_polynomial(text: str):
    """Parse a polynomial spec: sum of terms c*x1^a*x2^b*x3^c, degree <= 8."""
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial")
    pieces = re.split(r"(?<![eE*^+\-])([+-])", "+" + cleaned)
    # pieces alternate: '', sign, body, sign, body, ...
    terms = []
    for sign, body in zip(pieces[1::2], pieces[2::2]):
        if not body:
            raise ValueError(f"dangling sign in polynomial near {text!r}")
        coeff = -1.0 if sign == "-" else 1.0
        exps = [0, 0, 0]
        for factor in body.split("*"):
            m = _TERM_RE.match(factor)
            if m:
                exps[int(m.group(1)) - 1] += int(m.group(2) or 1)
                continue
            try:
                coeff *= float(factor)
            except ValueError:
                raise ValueError(f"cannot parse polynomial factor {factor!r}") from None
        if sum(exps) > MAX_FIELD_DEGREE:
            raise ValueError(f"polynomial degree {sum(exps)} exceeds {MAX_FIELD_DEGREE}")
        terms.append((coeff, tuple(exps)))
    return polynomial_field(terms, name=text.strip())


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--samples", type=int, default=2048, help="sample points (default 2048)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbundles",
        description="Numerical checks for line bundles over the projective plane "
        "and the moving two-spin basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification suite")
    _add_sampling(p_verify)
    p_verify.add_argument(
        "--ode-steps", type=int, default=4096, help="transport steps (default 4096)"
    )
    p_verify.add_argument(
        "--fd-step", type=float, default=1e-5, help="finite-difference step (default 1e-5)"
    )
    p_verify.add_argument("--tol-algebraic", type=float, default=1e-12)
    p_verify.add_argument("--tol-functional", type=float, default=1e-10)
    p_verify.add_argument("--tol-holonomy", type=float, default=1e-6)
    p_verify.add_argument(
        "--fault-inject",
        metavar="CHECK_ID",
        default=None,
        help=f"sabotage the inputs of a check family; targets: {', '.join(sorted(FAULT_TARGETS))}",
    )

    p_hol = sub.add_parser("holonomy", help="holonomy of a loop in one of the bundles")
    p_hol.add_argument(
        "--bundle",
        required=True,
        help="xi-minus | xi-plus | br:M with M in {-1, 0, +1}",
    )
    p_hol.add_argument(
        "--loop",
        required=True,
        help="antipodal | small-circle:<radius> | great-circle",
    )
    p_hol.add_argument("--steps", type=int, default=4096, help="transport steps (default 4096)")

    p_ex = sub.add_parser("exchange", help="exchange block and residuals at a direction")
    p_ex.add_argument("--at", required=True, metavar="THETA,PHI", help="angles in radians")

    p_exp = sub.add_parser("experiment", help="five-step gauge experiment")
    p_exp.add_argument(
        "--chi",
        default="odd-linear",
        choices=[v.value for v in ChiVariant],
        help="target gauge for the verdict",
    )
    p_exp.add_argument(
        "--field",
        required=True,
        metavar="POLY",
        help="coefficient polynomial, e.g. 'x3' or '2*x1^2*x3 - x2'",
    )
    _add_sampling(p_exp)
    p_exp.add_argument("--tol-functional", type=float, default=1e-10)

    for p in (p_verify, p_hol, p_ex, p_exp):
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _print_report_text(report: VerificationReport, out) -> None:
    width = max(len(c.check_id) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{status}  {c.check_id:<{width}}  {c.residual:>12.4e} <= {c.tolerance:<10.1e}  {c.anchor}",
            file=out,
        )
    n_pass = sum(1 for c in report.checks if c.passed)
    verdict = "PASS" if report.all_pass else "FAIL"
    print(
        f"{verdict}: {n_pass}/{len(report.checks)} checks passed "
        f"(seed {report.seed}, {report.wall_ms:.0f} ms)",
        file=out,
    )


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        seed=args.seed,
        samples=args.samples,
        ode_steps=args.ode_steps,
        fd_step=args.fd_step,
        tol_algebraic=args.tol_algebraic,
        tol_functional=args.tol_functional,
        tol_holonomy=args.tol_holonomy,
        output=args.format,
        fault_inject=args.fault_inject,
    )
    report = run_suite(config)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        _print_report_text(report, sys.stdout)
    return 0 if report.all_pass else 1


def _make_loop(spec: str):
    if spec == "antipodal":
        return antipodal_arc([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    if spec == "great-circle":
        return great_circle([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    if spec.startswith("small-circle:"):
        radius = float(spec.split(":", 1)[1])
        return small_circle([0.0, 0.0, 1.0], radius)
    raise ValueError(f"unknown loop spec {spec!r}")


def _make_bundle(spec: str):
    if spec == "xi-minus":
        return grassmann_field(ChiVariant.ODD_LINEAR)
    if spec == "xi-plus":
        line = np.zeros((3, 3), dtype=complex)
        line[0, 0] = 1.0
        return constant_projector_field(line, name="xi-plus")
    if spec.startswith("br:"):
        from .berry_robbins import exchange_line_field

        m = int(spec.split(":", 1)[1])
        return exchange_line_field(m)
    raise ValueError(f"unknown bundle spec {spec!r}")


def _cmd_holonomy(args) -> int:
    field = _make_bundle(args.bundle)
    loop = _make_loop(args.loop)
    h = holonomy(field, loop, args.steps)
    if args.format == "json":
        payload = {
            "bundle": args.bundle,
            "loop": args.loop,
            "steps": args.steps,
            "holonomy": {"re": h.real, "im": h.imag},
        }
        sys.stdout.write(json.dumps(payload) + "\n")
    else:
        if abs(h.imag) < 1e-9:
            print(f"{h.real:.6f}")
        else:
            print(f"{h.real:.6f}{h.imag:+.6f}i")
    return 0


def _cmd_exchange(args) -> int:
    try:
        theta_s, phi_s = args.at.split(",")
        theta, phi = float(theta_s), float(phi_s)
    except ValueError:
        raise ValueError(f"--at expects 'theta,phi', got {args.at!r}") from None
    u = exchange_block(theta, phi)
    unitarity = float(np.abs(u.conj().T @ u - np.eye(3)).max())
    x = SpherePoint.from_angles(theta, phi)
    rule = exchange_rule_residual(x.vec[None, :])
    if args.format == "json":
        payload = {
            "theta": theta,
            "phi": phi,
            "block_re": u.real.tolist(),
            "block_im": u.imag.tolist(),
            "unitarity_residual": unitarity,
            "exchange_rule_residual": rule,
        }
        sys.stdout.write(json.dumps(payload) + "\n")
        return 0
    print(f"U(theta={theta:.6f}, phi={phi:.6f}) =")
    for row in u:
        print("  [ " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + " ]")
    print(f"unitarity residual:     {unitarity:.3e}")
    print(f"exchange-rule residual: {rule:.3e}")
    return 0


def _cmd_experiment(args) -> int:
    _check_sampling(args.seed, args.samples, args.tol_functional)
    coeff = parse_polynomial(args.field)
    variant = ChiVariant(args.chi)
    rng = np.random.default_rng(args.seed)
    points = sample_sphere(args.samples, rng)
    report = five_step_from_coefficient(
        coeff, variant, points=points, tol=args.tol_functional
    )
    if args.format == "json":
        sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
        return 0
    print(f"five-step experiment, gauge {report.chi_variant}, field {args.field!r}")
    for key in ("step1", "step2", "step3", "step4", "step5"):
        print(f"  {key}: {getattr(report, key)}")
    if report.vacuous:
        print("  verdict: vacuous (section is numerically zero)")
    else:
        print(
            "  verdict: "
            f"invariant={report.invariant} "
            f"singlevalued={report.singlevalued} "
            f"anti_singlevalued={report.anti_singlevalued}"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "holonomy":
            return _cmd_holonomy(args)
        if args.command == "exchange":
            return _cmd_exchange(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
    except (ConfigError, ValueError, GeometryError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
