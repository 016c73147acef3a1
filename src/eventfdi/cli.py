"""Command-line interface.

Subcommands: solve (optimal attack parameters), simulate (Monte Carlo run
with optional trace), analyze (bias and covariance fixed points), sweep
(fixed-point trace per scaling value, CSV), reproduce-paper (the published
experiment end to end with a pass/fail table).

Exit codes: 0 success, 1 validation/configuration error or an output path
that cannot be written, 2 numeric failure.
A reader that closes stdout early (`| head`) ends the command quietly with
exit code 0.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis
from .attack import (
    AttackParams,
    SuccessCriteria,
    alarm_probability,
    feasible_delta_interval,
    solve_optimal_params,
    trigger_probability,
)
from .errors import NumericError, ToolkitError
from .estimator import riccati_fixed_point
from .harness import config_from_dict, paper_scenario, read_payload, run_scenario
from .special import chi2_quantile, marcum_q

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors and no abbreviations (--m is not --mu)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"eventfdi: error: {message}\n")


def _mu_grid(text: str) -> list:
    """The --mu-grid value: comma-separated scaling values."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _scaling(text: str) -> float:
    """A --mu value: a finite scaling >= 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 1.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 1, got {text!r}")
    return value


def _dof(text: str) -> int:
    """A --dof value: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _strict(value, undefined: set, key=None):
    """value with each float that is not finite replaced by None, its key added to undefined."""
    if isinstance(value, dict):
        return {k: _strict(v, undefined, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v, undefined, key) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        undefined.add(key)
        return None
    return value


def _json(payload: dict) -> str:
    """payload as strict JSON (RFC 8259 has no NaN or Infinity): a value that is not
    finite is null, and the key "undefined" names the fields that hold one."""
    undefined = set()
    payload = _strict(payload, undefined)
    if undefined:
        payload["undefined"] = "not finite: " + ", ".join(sorted(undefined))
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(payload: dict) -> None:
    sys.stdout.write(_json(payload))


def _cmd_solve(args) -> int:
    criteria = SuccessCriteria(M=args.target_M, Upsilon=args.upsilon)
    params = solve_optimal_params(args.beta, args.sigma, criteria, args.dof)
    psi = criteria.Psi
    out = {
        "mu_star": params.mu,
        "delta_bar_star": params.delta_bar,
        "psi": psi,
        "marcum_residual": abs(
            marcum_q(
                0.5 * args.dof, params.mu * params.delta_bar, params.mu * math.sqrt(args.sigma)
            )
            - args.upsilon
        ),
        "trigger_residual": abs(params.mu * (params.delta_bar - args.beta) - psi),
    }
    if args.mu is not None:
        low, high = feasible_delta_interval(args.mu, args.beta, args.sigma, criteria, args.dof)
        out["feasible_delta"] = {"mu": args.mu, "low": low, "high": high}
    _emit(out)
    return EXIT_OK


def _load(args, **overrides):
    """The --config scenario (default: the published one) with fields overridden."""
    payload = paper_scenario() if args.config is None else read_payload(args.config)
    payload.update(overrides)
    return config_from_dict(payload)


def _check_writable(path) -> None:
    """Raise OSError unless path can be opened for writing; leave no new file behind."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cmd_simulate(args) -> int:
    overrides = {"attack_mode": args.attack, "seed": args.seed}
    config = _load(args, **{k: v for k, v in overrides.items() if v is not None})
    for path in (args.trace, args.out):  # before the run, so that a bad path costs no run
        if path is not None:
            _check_writable(path)
    result = run_scenario(config, trace_path=args.trace)
    payload = result.summary.to_dict()
    if result.diverged:
        payload["divergence"] = result.diverged
    text = _json(payload)
    sys.stdout.write(text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return EXIT_NUMERIC if result.diverged else EXIT_OK


def _cmd_analyze(args) -> int:
    config = _load(args)
    model = config.model
    steady = riccati_fixed_point(model)
    params = config.attack_params
    if args.mu is not None:
        params = AttackParams(args.mu, params.delta_bar, model.m)
    bias = analysis.steady_bias(params, steady, model)
    attacked_fp = analysis.attacked_covariance_fixed_point(params, steady, model)
    open_fp = analysis.open_loop_fixed_point(model)
    _emit(
        {
            "mu": params.mu,
            "delta_bar": params.delta_bar,
            "bias": [float(v) for v in bias.value],
            "bias_prior": [float(v) for v in bias.prior_value],
            "attacked_cov_trace": float(np.trace(attacked_fp)),
            "kalman_prior_cov_trace": float(np.trace(steady.P)),
            "open_loop_cov_trace": float(np.trace(open_fp)),
            "analytic_trigger": trigger_probability(params, config.beta),
            "analytic_alarm": alarm_probability(params, config.detector.sigma, model.m),
        }
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args)
    steady = riccati_fixed_point(config.model)
    points = analysis.mu_sweep(args.mu_grid, steady, config.model)
    text = "mu,trace\n" + "".join(f"{p.mu:.17g},{p.trace:.17g}\n" for p in points)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    budget = {"steps": 1200, "trajectories": 10} if args.quick else {}
    bias_budget = (
        {"steps": 450, "trajectories": 40, "burn_in": 200, "attack_start": 100}
        if args.quick
        else {"steps": 700, "trajectories": 200, "burn_in": 200, "attack_start": 100}
    )
    lines = []
    failures = 0

    def gate(ok: bool, text: str):
        nonlocal failures
        failures += not ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {text}")

    base = paper_scenario(**budget)
    config = config_from_dict(base)
    model = config.model
    steady = riccati_fixed_point(model)
    params = config.attack_params

    open_trace = float(np.trace(analysis.open_loop_fixed_point(model)))
    nominal = run_scenario(config_from_dict(dict(base, attack_mode="off")))
    for name, value, target, tol in [
        ("scaling mu*", params.mu, 2.7705, 5e-3),
        ("bias delta*", params.delta_bar, 2.4828, 5e-3),
        ("threshold sigma (1% tail, 3 dof)", chi2_quantile(0.01, 3), 11.345, 5e-3),
        ("confidence level Psi", config.criteria.Psi, 3.0, 1e-3),
        ("open-loop covariance trace", open_trace, 0.0915, 5e-4),
        ("nominal communication rate", nominal.summary.comm_rate, 0.2969, 5e-3),
    ]:
        gate(abs(value - target) <= tol, f"{name}: {value:.6g} (target {target:.6g} +/- {tol:.2g})")

    attacked = run_scenario(config)
    n_dec = attacked.summary.step_count * attacked.summary.trajectory_count
    p_trig = attacked.summary.analytic_trigger
    gate(
        abs(attacked.summary.comm_rate - p_trig)
        <= 3 * math.sqrt(p_trig * (1 - p_trig) / n_dec),
        f"attacked communication rate: {attacked.summary.comm_rate:.6g} "
        f"(analytic {p_trig:.6g}, 3-SE band)",
    )
    gate(
        attacked.summary.alarm_rate <= 0.012,
        f"attacked alarm rate: {attacked.summary.alarm_rate:.6g} "
        f"(must stay <= 0.012; analytic {attacked.summary.analytic_alarm:.6g})",
    )
    gate(
        attacked.cancellation_max <= 1e-9,
        f"feedback cancellation gap: {attacked.cancellation_max:.3g} (<= 1e-09)",
    )

    bias_run = run_scenario(config_from_dict(dict(base, **bias_budget)))
    se = bias_run.traj_bias_means.std(axis=0, ddof=1) / math.sqrt(
        bias_run.traj_bias_means.shape[0]
    )
    gap = np.abs(bias_run.summary.emp_bias - bias_run.summary.theory_bias)
    gate(
        bool(np.all(gap <= 3 * se)),
        f"bias law componentwise (3-SE): max gap {gap.max():.3g}, 3*SE {(3 * se).min():.3g}..{(3 * se).max():.3g}",
    )
    cov_rel = abs(bias_run.summary.emp_cov_trace - bias_run.summary.theory_cov_trace) / (
        bias_run.summary.theory_cov_trace
    )
    gate(
        cov_rel <= 0.05 and bias_run.summary.comm_rate >= 0.995,
        f"attacked covariance trace: {bias_run.summary.emp_cov_trace:.6g} vs theory "
        f"{bias_run.summary.theory_cov_trace:.6g} (rel {cov_rel:.3g}, trigger rate "
        f"{bias_run.summary.comm_rate:.4f} audited >= 0.995)",
    )

    mu_large = AttackParams(1e4, params.delta_bar, model.m)
    large_trace = float(
        np.trace(analysis.attacked_covariance_fixed_point(mu_large, steady, model))
    )
    gate(
        abs(large_trace - open_trace) <= 1e-3,
        f"covariance trace at scaling 1e4: {large_trace:.6g} vs open loop {open_trace:.6g}",
    )

    lines.append(
        "NOTE  published attacked rate 99.98% is not derivable from the stated "
        f"constraints (analytic {p_trig * 100:.3f}%); observed "
        f"{attacked.summary.comm_rate * 100:.3f}%. Acceptance binds to the analytic value."
    )

    sys.stdout.write("\n".join(lines) + "\n")
    _emit(
        {
            "failures": failures,
            "nominal": nominal.summary.to_dict(),
            "attacked": attacked.summary.to_dict(),
            "bias_run": bias_run.summary.to_dict(),
        }
    )
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _build_parser() -> _Parser:
    parser = _Parser(prog="eventfdi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="optimal attack parameters from the two boundaries")
    solve.add_argument("--beta", type=float, required=True)
    solve.add_argument("--sigma", type=float, required=True)
    solve.add_argument("--upsilon", type=float, required=True)
    solve.add_argument("--target-M", dest="target_M", type=float, required=True)
    solve.add_argument("--dof", type=_dof, required=True)
    solve.add_argument(
        "--mu", type=_scaling, default=None, help="also report the feasible bias interval at this scaling"
    )
    solve.set_defaults(func=_cmd_solve)

    sim = sub.add_parser("simulate", help="Monte Carlo run of a scenario")
    sim.add_argument("--config", default=None, help="scenario JSON (default: built-in published scenario)")
    sim.add_argument("--attack", choices=["off", "forward_only", "two_channel"], default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trace", default=None, help="write the per-step CSV trace here")
    sim.add_argument("--out", default=None, help="also write the summary JSON here")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="bias law and covariance fixed points")
    ana.add_argument("--config", default=None)
    ana.add_argument("--mu", type=_scaling, default=None, help="override the scaling parameter")
    ana.set_defaults(func=_cmd_analyze)

    swp = sub.add_parser("sweep", help="attacked-covariance fixed-point trace per scaling value")
    swp.add_argument("--config", default=None)
    swp.add_argument("--mu-grid", dest="mu_grid", type=_mu_grid, default="1,1.5,2,2.7705,5,10,100")
    swp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    swp.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("reproduce-paper", help="published experiment with a pass/fail table")
    rep.add_argument("--quick", action="store_true", help="reduced Monte Carlo budget")
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone: send what is still buffered, and the flush
        # at interpreter exit, to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
