"""Command-line interface.

Subcommands: solve (optimal attack parameters), simulate (Monte Carlo run
with optional trace), analyze (bias and covariance fixed points), sweep
(fixed-point trace per scaling value, CSV), reproduce-paper (the published
experiment end to end, each row of GATES, the one table of its acceptance
gates, printed as PASS or FAIL).

Exit codes: 0 success, 1 validation/configuration error or an output path
that cannot be written, 2 numeric failure.
A reader that closes stdout early (`| head`) ends the command quietly with
exit code 0.
"""

import argparse
import collections
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import analysis, harness
from .attack import AttackParams, SuccessCriteria, feasible_delta_interval, solve_optimal_params
from .errors import NumericError, ToolkitError
from .estimator import riccati_fixed_point
from .harness import ATTACK_MODES, RunResult, config_from_dict, paper_scenario, read_payload, run_scenario
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
    model, params = config.model, config.attack_params
    if args.mu is not None:
        params = AttackParams(args.mu, params.delta_bar, model.m)
        config = dataclasses.replace(config, attack_params=params)
    theory = harness.theory(config)
    analysis.check_stable(model, "steady bias")  # no values to print for an unstable A
    _emit(
        {
            "mu": params.mu,
            "delta_bar": params.delta_bar,
            "bias": [float(v) for v in theory.bias],
            "bias_prior": [float(v) for v in model.A @ theory.bias],
            "attacked_cov_trace": theory.cov_trace,
            "kalman_prior_cov_trace": float(np.trace(theory.steady.P)),
            "open_loop_cov_trace": theory.open_trace,
            "analytic_trigger": theory.trigger,
            "analytic_alarm": theory.alarm,
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


# The published experiment's three runs and the analysis values GATES read.
Reproduction = collections.namedtuple(
    "Reproduction", "config theory nominal attacked bias_run")


def reproduce_paper(quick: bool = False) -> Reproduction:
    """The runs and analysis values GATES read: the paper's budget, or a reduced one."""
    base = paper_scenario(**({"steps": 1200, "trajectories": 10} if quick else {}))
    bias = {"steps": 450, "trajectories": 40} if quick else {"steps": 700, "trajectories": 200}
    config = config_from_dict(base)
    return Reproduction(
        config=config,
        theory=harness.theory(config),
        nominal=run_scenario(config_from_dict(dict(base, attack_mode="off"))),
        attacked=run_scenario(config),
        bias_run=run_scenario(config_from_dict(paper_scenario(**bias))),
    )


# One acceptance gate: read(reproduction) is the value that kind tests against bound,
# text(reproduction, value, bound) what the report prints after the name. Kinds: "near",
# within bound = (target, tolerance); "at most"; "within SE", each component of value[0]
# within bound SEs, value[2], of value[1]; "covariance", the trace value[0] within the
# relative bound[0] of its theory value[1], at a trigger rate value[2] of at least
# bound[1], the regime the theory assumes; "open loop", value[0] within bound of value[1].
Gate = collections.namedtuple(
    "Gate", "name read bound kind text",
    defaults=(lambda r, v, b: f"{v:.6g} (target {b[0]:.6g} +/- {b[1]:.2g})",),
)
_KINDS = {
    "near": lambda v, b: abs(v - b[0]) <= b[1],
    "at most": lambda v, b: v <= b,
    "within SE": lambda v, b: np.all(np.abs(v[0] - v[1]) <= b * v[2]),
    "covariance": lambda v, b: abs(v[0] - v[1]) / v[1] <= b[0] and v[2] >= b[1],
    "open loop": lambda v, b: abs(v[0] - v[1]) <= b,
}


def evaluate(gate: Gate, reproduction: Reproduction) -> tuple:
    """(passed, the report line) of one row of GATES on reproduction."""
    value = gate.read(reproduction)
    ok = bool(_KINDS[gate.kind](value, gate.bound))
    text = gate.text(reproduction, value, gate.bound)
    return ok, f"{'PASS' if ok else 'FAIL'}  {gate.name}: {text}"


def _rate(s) -> tuple:
    """(trigger rate, analytic rate, binomial SE over every decision) of a summary."""
    p = s.analytic_trigger
    return s.comm_rate, p, math.sqrt(p * (1 - p) / (s.step_count * s.trajectory_count))


def _bias(run: RunResult) -> tuple:
    """(empirical bias, theory, its SE with one batch per trajectory) of a run."""
    return run.summary.emp_bias, run.summary.theory_bias, run.sums.se("bias")


def _nominal_covariance(run: RunResult) -> tuple:
    """(empirical covariance trace, event-based theory, its SE with one batch per trajectory)."""
    return run.summary.emp_cov_trace, run.summary.theory_cov_trace, run.sums.se("err_sq")


def _largest_z(empirical, theory, se, bound) -> str:
    """The component whose gap is the most SEs from its theory value, against bound."""
    gap = empirical - theory
    z = np.abs(gap) / se
    i = int(np.argmax(z))
    return f"max |z| {z[i]:.3g} (<= {bound}) at component {i}: gap {gap[i]:.3g}, SE {se[i]:.3g}"


def _covariance(s) -> tuple:
    """(empirical covariance trace, theory, trigger rate) of a summary."""
    return s.emp_cov_trace, s.theory_cov_trace, s.comm_rate


def _large_scaling(r: Reproduction) -> tuple:
    """(attacked fixed-point trace at scaling 1e4, open-loop trace)."""
    model = r.config.model
    params = AttackParams(1e4, r.config.attack_params.delta_bar, model.m)
    fixed_point = analysis.attacked_covariance_fixed_point(params, r.theory.steady, model)
    return float(np.trace(fixed_point)), r.theory.open_trace


# The acceptance gates of arXiv 2110.07378, section 5, each bound stated once:
# `reproduce-paper` prints every row, and tests/test_acceptance.py asserts it.
GATES = (
    Gate("scaling mu*", lambda r: r.config.attack_params.mu, (2.7705, 5e-3), "near"),
    Gate("bias delta*", lambda r: r.config.attack_params.delta_bar, (2.4828, 5e-3), "near"),
    Gate("threshold sigma (1% tail, 3 dof)", lambda r: chi2_quantile(0.01, 3), (11.345, 5e-3),
         "near"),
    Gate("confidence level Psi", lambda r: r.config.criteria.Psi, (3.0, 1e-3), "near"),
    Gate("open-loop covariance trace", lambda r: r.theory.open_trace, (0.0915, 5e-4), "near"),
    Gate("nominal communication rate", lambda r: r.nominal.summary.comm_rate, (0.2969, 5e-3),
         "near"),
    Gate("nominal covariance trace (3-SE)", lambda r: _nominal_covariance(r.nominal), 3,
         "within SE", lambda r, v, b: f"{v[0]:.6g} vs event-based theory {v[1]:.6g} "
         f"(z {(v[0] - v[1]) / v[2]:.3g}, {b}-SE band)"),
    Gate("attacked communication rate", lambda r: _rate(r.attacked.summary), 3, "within SE",
         lambda r, v, b: f"{v[0]:.6g} (analytic {v[1]:.6g}, {b}-SE band)"),
    Gate("attacked alarm rate", lambda r: r.attacked.summary.alarm_rate, 0.012, "at most",
         lambda r, v, b: f"{v:.6g} (must stay <= {b:.6g}; "
                         f"analytic {r.attacked.summary.analytic_alarm:.6g})"),
    Gate("feedback cancellation gap", lambda r: r.attacked.cancellation_max, 1e-9, "at most",
         lambda r, v, b: f"{v:.3g} (<= {b:.3g})"),
    Gate("bias law componentwise (3-SE)", lambda r: _bias(r.bias_run), 3, "within SE",
         lambda r, v, b: _largest_z(*v, b)),
    Gate("attacked covariance trace", lambda r: _covariance(r.bias_run.summary), (0.05, 0.995),
         "covariance", lambda r, v, b: f"{v[0]:.6g} vs theory {v[1]:.6g} (rel "
         f"{abs(v[0] - v[1]) / v[1]:.3g}, trigger rate {v[2]:.4f} audited >= {b[1]})"),
    Gate("covariance trace at scaling 1e4", _large_scaling, 1e-3, "open loop",
         lambda r, v, b: f"{v[0]:.6g} vs open loop {v[1]:.6g}"),
)


def report(reproduction: Reproduction) -> int:
    """Print each row of GATES, a NOTE and the runs' summaries as JSON; the exit code."""
    rows = [evaluate(gate, reproduction) for gate in GATES]
    attacked = reproduction.attacked.summary
    note = (
        "NOTE  published attacked rate 99.98% is not derivable from the stated "
        f"constraints (analytic {attacked.analytic_trigger * 100:.3f}%); observed "
        f"{attacked.comm_rate * 100:.3f}%. Acceptance binds to the analytic value."
    )
    sys.stdout.write("\n".join([*(text for _, text in rows), note]) + "\n")
    failures = sum(not ok for ok, _ in rows)
    _emit(
        {
            "failures": failures,
            "nominal": reproduction.nominal.summary.to_dict(),
            "attacked": attacked.to_dict(),
            "bias_run": reproduction.bias_run.summary.to_dict(),
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
    sim.add_argument("--attack", choices=ATTACK_MODES, default=None)
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
    rep.set_defaults(func=lambda args: report(reproduce_paper(args.quick)))

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
