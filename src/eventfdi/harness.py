"""Scenario configuration, closed-loop Monte Carlo runs, traces and summaries.

One simulated step wires the blocks together in channel order: plant
measurement, estimator time update, sensor innovation against the (possibly
attacked) feedback, whitening, forward attack, scheduler decision on the
received data, detector statistic on the received data, measurement update,
attack-effect bookkeeping. Trajectories are independent (seed, trajectory)
substreams, so runs are deterministic, and the records are reduced once, to
each surviving trajectory's window sums in index order (TrajectorySums).

Attack modes:
  off          - plain event-based loop.
  forward_only - innovation rescaled/biased on the forward channel; the
                 feedback channel is untouched, so the sensor-side
                 innovation drifts away from nominal (negative control).
  two_channel  - forward attack plus feedback cancellation; the sensor-side
                 innovation stays nominal.

The remote estimator receives the same attacked sequence in both attacked
modes (the attacker reconstructs the nominal innovation from its own effect
recursion), which is what makes the modes comparable stream-for-stream.

Simulation core: one step loop advances every trajectory at once. State
vectors are (T, n, 1) columns, covariances (T, n, n), and S, L, F, K are
held per trajectory. The plant does not depend on the estimator, so each
trajectory's noise is drawn in one block from its own (seed, trajectory)
stream and the plant path is computed before the filter loop. The records
stay trajectory-major, (T, steps, ...), so that a trajectory's reductions
read its own contiguous rows. The measurements and the loop's per-step
buffers are step-major, (steps, T, ...) and (block, T, ...), so that every
operand of a step is one contiguous (T, ...) slab; the loop copies each
block of its buffers into the records with one assignment per array. The
scalar functions in estimator, model, attack and detector stay the
specification:
each trajectory's records equal, bit for bit, what a loop over those
functions produces (tests/_oracles.py keeps that loop as the reference).
That holds because every product is a stacked np.matmul, which runs the
same kernel per slice as the 2-D product, and everything else is an
elementwise ufunc, a masked ufunc write (where=) or a max/min reduction;
einsum, `X @ A.T` rewrites and `sum` contractions change the rounding and
are not used. A per-step choice is the where= mask of the ufunc that
consumes it, not an np.where temporary: np.add(x, u, out=x, where=gamma)
has the bits of x + np.where(gamma, u, -0.0), and np.multiply(kappa, c,
out=c, where=~gamma) those of np.where(gamma, 1.0, kappa) * c, since
x + (-0.0) and 1.0 * x are x for every double that arithmetic makes,
signed zeros, infinities and nan included, and where= leaves the
masked-out entries as they are. The one exception is a sum of two nans,
which keeps either one's sign and payload as numpy's loop for the operands
picks; only a diverged slice carries nan, and no output reads its records.
S is factorized by estimator.factor_stack, the factorization the scalar
functions use: in closed form elementwise for m <= 2 and by a stacked
Cholesky for m >= 3, each slice with the bits it gets alone. For every m,
a slice that is not positive definite gets non-finite factors, where the
scalar functions raise NumericError.

The core runs in two parts. The received data eps_tilde = F^T z_nominal /
mu + delta is built from the nominal innovation, so the scheduler
decision, the covariance path and the memo depend on the nominal chain
alone (x_n, z_nominal, P, L, F, K). The scheduler loop runs that chain one
step at a time. The attacked estimate x_a, the attack effect x_tilde, the
sensor innovation z and its whitening eps never feed back into it, so
_AttackPass computes them afterwards, one block of attacked steps at a
time. The loop makes the pass at attack_start, from x_n's posterior there,
and hands it each attacked step: x_a and x_tilde are one (T, 2, n, 1)
recursion of one matmul and two adds per step, the rest stacked products
over the block; the attack mode decides only the sensor's z. The
recursions keep their bits by the same rule: a silent step adds -0.0, and
x_a's half of x_tilde's second increment is -0.0 throughout, so each step
adds that increment as one contiguous (T, 2, n, 1) slab. The loop and the
pass share one block length, _attack_block(n, m), and the loop's blocks
also end at attack_start, so each block of the pass is one block of the
loop and flush() reads the loop's buffers of it. The buffers are
O(T x block) whatever the number of steps. Under attack "off" the sensor's
data is the received data and the remote estimate the nominal one, so xa,
z and eps are the arrays xn, zn and epst.

Covariance memo: under an attack the scheduler fires on almost every step,
so the covariance recursion is nearly the Riccati map and keeps reaching
P+ bits it reached before. On attacked steps (k >= attack_start) the run's
_CovarianceMemo serves the prior (P, L, F, K) and the next P+ when it has
seen every slice's (P+, gamma) before, and computes the step as above
otherwise. It is exact: those values, non-finite factors included, are
functions of the P+ bits and gamma alone, and F is stored and served
through estimator.f_storage, so it keeps factor_stack's layout. The
attack-off path and the steps before the attack run no memo code.

A trajectory diverges when its plant states or its records go non-finite,
as the factors of an S that is not positive definite make them, or grow
so large that a square the summary sums over the trajectories would
overflow (an unstable plant does that). It is masked, not raised: its
slice carries nan and inf without warnings, no operation mixes slices,
and it is left out of the aggregates and the trace.

Memory: the measurements and every per-step record of every trajectory
are kept until the run ends, T * steps * (3n + 5m + 1) doubles under an
attack and T * steps * (2n + 3m + 1) with it off (three records are
shared). The plant's path holds less: the noise block, x and y, and one
y-sized temporary, and the noise is freed before the filter loop. The
summary's reductions hold one or two window-sized temporaries at a time:
the paper's 50 x 4200 run peaks at 38.1 MB under an attack and 23.8 MB off.
A trace adds one _TRACE_CHUNK of rows, about 0.2 MB at n = 3, m = 2,
whatever the number of steps. One block is 25 steps on the paper system.
The attack pass's buffers of one block take about _ATTACK_PASS_BYTES
(8 KiB) per trajectory under either attacked mode, and the loop's buffers
n + 2m doubles and a bool per trajectory-step of it, in every mode. The
memo holds at most _MEMO_NODES nodes of n^2 + 2m^2 + nm doubles each, plus
an n^2-double key: the paper's attacked runs make about 450 nodes at
10 x 700, 2,200 at 50 x 4200 and 7,400 at 200 x 700. Measured peaks are in
CHANGES.md and BENCH_*.json.
"""

import itertools
import json
import math
import operator
import sys
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .attack import (
    AttackParams,
    SuccessCriteria,
    alarm_probability,
    solve_optimal_params,
    trigger_probability,
)
from .detector import DetectorConfig, check_thresholds, design_threshold
from .errors import ConfigError, DivergenceError, DomainError, ModelError, NumericError
from .estimator import _sym, f_storage, factor_stack, initial_filter_state, riccati_fixed_point
from .model import RandomSource, SystemModel
from .special import _check_dof, kappa

ATTACK_MODES = ("off", "forward_only", "two_channel")

# One config field. A "number" is finite and read as a float. An "integer" is
# read as an int; JSON has one number type, so 50.0 is the integer 50. A
# "matrix" is non-empty rows of numbers, an "enum" one of items, and an
# "object" a mapping of the fields items (rows) and no others. bounds are JSON
# Schema keywords. A field with a default may be omitted or null, and then takes
# it; a callable default is computed from the fields before it.
_Field = namedtuple("_Field", "name kind bounds default description items", defaults=((),))
_REQUIRED = object()
_BOUNDS = {  # JSON Schema keyword: (symbol, test)
    "minimum": (">=", operator.ge),
    "exclusiveMinimum": (">", operator.gt),
    "exclusiveMaximum": ("<", operator.lt),
}
_KIND_TEXT = {"number": "a number", "integer": "an integer", "matrix": "a matrix of numbers"}
_AT_LEAST_0, _AT_LEAST_1 = {"minimum": 0}, {"minimum": 1}
_OPEN_UNIT = {"exclusiveMinimum": 0, "exclusiveMaximum": 1}
_MATRICES = {
    "A": "n x n state transition",
    "C": "m x n observation",
    "Q": "n x n process-noise covariance, PSD",
    "R": "m x m measurement-noise covariance, PD",
    "Xi0": "n x n initial-state covariance, PSD",
}
_CONFIG = _Field("config", "object", {}, _REQUIRED, "eventfdi scenario configuration", (
    _Field("model", "object", {}, _REQUIRED, "plant; SystemModel checks shapes and definiteness",
           tuple(_Field(key, "matrix", {}, _REQUIRED, text) for key, text in _MATRICES.items())),
    _Field("beta", "number", _AT_LEAST_0, _REQUIRED, "scheduler threshold"),
    _Field("upsilon", "number", _OPEN_UNIT, _REQUIRED, "detector false-alarm rate"),
    _Field("M", "number", _OPEN_UNIT, _REQUIRED, "attack target: minimum trigger probability"),
    _Field("solver_dof", "integer", _AT_LEAST_1, lambda f: len(f["model"]["C"]),
           "chi-square dof of the threshold design and the attack solve (default: m)"),
    _Field("sigma", "number", {"exclusiveMinimum": 0}, None,
           "detector threshold (default: designed from upsilon and solver_dof)"),
    _Field("steps", "integer", _AT_LEAST_1, _REQUIRED, "simulated steps per trajectory"),
    _Field("trajectories", "integer", _AT_LEAST_1, _REQUIRED, "independent trajectories"),
    _Field("burn_in", "integer", _AT_LEAST_0, _REQUIRED, "steps before the metrics window"),
    _Field("attack_start", "integer", _AT_LEAST_0, lambda f: f["burn_in"] // 2,
           "step at which the attack switches on (default: burn_in // 2)"),
    _Field("seed", "integer", {}, _REQUIRED, "base seed; trajectory t uses substream (seed, t)"),
    _Field("attack_mode", "enum", {}, _REQUIRED, "channels the attacker acts on", ATTACK_MODES),
    _Field("attack_params", "object", {}, None,
           "unused when attack_mode is 'off' (default: solved from beta, sigma, M, upsilon and "
           "solver_dof); AttackParams checks that (mu delta_bar)^2 is finite",
           (_Field("mu", "number", _AT_LEAST_1, _REQUIRED, "forward-channel scaling"),
            _Field("delta_bar", "number", {}, _REQUIRED, "bias on the first channel"))),
))


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Fully resolved simulation scenario.

    The file's sigma, upsilon and solver_dof live in detector (sigma,
    upsilon, dof), and its M and upsilon in criteria (M, Upsilon). Both
    detector.sigma and attack_params are always concrete here: load_config
    designs the threshold from (upsilon, solver_dof) and solves the attack
    parameters when the file omits them. Metrics cover k >= burn_in; the
    attack switches on at attack_start (default burn_in // 2) so both the
    filter and the attack bias are settled before the metrics window.
    """

    model: SystemModel
    beta: float
    steps: int
    trajectories: int
    burn_in: int
    attack_start: int
    seed: int
    attack_mode: str
    attack_params: AttackParams
    detector: DetectorConfig
    criteria: SuccessCriteria


@dataclass
class SimulationSummary:
    """Post-burn-in aggregate of one scenario run.

    comm_rate and alarm_rate are fractions of step_count * trajectory_count
    decisions, where step_count counts post-burn-in steps per trajectory.
    theory_bias, theory_cov_trace, analytic_trigger and analytic_alarm are
    the bias, cov_trace, trigger and alarm of theory(config); the covariance
    is the attacked fixed point under an attack and the event-based filter's
    with the attack off. The first two need a stable A and are nan
    otherwise. emp_cov_trace is the mean of ||xhat_a - x - c||^2 about the
    centre c = theory_bias, or c = 0 (the mean squared error) where the
    theory is undefined. to_dict writes an undefined theory as null, with
    the reason under "theory".
    """

    comm_rate: float
    alarm_rate: float
    emp_bias: np.ndarray
    emp_cov_trace: float
    theory_bias: np.ndarray
    theory_cov_trace: float
    analytic_trigger: float
    analytic_alarm: float
    step_count: int
    trajectory_count: int

    def to_dict(self) -> dict:
        theory = math.isfinite(self.theory_cov_trace)
        return {
            "comm_rate": self.comm_rate,
            "alarm_rate": self.alarm_rate,
            "emp_bias": [float(v) for v in self.emp_bias],
            "emp_cov_trace": self.emp_cov_trace,
            "theory_bias": [float(v) for v in self.theory_bias] if theory else None,
            "theory_cov_trace": self.theory_cov_trace if theory else None,
            "analytic_trigger": self.analytic_trigger,
            "analytic_alarm": self.analytic_alarm,
            "step_count": self.step_count,
            "trajectory_count": self.trajectory_count,
            **({} if theory else {"theory": "undefined: A is not stable"}),
        }


@dataclass(frozen=True, eq=False)
class TrajectorySums:
    """Each surviving trajectory's sums over the post-burn-in window, one row per
    trajectory in index order. A mean over the run adds the rows one after
    another and divides by count times their number; se() is its standard error.
    """

    count: int  # steps in the window
    gamma: np.ndarray  # (T,) scheduler decisions
    alarm: np.ndarray  # (T,) detector decisions
    err_sq: np.ndarray  # (T,) ||xhat_a - x - c||^2 about SimulationSummary's centre c
    bias: np.ndarray  # (T, n) xhat_a - xhat
    z: np.ndarray  # (T, m) sensor-side innovation
    zz: np.ndarray  # (T, m, m) ... and its outer products
    eps: np.ndarray  # (T, m) whitened sensor-side innovation
    eps_sq: np.ndarray  # (T, m) ... its squares
    eps_lag: np.ndarray  # (T, m) ... and its lag-1 products, count - 1 of them
    g: np.ndarray  # (T,) detector statistic

    def se(self, name: str) -> np.ndarray:
        """Standard error of the mean of the field name's rows / count, one batch per
        trajectory (batch means; Flegal and Jones, Ann. Statist. 38(2), 2010); nan,
        with no warning, when one trajectory survives."""
        means = getattr(self, name) / self.count
        if len(means) < 2:
            return np.full(means.shape[1:], np.nan)
        return means.std(axis=0, ddof=1) / math.sqrt(len(means))


@dataclass
class RunResult:
    """A run's summary, the window sums it adds up, and what the gates and perfbench read."""

    summary: SimulationSummary
    sums: TrajectorySums
    traj_bias_means: np.ndarray  # (trajectories, n) sums.bias / sums.count
    cancellation_max: float  # max_i |z_sensor - z_nominal|_i / (1 + |z_nominal_i|)
    gamma_count: int  # the rows of sums.gamma added
    alarm_count: int  # the rows of sums.alarm added
    diverged: list = field(default_factory=list)


def _solver_dof(f: dict) -> None:
    """solver_dof checked by the rule every chi-square routine applies, and sigma
    designed from upsilon and solver_dof when the file omits it; a dof whose float
    overflows, or a design that fails, as it does when no threshold meets the budget
    at that dof, raises ConfigError on solver_dof."""
    try:
        _check_dof(f["solver_dof"])
        if f["sigma"] is None:
            f["sigma"] = design_threshold(f["upsilon"], f["solver_dof"]).sigma
    except (DomainError, NumericError) as exc:
        raise ConfigError(f"invalid 'solver_dof': {exc}", field="solver_dof") from exc


def _attack_params(f: dict) -> None:
    """attack_params resolved: off, the given pair by AttackParams, or solved; the
    solver raises ConfigError on M when M < Q(beta) or no scaling meets M."""
    m, raw = f["model"].m, f["attack_params"]
    if f["attack_mode"] == "off":
        f["attack_params"] = AttackParams.off(m)
    elif raw is None:
        criteria = SuccessCriteria(M=f["M"], Upsilon=f["upsilon"])
        f["attack_params"] = solve_optimal_params(
            f["beta"], f["sigma"], criteria, f["solver_dof"], m=m
        )
    else:
        try:
            f["attack_params"] = AttackParams(raw["mu"], raw["delta_bar"], m)
        except DomainError as exc:
            raise ConfigError(f"invalid attack_params: {exc}", field="attack_params") from exc


# The rules across fields, in the order they are checked: (field, rule, broken).
# broken(fields) is true when the rule does not hold, or raises ConfigError
# naming the field itself; config_schema() adds each rule to its field's description.
_CROSS_RULES = (
    ("burn_in", "must be smaller than steps", lambda f: f["burn_in"] >= f["steps"]),
    ("attack_start", "must not exceed burn_in", lambda f: f["attack_start"] > f["burn_in"]),
    ("solver_dof", "must be finite as a float, and admit a threshold design for upsilon "
     "when sigma is omitted", _solver_dof),
    ("beta", "must be below sqrt(sigma)", lambda f: check_thresholds(f["beta"], f["sigma"])),
    ("M", "must be at least Q(beta), and met by some scaling, when attack_params is solved",
     _attack_params),
)


def _number(value) -> float | None:
    """value as a float, or None if it is not a finite JSON number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value) if abs(value) <= sys.float_info.max else None


def _read(row: _Field, value, name: str, field: str | None):
    """value read as row's kind, else ConfigError on field (at the root, on the field at fault)."""
    read = None
    if row.kind == "object" and isinstance(value, dict):
        prefix = f"{name}." if field else ""
        unknown = sorted(set(value) - {item.name for item in row.items})
        if unknown:
            raise ConfigError(f"unknown config fields: {[prefix + k for k in unknown]}",
                              field=field or unknown[0])
        read = {}
        for item in row.items:
            given, key, at = value.get(item.name), prefix + item.name, field or item.name
            if given is None and item.default is not _REQUIRED:
                read[item.name] = item.default(read) if callable(item.default) else item.default
            elif item.name not in value:
                raise ConfigError(f"missing config field '{key}'", field=at)
            else:
                read[item.name] = _read(item, given, key, at)
        return read
    if row.kind == "enum":
        read = value if value in row.items else None
    elif row.kind == "matrix" and isinstance(value, list) and value:
        ok = all(isinstance(r, list) and r and None not in map(_number, r) for r in value)
        read = value if ok else None
    elif row.kind == "number":
        read = _number(value)
    elif row.kind == "integer" and not isinstance(value, bool):
        integral = isinstance(value, float) and value.is_integer()
        read = int(value) if integral else value if isinstance(value, int) else None
    if read is not None and all(_BOUNDS[key][1](read, bound) for key, bound in row.bounds.items()):
        return read
    if row.kind == "object":
        kind = f"a mapping with keys {sorted(item.name for item in row.items)}"
    else:
        kind = f"one of {row.items}" if row.kind == "enum" else _KIND_TEXT[row.kind]
    bounds = " and ".join(f"{_BOUNDS[key][0]} {bound}" for key, bound in row.bounds.items())
    kind += (f" {bounds}" if bounds else "") + ("" if row.default is _REQUIRED else " or null")
    raise ConfigError(f"'{name}' must be {kind}, got {value!r}", field=field)


def config_from_dict(payload: dict) -> ScenarioConfig:
    """Validate and resolve a raw configuration mapping into a ScenarioConfig: each
    field is read by its row of the table, SystemModel checks the model, and the
    _CROSS_RULES are checked in order. Each rejection is a ConfigError naming its field."""
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    f = _read(_CONFIG, payload, "config", None)
    try:
        f["model"] = SystemModel(**f["model"])
    except (ModelError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}", field="model") from exc
    for name, rule, broken in _CROSS_RULES:
        if broken(f):
            raise ConfigError(f"'{name}' {rule}, got {f[name]!r}", field=name)
    sigma, upsilon, target, dof = (f.pop(key) for key in ("sigma", "upsilon", "M", "solver_dof"))
    detector = DetectorConfig(sigma, upsilon, dof)
    return ScenarioConfig(**f, detector=detector, criteria=SuccessCriteria(target, upsilon))


def _schema(row: _Field) -> dict:
    """The JSON Schema of one row of the table, with the rules across fields on it."""
    if row.kind == "object":
        required = [item.name for item in row.items if item.default is _REQUIRED]
        out = {"type": "object", "required": required, "additionalProperties": False,
               "properties": {item.name: _schema(item) for item in row.items}}
    elif row.kind == "enum":
        out = {"enum": list(row.items)}
    elif row.kind == "matrix":
        numbers = {"type": "array", "minItems": 1, "items": {"type": "number"}}
        out = {"type": "array", "minItems": 1, "items": numbers}
    else:
        out = {"type": row.kind, **row.bounds}
    if row.default is not _REQUIRED:
        out["type"] = [out["type"], "null"]
    rules = [f"{name} {rule}" for name, rule, _ in _CROSS_RULES if name == row.name]
    out["description"] = "; ".join([row.description, *rules])
    return out


def config_schema() -> dict:
    """The JSON Schema (draft 2020-12) of a scenario file, built from the field table.

    JSON Schema cannot state the rules across fields, so each joins the
    description of its field. docs/config_schema.json holds this schema;
    the README gives the command that writes it.
    """
    return {"$schema": "https://json-schema.org/draft/2020-12/schema", **_schema(_CONFIG)}


def read_payload(path) -> dict:
    """Read a JSON scenario file into a raw mapping (validated by config_from_dict); a
    file that cannot be opened, is not UTF-8 or is not JSON that Python reads (an
    integer past 4300 digits is not) raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:  # JSON and Unicode decode errors are ValueErrors
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return payload


def load_config(path) -> ScenarioConfig:
    """Parse and resolve a JSON scenario file (see docs/config_schema.json)."""
    return config_from_dict(read_payload(path))


def trace_header(n: int, m: int) -> str:
    cols = ["k", "traj", "gamma", "alarm", "g"]
    cols += [f"x_{i}" for i in range(1, n + 1)]
    cols += [f"xhat_{i}" for i in range(1, n + 1)]
    cols += [f"xhata_{i}" for i in range(1, n + 1)]
    cols += [f"z_{i}" for i in range(1, m + 1)]
    cols += [f"eps_{i}" for i in range(1, m + 1)]
    cols += [f"epstilde_{i}" for i in range(1, m + 1)]
    return ",".join(cols)


def _row_format(n: int, m: int) -> str:
    """One trace row: k, traj, gamma, alarm as integers, then g and the vectors.

    '%.17g' renders a float exactly as format(value, '.17g') does, signed
    zeros, subnormals, infinities and nan included.
    """
    return ",".join(["%d"] * 4 + ["%.17g"] * (1 + 3 * n + 3 * m)) + "\n"


def _write_rows(path, n: int, m: int, rows) -> None:
    """The header, then one line per flat row (k, traj, gamma, alarm, g, *vector entries)."""
    line = _row_format(n, m)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(trace_header(n, m) + "\n")
        handle.writelines(line % row for row in rows)


def write_trace(records, path) -> None:
    """Write per-step records as CSV with 17-significant-digit floats.

    Each record is (k, traj, gamma, alarm, g, x, xhat, xhata, z, eps,
    epstilde) with the vectors as arrays; rows are written in the order
    given, so a fixed seed reproduces the file byte for byte.
    """
    records = iter(records)
    try:
        first = next(records)
    except StopIteration:
        raise NumericError("write_trace needs at least one record to size the header")
    rows = (
        (k, traj, gamma, alarm, g, *np.concatenate(vectors).tolist())
        for k, traj, gamma, alarm, g, *vectors in itertools.chain([first], records)
    )
    _write_rows(path, len(first[5]), len(first[8]), rows)


# Rows of one trajectory copied out of the records and turned into Python values at a
# time: a trace holds one chunk (about 0.2 MB at n = 3, m = 2) whatever the number of steps.
_TRACE_CHUNK = 256


def _record_rows(records: "_Records", survivors):
    """Flat trace rows of the surviving trajectories, in index order, from their records."""
    vectors = (records.x, records.xn, records.xa, records.z, records.eps, records.epst)
    for traj in survivors:
        for start in range(0, records.g.shape[1], _TRACE_CHUNK):
            chunk = slice(start, start + _TRACE_CHUNK)
            values = np.hstack([records.g[traj, chunk, None], *(v[traj, chunk] for v in vectors)])
            for k, gamma, alarm, vals in zip(
                range(start, chunk.stop),
                records.gamma[traj, chunk].tolist(),
                records.alarm[traj, chunk].tolist(),
                values.tolist(),
            ):
                yield (k, traj, gamma, alarm, *vals)


@dataclass
class _Records:
    """Per-step records of every trajectory, indexed [traj, k, ...].

    Indexing one trajectory gives C-contiguous (steps, ...) arrays, so a
    reduction over the step axis adds each trajectory's values in the same
    order as a reduction over that trajectory alone.
    """

    gamma: np.ndarray  # (T, steps) scheduler decisions
    alarm: np.ndarray  # (T, steps) detector decisions
    g: np.ndarray  # (T, steps) detector statistic
    x: np.ndarray  # (T, steps, n) plant state x_k
    xn: np.ndarray  # (T, steps, n) nominal-reference estimate
    xa: np.ndarray  # (T, steps, n) remote (possibly attacked) estimate
    z: np.ndarray  # (T, steps, m) sensor-side innovation
    zn: np.ndarray  # (T, steps, m) nominal innovation
    eps: np.ndarray  # (T, steps, m) whitened sensor-side innovation
    epst: np.ndarray  # (T, steps, m) whitened innovation the estimator received
    diverged: np.ndarray  # (T,) bool


def _noise(config: ScenarioConfig, traj: int) -> np.ndarray:
    """All of a trajectory's standard normal draws, in the order they are used.

    x_0 first, then the process noise w_k before the measurement noise v_k
    at each step. One draw from the (seed, traj) stream gives the same
    numbers as drawing each vector in turn.
    """
    n, m = config.model.n, config.model.m
    return RandomSource(config.seed, traj).normal(n + config.steps * (n + m))


_MEMO_NODES = 1 << 14  # distinct P+ one run's memo may hold
_MEMO_GRACE = 128  # steps the memo may compute beyond those it serves before it stops


class _CovarianceMemo:
    """Exact memo of one run's filter covariance path, shared by its trajectories.

    A node is one bit pattern of the posterior covariance P+ and owns the
    prior computed from it, the next step's (P, L, F, K); (node, gamma) ->
    node' is the P+ that step leaves. Each is a function of the P+ bits and
    gamma alone, the non-finite factors of an S that is not positive
    definite included, so a served step has the bits of a computed one. The
    F table holds f_storage(F), so a served F has factor_stack's layout.

    The memo stops for the rest of the run when the table would pass
    _MEMO_NODES, or when it has computed _MEMO_GRACE more steps than it
    served (paths that rarely repeat).
    """

    def __init__(self, n: int, m: int):
        self.index = {}  # P+ bytes -> node
        # np.empty reserves the tables; only the rows written take memory
        shapes = ((n, n), (m, m), (m, m), (n, m))
        self.tables = [np.empty((_MEMO_NODES, *shape)) for shape in shapes]
        self.next = np.empty((_MEMO_NODES, 2), dtype=int)  # (node, gamma) -> node', -1 while unseen
        self.live = True
        self.lag = 0  # steps computed minus steps served
        self.nodes = None  # node of each slice's P+, when all are known
        self.held = None  # nodes of the stacks in self.stacks
        self.stacks = None
        self.last = None  # (nodes, gamma) of the previous step, linked once its P+ is found

    def prior(self, P_post, compute):
        """(P, L, F, K) of every slice's next step, served or computed by compute(P_post).

        P_post is read only when some slice's next node is not known.
        """
        nodes = self.nodes
        if nodes is None and self.live:
            keys = [p.tobytes() for p in P_post]
            found = [self.index.get(key, -1) for key in keys]
            if -1 not in found:
                nodes = np.array(found)
        if nodes is None:
            self.stacks = compute(P_post)
            self.lag += 1
            self.live = self.live and self.lag <= _MEMO_GRACE
            if self.live:
                nodes = self._add(keys, self.stacks)
        else:
            self.lag -= 1
            if self.held is None or nodes.tobytes() != self.held.tobytes():
                P, L, F, K = (table.take(nodes, axis=0) for table in self.tables)
                self.stacks = P, L, f_storage(F), K
        if self.nodes is None and nodes is not None and self.last is not None:
            self.next[self.last] = nodes
        self.nodes = self.held = nodes
        return self.stacks

    def advance(self, gamma: np.ndarray) -> bool:
        """Whether every slice's next P+ is known from its node and gamma."""
        if self.nodes is None:
            self.last = None
            return False
        self.last = (self.nodes, gamma.view(np.int8))
        nxt = self.next[self.last]
        self.nodes = nxt if np.minimum.reduce(nxt) >= 0 else None
        return self.nodes is not None

    def _add(self, keys, stacks):
        """Every slice's node, new ones numbered in turn; None (and stop) if the table is full.

        All slices are written: a known node gets the bits it already holds.
        """
        if len(self.index) + len(keys) > _MEMO_NODES:
            self.live = False
            return None
        known = len(self.index)
        nodes = np.array([self.index.setdefault(key, len(self.index)) for key in keys])
        self.next[known:len(self.index)] = -1
        P, L, F, K = stacks
        for table, stack in zip(self.tables, (P, L, f_storage(F), K)):
            table[nodes] = stack
        return nodes


# Bytes per trajectory the attack pass may hold for one block of attacked steps;
# it sets the one block length of the scheduler loop's step-major buffers and of
# the pass, so both stay O(T x block). The loop's buffers, n + 2m doubles and a
# bool per step, come on top. Blocks much longer than this leave the cache at
# large T, and much shorter ones pay the pass's fixed calls and the block copies
# too often at small T.
_ATTACK_PASS_BYTES = 8 << 10


def _attack_block(n: int, m: int) -> int:
    """Steps per block of the scheduler loop and the attack pass: as many attacked
    steps as _ATTACK_PASS_BYTES holds in the pass.

    One attacked step of one trajectory holds about nm + 2m^2 + 6n + 4m
    doubles there: its K, L and F, the two estimates' priors, posteriors
    and second increments (x_a's is -0.0), and the temporaries.
    """
    return max(1, _ATTACK_PASS_BYTES // (8 * (n * m + 2 * m * m + 6 * n + 4 * m)))


class _AttackPass:
    """x_a, x_tilde, z and eps of the attacked steps, one block at a time (see the
    module docstring). Made at attack_start: x_a's first prior is A x_n, x_tilde's
    is 0. push() takes a step's K, L, F and K z_nominal from the scheduler loop,
    flush() computes the block from the loop's buffers of it. x_a and x_tilde are
    one (T, 2, n, 1) stack under both attacked modes; the mode decides only the
    sensor's z."""

    def __init__(self, config: ScenarioConfig, xn_post, ys, xas, zs, epss):
        model = config.model
        n, m, T = model.n, model.m, config.trajectories
        self.A, self.C = model.A, model.C
        self.mu, self.delta = config.attack_params.mu, config.attack_params.delta.reshape(m, 1)
        self.two_channel = config.attack_mode == "two_channel"
        self.ys = ys  # (steps, T, m, 1)
        self.xas, self.zs, self.epss = xas, zs, epss
        self.start = config.attack_start  # first step of the open block
        self.count = 0  # steps in the open block
        block = self.block = min(_attack_block(n, m), config.steps - self.start)
        # K, L and f_storage(F) of each step of the block
        self.K, self.L, self.F = (np.empty((block, T, *shape)) for shape in ((n, m), (m, m), (m, m)))
        # prior[j] and post[j] of step j; prior[block] is the next block's prior[0]
        self.prior = np.zeros((block + 1, T, 2, n, 1))
        self.prior[0, :, 0] = self.A @ xn_post
        self.post = np.empty((block, T, 2, n, 1))  # first the increments, then the posteriors
        self.inc = np.full((block, T, 2, n, 1), -0.0)  # x_tilde's second increment; x_a's is -0.0

    def push(self, K, L, F, z_nominal) -> np.ndarray:
        """Take one attacked step's factors and return K z_nominal."""
        j = self.count
        self.count += 1
        np.copyto(self.K[j], K)
        np.copyto(self.L[j], L)
        np.copyto(self.F[j], f_storage(F))
        return np.matmul(K, z_nominal, out=self.post[j, :, 1])  # x_tilde's first increment

    def flush(self, epst, gamma) -> None:
        """Compute the open block's steps from their received eps (b, T, m, 1) and
        gamma (b, T), and write their x_a, z and eps records."""
        b, k0 = self.count, self.start
        window = slice(k0, k0 + b)
        ys = self.ys[window]
        # (b, T, ...) views of the records: steps first, each slab's inner block contiguous
        xas, zs, epss = (a[:, window].swapaxes(0, 1) for a in (self.xas, self.zs, self.epss))
        K, L, F = self.K[:b], self.L[:b], f_storage(self.F[:b])
        silent = ~gamma[..., None, None]
        prior, post, incs = self.prior, self.post[:b], self.inc[:b]

        # np.where(gamma, x + u, x) == x + np.where(gamma, u, -0.0): x + (-0.0) is x, so x_a's
        # half of inc stays -0.0 and each step adds inc as one contiguous (T, 2, n, 1) slab
        post[:, :, 1] *= (gamma / self.mu - gamma)[..., None, None]
        np.matmul(K, L @ self.delta, out=incs[:, :, 1])
        np.copyto(incs[:, :, 1], -0.0, where=silent)
        np.matmul(K, L @ epst, out=post[:, :, 0])
        np.copyto(post[:, :, 0], -0.0, where=silent)
        for x_prior, x_post, x_next, inc in zip(prior, post, prior[1:], incs):
            np.add(x_prior, x_post, out=x_post)
            np.add(x_post, inc, out=x_post)
            np.matmul(self.A, x_post, out=x_next)

        np.copyto(xas, post[:, :, 0])
        C_prior = self.C @ prior[:b]
        seen = C_prior[:, :, 0]
        if self.two_channel:  # the feedback alpha = -C xtilde^- reaches the sensor
            seen = np.subtract(seen, C_prior[:, :, 1], out=zs)
        np.subtract(ys, seen, out=zs)
        np.matmul(F.swapaxes(-1, -2), zs, out=epss)
        prior[0] = prior[b]
        self.start += b
        self.count = 0


def _square_sums(a: np.ndarray) -> np.ndarray:
    """Each trajectory's sum of squares of a (T, ...) C-contiguous array."""
    flat = a.reshape(len(a), -1)
    return np.einsum("ij,ij->i", flat, flat)


@np.errstate(all="ignore")
def _simulate(config: ScenarioConfig) -> _Records:
    """Advance every trajectory of the scenario together; see the module docstring.

    Diverging slices carry nan and inf without warnings; no operation mixes
    slices, so the other trajectories are unaffected.
    """
    model = config.model
    A, C, Q, R = model.A, model.C, model.Q, model.R
    At, Ct = A.T, C.T
    n, m = model.n, model.m
    T, steps = config.trajectories, config.steps
    params = config.attack_params
    attacked = config.attack_mode != "off"
    beta, mu = config.beta, params.mu
    delta = params.delta.reshape(m, 1)
    kappa_beta = kappa(beta)

    # The plant does not see the estimator, so its whole path comes first.
    draws = np.stack([_noise(config, traj) for traj in range(T)])[..., None]
    noise = draws[:, n:].reshape(T, steps, n + m, 1)
    xs = np.empty((T, steps, n, 1))
    xs[:, 0] = model._xi0_factor @ draws[:, :n]
    # x_{k+1} = w_k + A x_k, with w_k written into x_{k+1} first and y = C x + v
    # added in place, so the plant's path holds one temporary of y's size at most.
    # The last step's process noise is drawn but moves no state the run records.
    np.matmul(model._q_factor, noise[:, :-1, :n], out=xs[:, 1:])
    for k in range(steps - 1):
        xs[:, k + 1] += A @ xs[:, k]
    ys = C @ xs
    ys += model._r_factor @ noise[:, :, n:]
    del draws, noise
    ys_energy = _square_sums(ys)  # trajectory-major, as the records' terms below
    ys = np.ascontiguousarray(ys.swapaxes(0, 1))  # (steps, T, m, 1): ys[k] is contiguous

    filt = initial_filter_state(model)
    P, L, F, K = (np.broadcast_to(a, (T, *a.shape)) for a in (filt.P_prior, filt.L, filt.F, filt.K))
    xn_post = np.zeros((T, n, 1))
    gammas = np.empty((T, steps), dtype=bool)
    xns = np.empty((T, steps, n, 1))
    zns, epsts = (np.empty((T, steps, m, 1)) for _ in range(2))
    if attacked:
        xas = np.empty((T, steps, n, 1))
        zs, epss = (np.empty((T, steps, m, 1)) for _ in range(2))
    else:  # the received data is the sensor's, and the remote estimate the nominal one
        xas, zs, epss = xns, zns, epsts
    # The loop writes each step into step-major buffers of one block, so every
    # per-step operand is contiguous, and copies each block into the records.
    block = min(_attack_block(n, m), steps)
    gamma_b, xn_b = np.empty((block, T), dtype=bool), np.empty((block, T, n, 1))
    zn_b, epst_b = np.empty((block, T, m, 1)), np.empty((block, T, m, 1))

    def prior(P_post):
        P = _sym(A @ P_post @ At + Q)
        PCt = P @ Ct
        L, F = factor_stack(_sym(C @ PCt + R))
        return P, L, F, (PCt @ F) @ F.swapaxes(-1, -2)

    # The scheduler loop: gamma, the covariance path and the nominal estimate x_n.
    # Before the attack x_n is the filter; after, the received eps is built from
    # z_nominal, so nothing the attack pass computes feeds back into this loop.
    memo = _CovarianceMemo(n, m) if attacked else None
    attack = None
    k0 = 0  # first step of the open block; blocks also end at attack_start
    for k in range(steps):
        if attacked and k == config.attack_start:
            attack = _AttackPass(config, xn_post, ys, xas, zs, epss)
        if k > 0:
            P, L, F, K = memo.prior(P_post, prior) if attack is not None else prior(P_post)
        j = k - k0
        gamma, xn, zn, epst = gamma_b[j], xn_b[j], zn_b[j], epst_b[j]
        xn_prior = np.matmul(A, xn_post, out=xn)
        z_nominal = np.subtract(ys[k], C @ xn_prior, out=zn)
        eps_received = np.matmul(F.swapaxes(-1, -2), z_nominal, out=epst)
        if attack is not None:
            eps_received /= mu
            eps_received += delta

        quiet = np.maximum.reduce(np.abs(eps_received), axis=(1, 2)) <= beta
        np.logical_not(quiet, out=gamma)
        if attack is None or not memo.advance(gamma):
            KCP = K @ (C @ P)
            P_post = _sym(P - np.multiply(kappa_beta, KCP, out=KCP, where=quiet[:, None, None]))
        if attack is None:
            gain = K @ (L @ eps_received)
        else:
            gain = attack.push(K, L, F, z_nominal)
        xn_post = np.add(xn, gain, out=xn, where=gamma[:, None, None])
        if j + 1 == block or k + 1 in (config.attack_start, steps):
            window, b = slice(k0, k + 1), j + 1
            for record, buffer in zip((gammas, xns, zns, epsts), (gamma_b, xn_b, zn_b, epst_b)):
                record[:, window] = buffer[:b].swapaxes(0, 1)
            if attack is not None:
                attack.flush(epst_b[:b], gamma_b[:b])
            k0 = k + 1

    if attacked:
        before = slice(0, config.attack_start)
        xas[:, before], zs[:, before], epss[:, before] = (
            xns[:, before], zns[:, before], epsts[:, before]
        )

    g = (epsts.swapaxes(-1, -2) @ epsts)[..., 0, 0]
    # The one divergence rule: 4T times the sum of squares of a trajectory's plant
    # states and its records, each array once, is not finite. A squared error,
    # product or sum that the summary forms over at most T trajectories stays below
    # that, so it is finite. The measurements' term was taken before the loop.
    kept = (xns, zns, epsts) + ((xas, zs, epss) if attacked else ())
    energy = sum([_square_sums(xs), ys_energy, *map(_square_sums, kept)])
    return _Records(
        gamma=gammas,
        alarm=g >= config.detector.sigma,
        g=g,
        x=xs[..., 0],
        xn=xns[..., 0],
        xa=xas[..., 0],
        z=zs[..., 0],
        zn=zns[..., 0],
        eps=epss[..., 0],
        epst=epsts[..., 0],
        diverged=~np.isfinite(4.0 * T * energy),
    )


# The analytic values of one scenario, computed once by theory(config).
Theory = namedtuple("Theory", "steady bias cov_trace open_trace trigger alarm")


def theory(config: ScenarioConfig) -> Theory:
    """config's Kalman steady state, steady bias (zeros when the attack is off),
    covariance and open-loop traces, and analytic trigger and alarm rates. The
    covariance is the attacked fixed point under an attack, and the event-based
    filter's (analysis.event_based_covariance) with the attack off. The bias and
    the traces exist only for a stable A: they are nan for an unstable one, and
    the bias a nan vector. Any other DivergenceError propagates: an undetectable
    pair's from riccati_fixed_point, or an iteration's that did not converge."""
    model, params = config.model, config.attack_params
    steady = riccati_fixed_point(model)
    try:
        analysis.check_stable(model, "steady bias")
    except DivergenceError:
        bias, cov_trace, open_trace = np.full(model.n, np.nan), math.nan, math.nan
    else:
        open_trace = float(np.trace(analysis.open_loop_fixed_point(model)))
        if params.is_off:
            bias = np.zeros(model.n)
            cov = analysis.event_based_covariance(config.beta, steady, model)
        else:
            bias = analysis.steady_bias(params, steady, model)
            cov = analysis.attacked_covariance_fixed_point(params, steady, model)
        cov_trace = float(np.trace(cov))
    return Theory(steady, bias, cov_trace, open_trace, trigger_probability(params, config.beta),
                  alarm_probability(params, config.detector.sigma, model.m))


def run_scenario(config: ScenarioConfig, trace_path=None) -> RunResult:
    """Simulate all trajectories and aggregate post-burn-in metrics.

    Deterministic for a fixed config and seed: each trajectory draws from its
    own (seed, index) substream, and the summary adds the survivors' window
    sums in index order. Writes the full per-step trace as CSV when trace_path
    is given. A trajectory that diverges numerically is recorded in
    RunResult.diverged and excluded from the sums and the trace (partial summary).
    """
    model = config.model
    known = theory(config)  # before the run, so that a domain error costs no simulation
    centre = 0.0 if np.isnan(known.bias).any() else known.bias

    records = _simulate(config)
    survivors = np.flatnonzero(~records.diverged)

    if trace_path is not None and survivors.size:
        _write_rows(trace_path, model.n, model.m, _record_rows(records, survivors))

    if not survivors.size:
        raise NumericError("all trajectories diverged; no summary available")

    # Each record is reduced over the steps of the post-burn-in window, on
    # views spanning every trajectory, and only then are the survivors' rows
    # of the small (T, k) sums kept. Python's sum adds those rows one after
    # another in index order; ndarray.sum over the trajectory axis would be
    # pairwise for scalars and for k == 1, which rounds differently.
    post = slice(config.burn_in, config.steps)
    count = config.steps - config.burn_in
    total = count * survivors.size
    xa, z, eps = records.xa[:, post], records.z[:, post], records.eps[:, post]
    with np.errstate(all="ignore"):  # diverged slices carry nan and inf
        err = xa - records.x[:, post]
        err -= centre  # in place: one window-sized temporary at a time
        err_sq = np.square(err, out=err).sum(axis=(1, 2))[survivors]
        del err
        sums = TrajectorySums(
            count=count,
            gamma=records.gamma[:, post].sum(axis=1)[survivors],
            alarm=records.alarm[:, post].sum(axis=1)[survivors],
            err_sq=err_sq,
            bias=(xa - records.xn[:, post]).sum(axis=1)[survivors],
            z=z.sum(axis=1)[survivors],
            zz=(z.swapaxes(1, 2) @ z)[survivors],
            eps=eps.sum(axis=1)[survivors],
            eps_sq=(eps * eps).sum(axis=1)[survivors],
            eps_lag=(eps[:, 1:] * eps[:, :-1]).sum(axis=1)[survivors],
            g=records.g[:, post].sum(axis=1)[survivors],
        )
        cancellation_max = 0.0
        if config.attack_mode == "two_channel":
            win = slice(config.attack_start, config.steps)
            zn_win = records.zn[:, win]
            gap = np.abs(records.z[:, win] - zn_win)
            gap /= 1.0 + np.abs(zn_win)
            cancellation_max = float(gap.max(axis=(1, 2))[survivors].max())

    gamma_count = int(sums.gamma.sum())
    alarm_count = int(sums.alarm.sum())
    summary = SimulationSummary(
        comm_rate=gamma_count / total,
        alarm_rate=alarm_count / total,
        emp_bias=sum(sums.bias) / total,
        emp_cov_trace=sum(sums.err_sq.tolist()) / total,
        theory_bias=known.bias,
        theory_cov_trace=known.cov_trace,
        analytic_trigger=known.trigger,
        analytic_alarm=known.alarm,
        step_count=count,
        trajectory_count=survivors.size,
    )
    return RunResult(
        summary=summary,
        sums=sums,
        traj_bias_means=sums.bias / count,
        cancellation_max=cancellation_max,
        gamma_count=gamma_count,
        alarm_count=alarm_count,
        diverged=np.flatnonzero(records.diverged).tolist(),
    )


PAPER_A = [
    [0.5944, -0.1203, -0.4302],
    [0.0017, 0.7902, -0.0747],
    [0.0213, 0.8187, 0.1436],
]
PAPER_C = [
    [0.1365, 0.8939, 0.2987],
    [0.0118, 0.1991, 0.6614],
]


def paper_scenario(**overrides) -> dict:
    """The published experiment: beta 1.4, Upsilon 1%, 3-dof threshold 11.34.

    The attack target 99.87% is the rounded display of Phi(3) = 0.99865,
    which is the value consistent with the stated confidence level 3 and
    the solved pair (2.7705, 2.4828). The measurement channel is
    2-dimensional, so R is 0.1 I_2 while the detector threshold keeps the
    published 3-dof design.
    """
    payload = {
        "model": {
            "A": PAPER_A,
            "C": PAPER_C,
            "Q": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]],
            "R": [[0.1, 0.0], [0.0, 0.1]],
            "Xi0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
        "beta": 1.4,
        "upsilon": 0.01,
        "M": 0.99865,
        "sigma": 11.34,
        "solver_dof": 3,
        "steps": 4200,
        "trajectories": 50,
        "burn_in": 200,
        "attack_start": 100,
        "seed": 20260810,
        "attack_mode": "two_channel",
    }
    payload.update(overrides)
    return payload
