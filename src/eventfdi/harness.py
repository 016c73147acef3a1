"""Scenario configuration, closed-loop Monte Carlo runs, traces and summaries.

One simulated step wires the blocks together in channel order: plant
measurement, estimator time update, sensor innovation against the (possibly
attacked) feedback, whitening, forward attack, scheduler decision on the
received data, detector statistic on the received data, measurement update,
attack-effect bookkeeping. Trajectories are independent (seed, trajectory)
substreams, and the summary is reduced from the stacked records in
trajectory-index order, so runs are deterministic.

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
stream and the plant path is computed before the filter loop. The scalar
functions in estimator, model, attack and detector stay the specification:
each trajectory's records equal, bit for bit, what a loop over those
functions produces (tests/_oracles.py keeps that loop as the reference).
That holds because every product is a stacked np.matmul, which runs the
same kernel per slice as the 2-D product, and everything else is an
elementwise ufunc or np.where; einsum, `X @ A.T` rewrites and `sum`
contractions change the rounding and are not used. S is factorized in
closed form elementwise for m <= 2 and by a stacked Cholesky for m >= 3;
for every m, a slice that is not positive definite gets non-finite factors.

Covariance memo: under an attack the scheduler fires on almost every step,
so the covariance recursion is nearly the Riccati map and keeps reaching
P+ bits it reached before. On attacked steps (k >= attack_start) the run's
_CovarianceMemo serves the prior (P, L, F, K) and the next P+ when it has
seen every slice's (P+, gamma) before, and computes the step as above
otherwise. It is exact: those values, non-finite factors included, are
functions of the P+ bits and gamma alone, and F is served in the layout
factor_stack gives it (np.matmul picks its kernel by strides). The
attack-off path and the steps before the attack run no memo code.

A trajectory diverges when its plant path or its estimates go non-finite,
as the factors of an S that is not positive definite make them. It is
masked, not raised: its slice carries nan without warnings, no operation
mixes slices, and it is left out of the aggregates and the trace.

Memory: the measurements and every per-step record of every trajectory
are kept until the run ends, T * steps * (3n + 5m + 1) doubles; the
noise block is freed before the filter loop, and the summary's reductions
hold one or two window-sized temporaries at a time: about 37 MB for the
paper's 50 x 4200 run. The memo holds at most _MEMO_NODES nodes of
n^2 + 2m^2 + nm doubles each, plus an n^2-double key: the paper's
attacked runs make about 450 nodes at 10 x 700, 2,200 at 50 x 4200 and
7,400 at 200 x 700. Measured peaks are in CHANGES.md and BENCH_*.json.
"""

import itertools
import json
import math
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
from .estimator import _sym, factor_stack, initial_filter_state, riccati_fixed_point
from .model import RandomSource, SystemModel
from .special import kappa

ATTACK_MODES = ("off", "forward_only", "two_channel")

_CONFIG_KEYS = {
    "model",
    "beta",
    "upsilon",
    "M",
    "sigma",
    "solver_dof",
    "steps",
    "trajectories",
    "burn_in",
    "attack_start",
    "seed",
    "attack_mode",
    "attack_params",
}

_MODEL_KEYS = {"A", "C", "Q", "R", "Xi0"}


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
    theory_* values come from the bias law and the attacked-covariance
    fixed point at the scenario's attack parameters.
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
        return {
            "comm_rate": self.comm_rate,
            "alarm_rate": self.alarm_rate,
            "emp_bias": [float(v) for v in self.emp_bias],
            "emp_cov_trace": self.emp_cov_trace,
            "theory_bias": [float(v) for v in self.theory_bias],
            "theory_cov_trace": self.theory_cov_trace,
            "analytic_trigger": self.analytic_trigger,
            "analytic_alarm": self.analytic_alarm,
            "step_count": self.step_count,
            "trajectory_count": self.trajectory_count,
        }


@dataclass
class RunResult:
    """Summary plus per-run diagnostics used by tests and the analysis gate."""

    summary: SimulationSummary
    traj_bias_means: np.ndarray  # (trajectories, n) post-burn-in means of xhat_a - xhat
    sensor_innovation_mean: np.ndarray  # (m,) mean of the sensor-side innovation
    sensor_innovation_cov: np.ndarray  # (m, m) ... and its covariance about that mean
    eps_mean: np.ndarray  # (m,) sensor-side whitened innovation mean
    eps_var: np.ndarray  # (m,) ... and variance
    eps_lag1: np.ndarray  # (m,) lag-1 autocorrelation of the whitened innovation
    g_mean: float  # detector statistic mean
    cancellation_max: float  # max_i |z_sensor - z_nominal|_i / (1 + |z_nominal_i|)
    gamma_count: int
    alarm_count: int
    diverged: list = field(default_factory=list)


def _require(payload: dict, key: str):
    if key not in payload:
        raise ConfigError(f"missing required config field '{key}'", field=key)
    return payload[key]


_INT_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def _int_field(payload: dict, key: str, minimum: int | None, default=None) -> int:
    """An integer field at least `minimum`; required unless a default is given."""
    value = _require(payload, key) if default is None else payload.get(key, default)
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise ConfigError(f"'{key}' must be {_INT_KINDS[minimum]}, got {value!r}", field=key)
    return value


def _number(value, key: str, field: str | None = None) -> float:
    """A JSON number (a bool is not one) as a float; ConfigError on `field` (default key)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number, got {value!r}", field=field or key)
    return float(value)


def config_from_dict(payload: dict) -> ScenarioConfig:
    """Validate and resolve a raw configuration mapping into a ScenarioConfig."""
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}", field=sorted(unknown)[0])

    raw_model = _require(payload, "model")
    if not isinstance(raw_model, dict) or set(raw_model) != _MODEL_KEYS:
        raise ConfigError(
            f"'model' must be a mapping with keys {sorted(_MODEL_KEYS)}", field="model"
        )
    try:
        model = SystemModel(**{k: raw_model[k] for k in _MODEL_KEYS})
    except (ModelError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}", field="model") from exc

    beta = _number(_require(payload, "beta"), "beta")
    upsilon = _number(_require(payload, "upsilon"), "upsilon")
    if not (0.0 < upsilon < 1.0):
        raise ConfigError(f"'upsilon' must be in (0, 1), got {upsilon!r}", field="upsilon")
    target = _number(_require(payload, "M"), "M")
    if not (0.0 < target < 1.0):
        raise ConfigError(f"'M' must be in (0, 1), got {target!r}", field="M")

    steps = _int_field(payload, "steps", 1)
    trajectories = _int_field(payload, "trajectories", 1)
    burn_in = _int_field(payload, "burn_in", 0)
    if burn_in >= steps:
        raise ConfigError(
            f"'burn_in' must be smaller than 'steps' ({burn_in} >= {steps})", field="burn_in"
        )
    attack_start = _int_field(payload, "attack_start", 0, default=burn_in // 2)
    if attack_start > burn_in:
        raise ConfigError(
            f"'attack_start' must not exceed 'burn_in' ({attack_start} > {burn_in}); "
            "the metrics window assumes a settled attack",
            field="attack_start",
        )
    seed = _int_field(payload, "seed", None)

    attack_mode = _require(payload, "attack_mode")
    if attack_mode not in ATTACK_MODES:
        raise ConfigError(
            f"'attack_mode' must be one of {ATTACK_MODES}, got {attack_mode!r}",
            field="attack_mode",
        )

    solver_dof = _int_field(payload, "solver_dof", 1, default=model.m)

    if payload.get("sigma") is None:
        detector = design_threshold(upsilon, solver_dof, beta=beta)
    else:
        sigma = _number(payload["sigma"], "sigma")
        check_thresholds(beta, sigma)
        detector = DetectorConfig(sigma=sigma, upsilon=upsilon, dof=solver_dof)

    criteria = SuccessCriteria(M=target, Upsilon=upsilon)

    raw_attack = payload.get("attack_params")
    if attack_mode == "off":
        attack_params = AttackParams.off(model.m)
    elif raw_attack is not None:
        if not isinstance(raw_attack, dict) or set(raw_attack) != {"mu", "delta_bar"}:
            raise ConfigError(
                "'attack_params' must be a mapping with keys ['delta_bar', 'mu']",
                field="attack_params",
            )
        mu = _number(raw_attack["mu"], "attack_params.mu", "attack_params")
        delta_bar = _number(raw_attack["delta_bar"], "attack_params.delta_bar", "attack_params")
        try:
            attack_params = AttackParams.scalar_bias(mu, delta_bar, model.m)
        except DomainError as exc:
            raise ConfigError(f"invalid attack_params: {exc}", field="attack_params") from exc
    else:
        attack_params = solve_optimal_params(beta, detector.sigma, criteria, solver_dof, m=model.m)

    return ScenarioConfig(
        model=model,
        beta=beta,
        steps=steps,
        trajectories=trajectories,
        burn_in=burn_in,
        attack_start=attack_start,
        seed=seed,
        attack_mode=attack_mode,
        attack_params=attack_params,
        detector=detector,
        criteria=criteria,
    )


def read_payload(path) -> dict:
    """Read a JSON scenario file into a raw mapping (validated by config_from_dict)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
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


_TRACE_CHUNK = 2048  # rows turned into Python values at a time, bounding the trace's memory


def _record_rows(records: "_Records", survivors):
    """Flat trace rows of the surviving trajectories, in index order, from their records."""
    for traj in survivors:
        values = np.hstack([
            records.g[traj][:, None], records.x[traj], records.xn[traj], records.xa[traj],
            records.z[traj], records.eps[traj], records.epst[traj],
        ])
        for start in range(0, len(values), _TRACE_CHUNK):
            stop = start + _TRACE_CHUNK
            for k, gamma, alarm, vals in zip(
                range(start, stop),
                records.gamma[traj, start:stop].tolist(),
                records.alarm[traj, start:stop].tolist(),
                values[start:stop].tolist(),
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
    definite included, so a served step has the bits of a computed one. F
    keeps the layout factor_stack gives it, since np.matmul picks its
    kernel by strides: for m >= 3 that is a transposed view, so the table
    holds F^T.

    The memo stops for the rest of the run when the table would pass
    _MEMO_NODES, or when it has computed _MEMO_GRACE more steps than it
    served (paths that rarely repeat).
    """

    def __init__(self, n: int, m: int):
        self.f_view = m >= 3
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
                P, L, F, K = (table[nodes] for table in self.tables)
                self.stacks = P, L, F.swapaxes(-1, -2) if self.f_view else F, K
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
        self.nodes = nxt if nxt.min() >= 0 else None
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
        for table, stack in zip(self.tables, (P, L, F.swapaxes(-1, -2) if self.f_view else F, K)):
            table[nodes] = stack
        return nodes


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
    two_channel = config.attack_mode == "two_channel"
    beta, mu = config.beta, params.mu
    delta = params.delta.reshape(m, 1)
    kappa_beta = kappa(beta)

    # The plant does not see the estimator, so its whole path comes first.
    draws = np.stack([_noise(config, traj) for traj in range(T)])[..., None]
    noise = draws[:, n:].reshape(T, steps, n + m, 1)
    w = model._q_factor @ noise[:, :, :n]
    xs = np.empty((T, steps + 1, n, 1))
    xs[:, 0] = model._xi0_factor @ draws[:, :n]
    for k in range(steps):
        xs[:, k + 1] = A @ xs[:, k] + w[:, k]
    ys = C @ xs[:, :steps] + model._r_factor @ noise[:, :, n:]
    del draws, noise, w

    filt = initial_filter_state(model)
    P, L, F, K = (np.broadcast_to(a, (T, *a.shape)) for a in (filt.P_prior, filt.L, filt.F, filt.K))
    x_prior = np.zeros((T, n, 1))
    x_post = xn_post = xt_post = x_prior
    gammas = np.empty((T, steps), dtype=bool)
    xns, xas = np.empty((T, steps, n, 1)), np.empty((T, steps, n, 1))
    zs, zns, epss, epsts = (np.empty((T, steps, m, 1)) for _ in range(4))

    def prior(P_post):
        P = _sym(A @ P_post @ At + Q)
        PCt = P @ Ct
        L, F = factor_stack(_sym(C @ PCt + R))
        return P, L, F, (PCt @ F) @ F.swapaxes(-1, -2)

    memo = _CovarianceMemo(n, m) if attacked else None
    for k in range(steps):
        active = attacked and k >= config.attack_start
        if k > 0:
            x_prior = A @ x_post
            P, L, F, K = memo.prior(P_post, prior) if active else prior(P_post)
        Ft = F.swapaxes(-1, -2)
        y = ys[:, k]
        # before the attack the nominal estimator is the filter, so A xn = x^-
        xn_prior = x_prior if k > 0 and xn_post is x_post else A @ xn_post
        z_nominal = y - C @ xn_prior

        if active:
            xt_prior = A @ xt_post
            if two_channel:
                feedback = C @ x_prior - C @ xt_prior  # alpha = -C xtilde^-
            else:
                feedback = C @ x_prior
            z_sensor = y - feedback
            eps_sensor = Ft @ z_sensor
            eps_received = (Ft @ z_nominal) / mu + delta
        else:
            z_sensor = z_nominal
            eps_sensor = eps_received = Ft @ z_sensor

        gamma = ~(np.abs(eps_received).max(axis=(1, 2)) <= beta)
        fired = gamma[:, None, None]
        if not (active and memo.advance(gamma)):
            P_post = _sym(P - np.where(fired, 1.0, kappa_beta) * (K @ (C @ P)))
        x_post = np.where(fired, x_prior + K @ (L @ eps_received), x_prior)
        if active:
            Kz = K @ z_nominal
            xn_post = np.where(fired, xn_prior + Kz, xn_prior)
            xt_post = xt_prior + (gamma / mu - gamma)[:, None, None] * Kz
            xt_post = np.where(fired, xt_post + K @ (L @ delta), xt_post)
        else:
            xn_post = x_post  # no attack yet: the filter is the nominal estimator

        gammas[:, k] = gamma
        xns[:, k] = xn_post
        xas[:, k] = x_post
        zs[:, k] = z_sensor
        zns[:, k] = z_nominal
        epss[:, k] = eps_sensor
        epsts[:, k] = eps_received

    g = (epsts.swapaxes(-1, -2) @ epsts)[..., 0, 0]
    xa = xas[..., 0]
    plant_finite = np.isfinite(xs[:, 1:]).all(axis=(1, 2, 3)) & np.isfinite(ys).all(axis=(1, 2, 3))
    estimate_finite = [
        math.isfinite(float(xa[traj].sum()) + float(g[traj].sum())) for traj in range(T)
    ]
    return _Records(
        gamma=gammas,
        alarm=g >= config.detector.sigma,
        g=g,
        x=xs[:, :steps, :, 0],
        xn=xns[..., 0],
        xa=xa,
        z=zs[..., 0],
        zn=zns[..., 0],
        eps=epss[..., 0],
        epst=epsts[..., 0],
        diverged=~plant_finite | ~np.array(estimate_finite),
    )


def run_scenario(config: ScenarioConfig, trace_path=None) -> RunResult:
    """Simulate all trajectories and aggregate post-burn-in metrics.

    Deterministic for a fixed config and seed: each trajectory draws from
    its own (seed, index) substream and aggregation runs in index order.
    Writes the full per-step trace as CSV when trace_path is given. A
    trajectory that diverges numerically is recorded in RunResult.diverged
    and excluded from the aggregates and the trace (partial summary).
    """
    model = config.model
    steady = riccati_fixed_point(model)
    params = config.attack_params

    # theory references degrade to nan when A is unstable (bias and the
    # covariance fixed points only exist for stable dynamics)
    try:
        if config.attack_mode == "off" or params.is_off:
            theory_bias = np.zeros(model.n)
        else:
            theory_bias = analysis.steady_bias(params, steady, model).value
        theory_cov_trace = float(
            np.trace(analysis.attacked_covariance_fixed_point(params, steady, model))
        )
    except (DomainError, DivergenceError):
        theory_bias = np.full(model.n, np.nan)
        theory_cov_trace = float("nan")

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
        err -= theory_bias  # in place: one window-sized temporary at a time
        err_sq = np.square(err, out=err).sum(axis=(1, 2))[survivors]
        del err
        bias_sums = (xa - records.xn[:, post]).sum(axis=1)[survivors]
        z_sum = z.sum(axis=1)[survivors]
        z_outer = (z.swapaxes(1, 2) @ z)[survivors]
        eps_sum = eps.sum(axis=1)[survivors]
        eps_sq = (eps * eps).sum(axis=1)[survivors]
        eps_lag = (eps[:, 1:] * eps[:, :-1]).sum(axis=1)[survivors]
        g_sum = records.g[:, post].sum(axis=1)[survivors]
        cancellation_max = 0.0
        if config.attack_mode == "two_channel":
            win = slice(config.attack_start, config.steps)
            zn_win = records.zn[:, win]
            gap = np.abs(records.z[:, win] - zn_win)
            gap /= 1.0 + np.abs(zn_win)
            cancellation_max = float(gap.max(axis=(1, 2))[survivors].max())

    gamma_count = int(records.gamma[survivors, post].sum())
    alarm_count = int(records.alarm[survivors, post].sum())
    z_mean = sum(z_sum) / total
    z_cov = sum(z_outer) / total - np.outer(z_mean, z_mean)
    eps_mean = sum(eps_sum) / total
    eps_var = sum(eps_sq) / total - eps_mean**2
    lag_total = total - survivors.size  # one fewer lagged pair per trajectory
    if lag_total > 0 and np.all(eps_var > 0):
        eps_lag1 = (sum(eps_lag) / lag_total - eps_mean**2) / eps_var
    else:
        eps_lag1 = np.full(model.m, np.nan)

    summary = SimulationSummary(
        comm_rate=gamma_count / total,
        alarm_rate=alarm_count / total,
        emp_bias=sum(bias_sums) / total,
        emp_cov_trace=sum(err_sq.tolist()) / total,
        theory_bias=theory_bias,
        theory_cov_trace=theory_cov_trace,
        analytic_trigger=trigger_probability(params, config.beta, model.m),
        analytic_alarm=alarm_probability(params, config.detector.sigma, model.m),
        step_count=count,
        trajectory_count=survivors.size,
    )
    return RunResult(
        summary=summary,
        traj_bias_means=bias_sums / count,
        sensor_innovation_mean=z_mean,
        sensor_innovation_cov=z_cov,
        eps_mean=eps_mean,
        eps_var=eps_var,
        eps_lag1=eps_lag1,
        g_mean=sum(g_sum.tolist()) / total,
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
