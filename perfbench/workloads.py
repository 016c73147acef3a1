"""Seeded workload inputs, the untraced timed loops and their output checks.

Every input is derived from the benchmark seed; the library only ever sees
the generated scenario payloads and system models. Each loop cycles over a
fixed set of distinct inputs until the requested wall time has passed (and
it has run every input at least once), times every unit on its own against
the machine-speed reference (see `speed.py`), and checks the outputs of the
distinct inputs outside the timed region. `attempted` and `failed` count
those distinct operations and checks, so they depend on the seed only, not
on how many units the time allowed.

Checks come in two kinds. Exact checks (the feedback cancellation gap, the
trace row count and bytes, the solver against scipy's noncentral
chi-square) cannot fail by chance, so a failure means a wrong output: it
counts as a failed operation and marks the run incorrect. Statistical
checks (3-SE bands and the alarm cap) fail by chance on a share of seeds;
they are reported with the other checks but are not failed operations.
"""

import contextlib
import hashlib
import math
import os
import resource
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import eventfdi as ef
import speed

PAPER_BETA = 1.4
PAPER_UPSILON = 0.01
PAPER_M = 0.99865  # Phi(3)
MC_STEPS = 700  # horizon of the conftest bias run (200 x 700)
MC_BURN_IN = 200
MC_ATTACK_START = 100
DOF_MAX = 24
SOLVER_RESIDUAL = 1e-9  # solve_optimal_params' own residual contract
ALARM_CAP = 0.012


@dataclass(frozen=True)
class Sizes:
    """Work per unit; the self-test shrinks every field."""

    mc_width: int = 10  # trajectories per run_scenario call
    mc_batches: int = 20  # distinct calls, cycled at least twice; the checks pool their 200 trajectories
    deep_steps: int = 10_000  # one trajectory written as a trace per call
    grid_points: int = 240  # every solver_dof 1..24 ten times
    grid_chunk: int = 8  # points timed between two reference timings
    setup_repeats: int = 5
    trace_batches: int = 4  # distinct calls of the traced mc_wide_attacked run, cycled
    probe_steps: int = 1000  # fidelity probe, per trajectory


SMALL = Sizes(
    mc_width=4, mc_batches=1, deep_steps=1500, grid_points=48, setup_repeats=1, trace_batches=1,
    probe_steps=300,
)


def derived_seed(seed: int, *tags: int) -> int:
    """A 63-bit scenario seed, a pure function of the benchmark seed and the tags."""
    state = np.random.SeedSequence([seed & (2**63 - 1), *tags]).generate_state(2, np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class Checks:
    """Named check outcomes; exact failures make the run incorrect."""

    results: list = field(default_factory=list)  # (name, ok, exact, detail)

    def add(self, name: str, ok: bool, exact: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), exact, detail))

    @property
    def failed(self) -> int:
        """Failed exact checks; a statistical check is reported, not counted."""
        return sum(not ok for _, ok, exact, _ in self.results if exact)

    @property
    def exact_count(self) -> int:
        return sum(exact for _, _, exact, _ in self.results)

    @property
    def exact_ok(self) -> bool:
        return all(ok for _, ok, exact, _ in self.results if exact)

    def as_dict(self) -> dict:
        return {
            name: {"ok": ok, "exact": exact, "detail": detail}
            for name, ok, exact, detail in self.results
        }


@dataclass
class Outcome:
    """What a workload loop measured: its throughput, op times, the work done and its checks."""

    ops_per_s: float  # trajectory-steps or grid points per scaled second
    op_seconds: list  # scaled time of each operation (run_scenario call or grid point)
    peak_rss_mb: float  # read right after the timed loop, before any check runs
    attempted: int
    failed: int
    checks: Checks
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------- payloads


def mc_payload(seed: int, batch: int, sizes: Sizes) -> dict:
    return ef.paper_scenario(
        steps=MC_STEPS,
        trajectories=sizes.mc_width,
        burn_in=MC_BURN_IN,
        attack_start=MC_ATTACK_START,
        seed=derived_seed(seed, 1, batch),
        attack_mode="two_channel",
    )


def deep_payload(seed: int, sizes: Sizes) -> dict:
    return ef.paper_scenario(
        steps=sizes.deep_steps,
        trajectories=1,
        burn_in=MC_BURN_IN,
        seed=derived_seed(seed, 2),
        attack_mode="off",
    )


def probe_payload(seed: int, mode: str, sizes: Sizes) -> dict:
    """Small paper-scenario run used by the fidelity probe and the set-up of the grid."""
    return ef.paper_scenario(
        steps=sizes.probe_steps,
        trajectories=2,
        burn_in=min(MC_BURN_IN, sizes.probe_steps // 3),
        attack_start=min(MC_ATTACK_START, sizes.probe_steps // 6),
        seed=derived_seed(seed, 3),
        attack_mode=mode,
    )


def setup_payload(workload: str, seed: int, sizes: Sizes) -> dict:
    """The config a user of the workload resolves before the first run."""
    if workload == "mc_wide_attacked":
        return mc_payload(seed, 0, sizes)
    if workload == "trace_deep_nominal":
        return deep_payload(seed, sizes)
    # the grid designs sigma and solves the attack, at the paper's solver_dof 3,
    # which every seed resolves (the seed's solver raises at some large odd dofs)
    payload = probe_payload(seed, "two_channel", sizes)
    payload.pop("sigma")
    return payload


# ---------------------------------------------------------------- analysis grid


@dataclass(frozen=True)
class GridPoint:
    model: ef.SystemModel
    dof: int


def make_grid(seed: int, count: int) -> list:
    """Stable random systems with balanced n, m, solver_dof and spectral radius.

    The marginals are balanced (every dof 1..24, n 1..6 and m 1..4 equally
    often, the spectral radius Latin-hypercube sampled on [0.30, 0.95]) so
    that grids from different seeds cost the same to within a few percent;
    only the pairing and the matrices are random.
    """
    rng = np.random.default_rng([seed & (2**63 - 1), 5])
    dofs = rng.permutation(np.resize(np.arange(1, DOF_MAX + 1), count))
    ns = rng.permutation(np.resize(np.arange(1, 7), count))
    ms = rng.permutation(np.resize(np.arange(1, 5), count))
    rhos = 0.30 + 0.65 * (rng.permutation(count) + rng.uniform(size=count)) / count
    points = []
    for dof, n, m, rho in zip(dofs, ns, ms, rhos):
        n, m = int(n), int(m)
        A = rng.standard_normal((n, n))
        A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
        C = rng.standard_normal((m, n))
        G = rng.standard_normal((n, n))
        H = rng.standard_normal((m, m))
        model = ef.SystemModel(
            A=A,
            C=C,
            Q=0.01 * (G @ G.T / n + 0.1 * np.eye(n)),
            R=0.1 * (H @ H.T / m + 0.5 * np.eye(m)),
            Xi0=np.eye(n),
        )
        points.append(GridPoint(model=model, dof=int(dof)))
    return points


GRID_CALLS = (
    "detector.design_threshold",
    "attack.solve_optimal_params",
    "attack.feasible_delta_interval",
    "estimator.riccati_fixed_point",
    "analysis.steady_bias",
    "analysis.attacked_covariance_fixed_point",
    "analysis.open_loop_fixed_point",
    "analysis.mu_sweep",
)


def input_cost(scaled_repeats) -> float:
    """The cost of one distinct input: the lower median of its scaled repeats.

    With two repeats that is the faster one, so a stall the reference did
    not see (see speed.py) in one of them does not count.
    """
    return statistics.median_low(scaled_repeats)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(name: str):
    """The span factory of an untraced run."""
    return contextlib.nullcontext()


def grid_chain(point: GridPoint, span=untraced):
    """The analysis chain of one grid point; returns the solved (sigma, params).

    `span(name)` wraps each public call. Raises the library's own error when
    a call fails.
    """
    model, dof = point.model, point.dof
    criteria = ef.SuccessCriteria(M=PAPER_M, Upsilon=PAPER_UPSILON)
    with span("detector.design_threshold"):
        detector = ef.design_threshold(PAPER_UPSILON, dof, beta=PAPER_BETA)
    with span("attack.solve_optimal_params"):
        params = ef.solve_optimal_params(PAPER_BETA, detector.sigma, criteria, dof, m=model.m)
    with span("attack.feasible_delta_interval"):
        ef.feasible_delta_interval(1.5 * params.mu, PAPER_BETA, detector.sigma, criteria, dof)
    with span("estimator.riccati_fixed_point"):
        steady = ef.riccati_fixed_point(model)
    with span("analysis.steady_bias"):
        ef.steady_bias(params, steady, model)
    with span("analysis.attacked_covariance_fixed_point"):
        ef.attacked_covariance_fixed_point(params, steady, model)
    with span("analysis.open_loop_fixed_point"):
        ef.open_loop_fixed_point(model)
    with span("analysis.mu_sweep"):
        ef.mu_sweep([1.0, params.mu, 10.0 * params.mu, 1e4], steady, model)
    return detector.sigma, params


def oracle_gap(sigma: float, params, dof: int) -> float:
    """|Pr(detector alarms at (mu*, delta*)) - Upsilon| by scipy's ncx2, not the library's Marcum Q."""
    from scipy import stats

    mu = params.mu
    alarm = stats.ncx2.sf(mu * mu * sigma, dof, (mu * params.delta_bar) ** 2)
    return abs(float(alarm) - PAPER_UPSILON)


def grid_pass(points, span=untraced):
    """One timed pass; returns (pass seconds, per-point seconds, solved, raised).

    The per-point seconds follow the order of points, raised points included.
    solved maps the index of every point whose chain completed to its
    (sigma, params); raised maps every other index to the error text.
    """
    clock = time.perf_counter
    point_seconds = []
    solved = {}
    raised = {}
    start = clock()
    for index, point in enumerate(points):
        t0 = clock()
        try:
            solved[index] = grid_chain(point, span)
        except ef.ToolkitError as exc:
            raised[index] = f"{type(exc).__name__}: {exc}"
        point_seconds.append(clock() - t0)
    return clock() - start, point_seconds, solved, raised


def check_grid(points, solved, raised, checks: Checks) -> int:
    """Oracle-check every solved point; returns the number of failing points."""
    mismatched = []
    for index, (sigma, params) in solved.items():
        gap = oracle_gap(sigma, params, points[index].dof)
        if not gap <= SOLVER_RESIDUAL:
            mismatched.append((points[index].dof, gap))
    checks.add(
        "grid.oracle_ncx2",
        not mismatched,
        exact=True,
        detail=f"{len(mismatched)} of {len(solved)} solved points off by more than "
        f"{SOLVER_RESIDUAL:g}; dofs {sorted({d for d, _ in mismatched})}",
    )
    raised_dofs = sorted({points[i].dof for i in raised})
    checks.add(
        "grid.no_raised_solves",
        not raised,
        exact=False,
        detail=f"{len(raised)} of {len(points)} points raised; dofs {raised_dofs}; "
        + "; ".join(sorted(set(raised.values())))[:300],
    )
    return len(mismatched) + len(raised)


def run_grid(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    points = make_grid(seed, sizes.grid_points)
    firsts = range(0, len(points), sizes.grid_chunk)
    timer = speed.ScaledTimer()
    raw_passes = []  # per pass, the raw seconds of every point
    solved, raised = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # boundary-solution notices
        start = time.perf_counter()
        while not raw_passes or time.perf_counter() - start < seconds:
            times = []
            for first in firsts:
                chunk = points[first:first + sizes.grid_chunk]
                _, chunk_times, chunk_solved, chunk_raised = timer.time(lambda: grid_pass(chunk))
                times.extend(chunk_times)
                solved.update({first + i: out for i, out in chunk_solved.items()})
                raised.update({first + i: err for i, err in chunk_raised.items()})
            raw_passes.append(times)
    peak = peak_rss_mb()
    factors = iter(timer.factors())
    scaled_passes = []
    for times in raw_passes:
        chunk_factors = [next(factors) for _ in firsts]
        scaled_passes.append([t * chunk_factors[i // sizes.grid_chunk] for i, t in enumerate(times)])
    costs = [input_cost(times) for times in zip(*scaled_passes)]
    checks = Checks()
    failing = check_grid(points, solved, raised, checks)
    return Outcome(
        ops_per_s=len(points) / sum(costs),
        op_seconds=[costs[index] for index in solved],
        peak_rss_mb=peak,
        attempted=len(points),
        failed=failing,
        checks=checks,
        info={
            "passes": len(raw_passes), "points": len(points), "failing_points": failing,
            "raw_points_per_s": len(points) / sum(map(input_cost, zip(*raw_passes))),
        },
    )


# ---------------------------------------------------------------- Monte Carlo


def check_mc(results, checks: Checks) -> None:
    """The 3-SE gates of `eventfdi reproduce-paper`, pooled over the checked batches."""
    decisions = sum(r.summary.step_count * r.summary.trajectory_count for r in results)
    gammas = sum(r.gamma_count for r in results)
    alarms = sum(r.alarm_count for r in results)
    p = results[0].summary.analytic_trigger
    rate = gammas / decisions
    band = 3.0 * math.sqrt(p * (1.0 - p) / decisions)
    checks.add(
        "mc.comm_rate_3se", abs(rate - p) <= band, exact=False,
        detail=f"{rate:.6g} vs analytic {p:.6g} +/- {band:.3g} over {decisions} decisions",
    )
    alarm_rate = alarms / decisions
    checks.add(
        "mc.alarm_rate_cap", alarm_rate <= ALARM_CAP, exact=False,
        detail=f"{alarm_rate:.6g} <= {ALARM_CAP}",
    )
    gap_max = max(r.cancellation_max for r in results)
    checks.add(
        "mc.cancellation", gap_max <= 1e-9, exact=True, detail=f"max gap {gap_max:.3g} <= 1e-9"
    )
    means = np.vstack([r.traj_bias_means for r in results])
    se = means.std(axis=0, ddof=1) / math.sqrt(means.shape[0])
    gap = np.abs(means.mean(axis=0) - results[0].summary.theory_bias)
    checks.add(
        "mc.bias_law_3se", bool(np.all(gap <= 3.0 * se)), exact=False,
        detail=f"max gap {gap.max():.3g} vs 3 SE {(3 * se).min():.3g}..{(3 * se).max():.3g} "
        f"over {means.shape[0]} trajectories",
    )


def run_mc(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    configs = [ef.config_from_dict(mc_payload(seed, b, sizes)) for b in range(sizes.mc_batches)]
    timer = speed.ScaledTimer()
    results = []
    start = time.perf_counter()
    calls = 0
    while calls < 2 * len(configs) or time.perf_counter() - start < seconds:
        config = configs[calls % len(configs)]
        result = timer.time(lambda: ef.run_scenario(config))
        if calls < len(configs):
            results.append(result)
        calls += 1
    peak = peak_rss_mb()
    checks = Checks()
    check_mc(results, checks)
    diverged = sum(len(r.diverged) for r in results)
    scaled = timer.scaled()
    costs = [input_cost(scaled[i::len(configs)]) for i in range(len(configs))]
    steps = config.steps * config.trajectories
    return Outcome(
        ops_per_s=steps * len(costs) / sum(costs),
        op_seconds=costs,
        peak_rss_mb=peak,
        attempted=sum(c.trajectories for c in configs) + checks.exact_count,
        failed=diverged + checks.failed,
        checks=checks,
        info={
            "calls": calls, "distinct_calls": len(configs), "diverged": diverged,
            "raw_steps_per_s": steps * len(costs) / sum(
                input_cost(timer.raw[i::len(configs)]) for i in range(len(configs))
            ),
        },
    )


def file_digest(path) -> tuple:
    """(sha256 hex, number of lines) of a file."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def nominal_rate_band(result) -> tuple:
    """(ok, detail) of the nominal comm rate against the closed form, 3 SE."""
    s = result.summary
    n = s.step_count * s.trajectory_count
    closed = 1.0 - (1.0 - 2.0 * ef.gaussian_q(PAPER_BETA)) ** 2
    band = 3.0 * math.sqrt(closed * (1.0 - closed) / n)
    return (
        abs(s.comm_rate - closed) <= band,
        f"{s.comm_rate:.6g} vs closed form {closed:.6g} +/- {band:.3g} over {n} decisions",
    )


def run_deep(seed: int, seconds: float, sizes: Sizes, out_dir: str) -> Outcome:
    config = ef.config_from_dict(deep_payload(seed, sizes))
    path = os.path.join(out_dir, f"deep_trace-{os.getpid()}.csv")
    timer = speed.ScaledTimer()
    digests = []
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < seconds:
        result = timer.time(lambda: ef.run_scenario(config, trace_path=path))
        digests.append(file_digest(path))
    peak = peak_rss_mb()
    os.remove(path)
    checks = Checks()
    ok, detail = nominal_rate_band(result)
    checks.add("deep.nominal_comm_rate_3se", ok, exact=False, detail=detail)
    rows = {lines for _, lines in digests}
    checks.add(
        "deep.row_count", rows == {config.steps + 1}, exact=True,
        detail=f"lines {sorted(rows)}, expected {config.steps + 1} (header + one per step)",
    )
    shas = {sha for sha, _ in digests}
    checks.add(
        "deep.identical_sha256", len(shas) == 1, exact=True,
        detail=f"{len(shas)} distinct digest(s) over {len(digests)} runs: {sorted(shas)[0][:16]}",
    )
    cost = input_cost(timer.scaled())
    return Outcome(
        ops_per_s=config.steps / cost,
        op_seconds=[cost],
        peak_rss_mb=peak,
        attempted=config.trajectories + checks.exact_count,
        failed=len(result.diverged) + checks.failed,
        checks=checks,
        info={
            "runs": len(digests), "trace_sha256": sorted(shas)[0],
            "raw_steps_per_s": config.steps / input_cost(timer.raw),
        },
    )
