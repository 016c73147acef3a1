"""The traced run: spans around every public call, and the per-layer metrics.

Spans (name, start, end, parent, run id) are kept in memory and written as
JSON lines when the run ends. The per-step calls of the simulator are too
many to keep one span each, so the benchmark's copy of the step loop sums
each layer's calls and nanoseconds per trajectory and records them as one
aggregate child of that trajectory's span.

Every traced run does the workload's own work under spans for the given
wall time, then two fixed probes that make every per-layer metric exist on
every workload:

- the fidelity probe runs the step-loop copy and `run_scenario` on a small
  paper scenario with the attack `off` and `two_channel`; the copy must
  reproduce the gamma and alarm counts, the final estimates and the trace
  bytes exactly, or the run is marked unfaithful;
- the analysis probe runs the grid's call chain on the paper system at
  solver dof 2 and 3, and resolves the paper config with sigma designed.

Per-step and per-call figures pool every call the run made; the `sim.*`
counts describe the workload's own step loops (the probe's on the grid,
which simulates nothing).
"""

import contextlib
import json
import math
import os
import statistics
import time
import warnings

import numpy as np

import eventfdi as ef
import workloads as wl

STEP_LAYERS = (
    "model.step",
    "estimator.time_update",
    "estimator.whiten",
    "estimator.schedule",
    "detector.statistic_test",
    "estimator.measurement_update",
    "attack.forward",
    "attack.effect_update",
)
# timed intervals per call; the step-loop copy times each layer call on its own
# except the whitening, whose innovation and transform are timed apart
INTERVALS_PER_CALL = dict.fromkeys(STEP_LAYERS, 1) | {"estimator.whiten": 2}
MARCUM_REPEATS = 15
ANALYSIS_PROBE_DOFS = (2, 3)  # one integer and one half-integer Marcum order
ANALYSIS_PROBE_REPEATS = 3


def clock_overhead_ns(samples: int = 20_000) -> float:
    """Mean reading of an empty timed interval, as the step-loop copy times one.

    Subtracted from each timed layer call, so that the layer times and the
    untimed remainder (harness.other) do not carry the timer's own cost.
    """
    clock = time.perf_counter_ns
    total = 0
    for _ in range(samples):
        t0 = clock()
        total += clock() - t0
    return total / samples


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, parent, name, start_ns, end_ns)
        self.aggregates = []  # (parent, name, calls, ns)
        self._stack = [0]
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def aggregate(self, name: str, calls: int, ns: int) -> None:
        """Record `calls` calls of `name` taking `ns` in total, under the open span."""
        self.aggregates.append((self._stack[-1], name, calls, ns))

    def durations_ms(self, name: str) -> list:
        return [(end - start) / 1e6 for _, _, n, start, end in self.spans if n == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")
            for parent, name, calls, ns in self.aggregates:
                handle.write(json.dumps({
                    "run": self.run_id, "parent": parent, "name": name, "calls": calls,
                    "ns": ns, "kind": "aggregate",
                }) + "\n")


class LoopStats:
    """Totals of the step loops run for one source (the workload or the probe)."""

    def __init__(self):
        self.steps = 0
        self.gammas = 0
        self.attacked = 0
        self.diverged = 0
        self.layer_ns = dict.fromkeys(STEP_LAYERS, 0)
        self.layer_calls = dict.fromkeys(STEP_LAYERS, 0)

    def absorb(self, other: "LoopStats") -> None:
        for name in STEP_LAYERS:
            self.layer_ns[name] += other.layer_ns[name]
            self.layer_calls[name] += other.layer_calls[name]


def simulate_copy(config, traj: int, tracer: Tracer, stats: LoopStats, rows=None):
    """The benchmark's copy of `harness._simulate_trajectory`, from public calls only.

    Times each layer call and returns (post-burn-in gamma count, alarm count,
    final remote estimate, final nominal estimate), or None when the
    trajectory diverges. Appends `write_trace` records when `rows` is a list.
    """
    clock = time.perf_counter_ns
    model = config.model
    A, C = model.A, model.C
    params = config.attack_params
    detector = config.detector
    attacked = config.attack_mode != "off"
    two_channel = config.attack_mode == "two_channel"
    beta, burn_in, attack_start, steps = (
        config.beta, config.burn_in, config.attack_start, config.steps,
    )
    n, m = model.n, model.m
    t_step = t_tu = t_wh = t_sched = t_det = t_mu = t_fwd = t_eff = 0
    n_att = gamma_total = gamma_post = alarm_post = 0

    with tracer.span("harness.trajectory"):
        rng = ef.RandomSource(config.seed, traj)
        plant = ef.sample_initial_state(model, rng)
        filt = ef.initial_filter_state(model)
        att = ef.AttackState.zeros(n, m)
        xn_post = np.zeros(n)
        g_sum = 0.0
        try:
            for k in range(steps):
                if k > 0:
                    t0 = clock()
                    filt = ef.time_update(filt, model)
                    t_tu += clock() - t0
                xn_prior = A @ xn_post
                t0 = clock()
                plant_next, y = ef.step(model, plant, rng)
                t_step += clock() - t0

                active = attacked and k >= attack_start
                t0 = clock()
                z_nominal = ef.innovation(y, xn_prior, model)
                t_wh += clock() - t0
                if active:
                    n_att += 1
                    x_tilde_prior = A @ att.x_tilde_post
                    if two_channel:
                        feedback = C @ filt.x_prior - C @ x_tilde_prior
                    else:
                        feedback = C @ filt.x_prior
                    z_sensor = y - feedback
                    t0 = clock()
                    eps_sensor = ef.transform_innovation(z_sensor, filt.F)
                    eps_nominal = ef.transform_innovation(z_nominal, filt.F)
                    t1 = clock()
                    eps_received = ef.forward_attack(eps_nominal, params)
                    t_fwd += clock() - t1
                    t_wh += t1 - t0
                else:
                    z_sensor = z_nominal
                    t0 = clock()
                    eps_sensor = ef.transform_innovation(z_sensor, filt.F)
                    t_wh += clock() - t0
                    eps_received = eps_sensor

                t0 = clock()
                gamma = ef.schedule(eps_received, beta)
                t1 = clock()
                g = ef.statistic(eps_received)
                alarm = ef.test(g, detector)
                t2 = clock()
                filt = ef.measurement_update(filt, eps_received, gamma, beta, model)
                t3 = clock()
                t_sched += t1 - t0
                t_det += t2 - t1
                t_mu += t3 - t2
                if active:
                    xn_post = xn_prior + filt.K @ z_nominal if gamma else xn_prior
                    bundle = ef.SteadyState(P=filt.P_prior, K=filt.K, F=filt.F, S=filt.S, L=filt.L)
                    t0 = clock()
                    att = ef.attack_effect_update(att, gamma, z_nominal, bundle, params, model)
                    t_eff += clock() - t0
                else:
                    xn_post = filt.x_post

                gamma_total += gamma
                if k >= burn_in:
                    gamma_post += gamma
                    alarm_post += alarm
                g_sum += g
                if rows is not None:
                    rows.append((k, traj, gamma, alarm, g, plant.x, xn_post, filt.x_post,
                                 z_sensor, eps_sensor, eps_received))
                plant = plant_next
            if not math.isfinite(float(filt.x_post.sum()) + g_sum):
                raise ef.NumericError(f"estimator diverged in trajectory {traj}")
            result = (gamma_post, alarm_post, filt.x_post, xn_post)
        except ef.NumericError:
            stats.diverged += 1
            result = None
        done = k + 1
        for name, calls, ns in (
            ("model.step", done, t_step),
            ("estimator.time_update", done - 1, t_tu),
            ("estimator.whiten", done, t_wh),
            ("estimator.schedule", done, t_sched),
            ("detector.statistic_test", done, t_det),
            ("estimator.measurement_update", done, t_mu),
            ("attack.forward", n_att, t_fwd),
            ("attack.effect_update", n_att, t_eff),
        ):
            tracer.aggregate(name, calls, ns)
            stats.layer_ns[name] += ns
            stats.layer_calls[name] += calls
    stats.steps += done
    stats.gammas += gamma_total
    stats.attacked += n_att
    return result


class TracedRun:
    """State of one traced run: spans, loop totals, trace writes, checks and timings."""

    def __init__(self, run_id: str, out_dir: str):
        self.tracer = Tracer(run_id)
        self.out_dir = out_dir
        self.workload_loops = LoopStats()
        self.probe_loops = LoopStats()
        self.trace_writes = []  # (source, rows, bytes, ns)
        self.checks = wl.Checks()
        self.marcum_us = {"int": [], "half": []}
        self.untraced = {}  # source -> (run_scenario wall in us, trajectory-steps)
        self.overhead_ratios = []  # traced / untraced time of each unit, the pair run back to back
        self.solver_errors = 0
        self.oracle_mismatch = 0
        self.attempted = 0
        self.failed = 0
        self.clock_ns = clock_overhead_ns()

    # -- pieces shared by the workloads

    def scratch(self, name: str) -> str:
        """A file of this run only, so that runs sharing the directory do not collide."""
        return os.path.join(self.out_dir, f"{self.tracer.run_id}-{name}")

    def resolve(self, payload: dict):
        with self.tracer.span("harness.config_from_dict"):
            return ef.config_from_dict(payload)

    def write_trace(self, rows, path: str, source: str) -> None:
        with self.tracer.span("harness.write_trace"):
            ef.write_trace(rows, path)
        _, _, _, start, end = self.tracer.spans[-1]
        self.trace_writes.append((source, len(rows), os.path.getsize(path), end - start))

    def time_marcum(self, sigma: float, params, dof: int) -> None:
        """Median time of marcum_q at a solved point's order and arguments."""
        nu, a, b = 0.5 * dof, params.mu * params.delta_bar, params.mu * math.sqrt(sigma)
        samples = []
        for _ in range(MARCUM_REPEATS):
            t0 = time.perf_counter_ns()
            ef.marcum_q(nu, a, b)
            samples.append(time.perf_counter_ns() - t0)
        self.marcum_us["int" if dof % 2 == 0 else "half"].append(statistics.median(samples) / 1e3)

    # -- probes

    def fidelity_probe(self, seed: int, sizes) -> None:
        """The copy must reproduce run_scenario exactly with the attack off and on."""
        for mode in ("off", "two_channel"):
            config = ef.config_from_dict(wl.probe_payload(seed, mode, sizes))
            reference_path = self.scratch(f"probe_{mode}_reference.csv")
            copy_path = self.scratch(f"probe_{mode}_copy.csv")
            reference = ef.run_scenario(config, trace_path=reference_path)
            t0 = time.perf_counter()
            ef.run_scenario(config)
            self._add_untraced("probe", time.perf_counter() - t0, config)

            rows, gammas, alarms, finals = [], 0, 0, []
            with self.tracer.span("bench.fidelity_probe"):
                for traj in range(config.trajectories):
                    out = simulate_copy(config, traj, self.tracer, self.probe_loops, rows)
                    if out is None:
                        finals.append(None)
                        continue
                    gammas += out[0]
                    alarms += out[1]
                    finals.append((out[2], out[3]))
            self.write_trace(rows, copy_path, "probe")
            reference_finals = _final_estimates(reference_path, config.model.n)
            same_finals = all(
                f is not None and np.array_equal(f[0], ref_xa) and np.array_equal(f[1], ref_xn)
                for f, (ref_xn, ref_xa) in zip(finals, reference_finals)
            )
            same_bytes = wl.file_digest(copy_path) == wl.file_digest(reference_path)
            ok = (
                gammas == reference.gamma_count
                and alarms == reference.alarm_count
                and same_finals
                and same_bytes
                and len(finals) == len(reference_finals)
            )
            self.check(
                f"fidelity.{mode}", ok,
                detail=f"gamma {gammas}/{reference.gamma_count}, alarm {alarms}/"
                f"{reference.alarm_count}, final estimates equal {same_finals}, "
                f"trace bytes equal {same_bytes}",
            )
            os.remove(reference_path)
            os.remove(copy_path)

    def analysis_probe(self, seed: int, sizes) -> None:
        """The grid chain on the paper system, and config resolution with sigma designed."""
        payload = wl.probe_payload(seed, "two_channel", sizes)
        payload.pop("sigma")
        model = ef.config_from_dict(payload).model
        solved = {}
        for _ in range(ANALYSIS_PROBE_REPEATS):
            self.resolve(payload)
            for dof in ANALYSIS_PROBE_DOFS:
                point = wl.GridPoint(model=model, dof=dof)
                with self.tracer.span("bench.analysis_probe"):
                    solved[dof] = wl.grid_chain(point, self.tracer.span)
        for dof, (sigma, params) in solved.items():
            self.time_marcum(sigma, params, dof)

    def check(self, name: str, ok: bool, detail: str) -> None:
        """An exact check that counts as one attempted operation."""
        self.checks.add(name, ok, exact=True, detail=detail)
        self.attempted += 1
        self.failed += not ok

    def _add_untraced(self, source: str, seconds: float, config) -> None:
        total, steps = self.untraced.get(source, (0.0, 0))
        self.untraced[source] = (
            total + seconds * 1e6, steps + config.steps * config.trajectories,
        )

    # -- workloads

    # Each traced unit is followed by the same unit untraced, so the pair sees
    # the same machine speed; about half of the wall time goes to the latter.

    def mc(self, seed: int, seconds: float, sizes) -> None:
        payloads = [wl.mc_payload(seed, b, sizes) for b in range(sizes.trace_batches)]
        start = time.perf_counter()
        batch = 0
        with self.tracer.span("bench.workload"):
            while batch < len(payloads) or time.perf_counter() - start < seconds:
                config = self.resolve(payloads[batch % len(payloads)])
                with self.tracer.span("bench.batch"):
                    for traj in range(config.trajectories):
                        simulate_copy(config, traj, self.tracer, self.workload_loops)
                if batch < len(payloads):  # the distinct inputs are the operations
                    self.attempted += config.trajectories
                    diverged = self.workload_loops.diverged
                batch += 1
                self._untraced_pair(lambda: ef.run_scenario(config), config)
        self.failed += diverged

    def deep(self, seed: int, seconds: float, sizes) -> None:
        path = self.scratch("deep_copy.csv")
        reference_path = self.scratch("deep_reference.csv")
        start = time.perf_counter()
        runs = 0
        same = True
        with self.tracer.span("bench.workload"):
            while runs == 0 or time.perf_counter() - start < seconds:
                config = self.resolve(wl.deep_payload(seed, sizes))
                with self.tracer.span("bench.run"):
                    rows = []
                    simulate_copy(config, 0, self.tracer, self.workload_loops, rows)
                    self.write_trace(rows, path, "workload")
                    del rows
                if runs == 0:  # every run repeats the same trajectory
                    self.attempted += config.trajectories
                    self.failed += self.workload_loops.diverged
                runs += 1
                self._untraced_pair(
                    lambda: ef.run_scenario(config, trace_path=reference_path), config
                )
                same = same and wl.file_digest(path) == wl.file_digest(reference_path)
        self.check("deep.copy_trace_identical", same,
                   detail="the copy's trace equals run_scenario's byte for byte")
        os.remove(path)
        os.remove(reference_path)

    def _untraced_pair(self, run, config) -> None:
        """Time `run` untraced, right after the traced unit that just closed."""
        _, _, _, traced_start, traced_end = self.tracer.spans[-1]
        t0 = time.perf_counter_ns()
        run()
        untraced_ns = time.perf_counter_ns() - t0
        self._add_untraced("workload", untraced_ns / 1e9, config)
        self.overhead_ratios.append((traced_end - traced_start) / untraced_ns)

    def grid(self, seed: int, seconds: float, sizes) -> None:
        points = wl.make_grid(seed, sizes.grid_points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            passes = 0
            start = time.perf_counter()
            with self.tracer.span("bench.workload"):
                while passes == 0 or time.perf_counter() - start < seconds:
                    traced_seconds, _, solved, raised = wl.grid_pass(points, self.tracer.span)
                    untraced_seconds, _, _, _ = wl.grid_pass(points)
                    self.overhead_ratios.append(traced_seconds / untraced_seconds)
                    passes += 1
        failing = wl.check_grid(points, solved, raised, self.checks)
        self.solver_errors = len(raised)
        self.oracle_mismatch = failing - len(raised)
        for index, (sigma, params) in solved.items():
            self.time_marcum(sigma, params, points[index].dof)
        # as in the untraced run, a grid point is the operation; its checks judge correctness
        self.attempted += len(points)
        self.failed += failing

    # -- metrics

    def metrics(self) -> dict:
        source = "workload" if self.workload_loops.steps else "probe"
        loops = self.workload_loops if source == "workload" else self.probe_loops
        pooled = LoopStats()
        pooled.absorb(self.workload_loops)
        pooled.absorb(self.probe_loops)

        def self_ns(stats: LoopStats, name: str) -> float:
            timer_ns = self.clock_ns * INTERVALS_PER_CALL[name] * stats.layer_calls[name]
            return stats.layer_ns[name] - timer_ns

        out = {}
        for name in STEP_LAYERS:
            out[f"{name}.us_per_step"] = (
                self_ns(pooled, name) / max(pooled.layer_calls[name], 1) / 1e3, "us",
            )
        layer_us = sum(self_ns(loops, name) for name in STEP_LAYERS) / loops.steps / 1e3
        total_us, untraced_steps = self.untraced[source]
        untraced_us = total_us / untraced_steps
        # only trace_deep_nominal's untraced reference writes a trace (one row per step)
        own = [w for w in self.trace_writes if w[0] == "workload"]
        write_us_per_step = sum(w[3] for w in own) / sum(w[1] for w in own) / 1e3 if own else 0.0
        out["harness.other.us_per_step"] = (untraced_us - layer_us - write_us_per_step, "us")
        out["bench.trace_overhead_frac"] = (statistics.median(self.overhead_ratios) - 1.0, "ratio")

        rows = sum(w[1] for w in self.trace_writes)
        size = sum(w[2] for w in self.trace_writes)
        ns = sum(w[3] for w in self.trace_writes)
        out["harness.write_trace.us_per_row"] = (ns / rows / 1e3, "us")
        out["harness.trace.mb_per_s"] = (size / 1e6 / (ns / 1e9), "MB/s")
        traced_bytes = own[-1][2] if own else sum(
            w[2] for w in self.trace_writes if w[0] == "probe"
        )
        out["harness.trace.bytes"] = (traced_bytes, "count")

        out["sim.steps"] = (loops.steps, "count")
        out["sim.trigger_frac"] = (loops.gammas / loops.steps, "ratio")
        out["sim.attack_active_frac"] = (loops.attacked / loops.steps, "ratio")
        out["sim.diverged"] = (loops.diverged, "count")

        out["harness.config_from_dict.ms"] = (
            statistics.median(self.tracer.durations_ms("harness.config_from_dict")), "ms",
        )
        for name in wl.GRID_CALLS:
            out[f"{name}.ms"] = (statistics.median(self.tracer.durations_ms(name)), "ms")
        out["special.marcum_q.us.int_order"] = (statistics.fmean(self.marcum_us["int"]), "us")
        out["special.marcum_q.us.half_order"] = (statistics.fmean(self.marcum_us["half"]), "us")
        out["analysis.solver_errors"] = (self.solver_errors, "count")
        out["analysis.oracle_mismatch"] = (self.oracle_mismatch, "count")
        out["bench.fidelity_failures"] = (
            sum(not ok for name, ok, _, _ in self.checks.results if name.startswith("fidelity.")),
            "count",
        )
        return out


def _final_estimates(path: str, n: int) -> list:
    """(xhat, xhata) of the last row of every trajectory in a trace file."""
    last = {}
    with open(path, "r", encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            fields = line.split(",", 2 + 3 + 3 * n)
            last[int(fields[1])] = fields
    finals = []
    for traj in sorted(last):
        values = [float(v) for v in last[traj][5:5 + 3 * n]]
        finals.append((np.array(values[n:2 * n]), np.array(values[2 * n:3 * n])))
    return finals


def traced_run(workload: str, seed: int, seconds: float, sizes, out_dir: str, run_id: str):
    """Run one workload traced; returns (metrics, attempted, failed, checks)."""
    run = TracedRun(run_id, out_dir)
    {"mc_wide_attacked": run.mc, "trace_deep_nominal": run.deep, "analysis_grid": run.grid}[
        workload
    ](seed, seconds, sizes)
    run.fidelity_probe(seed, sizes)
    run.analysis_probe(seed, sizes)
    metrics = run.metrics()
    run.tracer.write(os.path.join(out_dir, f"spans-{workload}-s{seed}.jsonl"))
    return metrics, run.attempted, run.failed, run.checks
