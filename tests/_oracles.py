"""Independent reference computations the library must agree with.

Everything here deliberately avoids the code paths under test: survival
functions come from quadrature of the Bessel-form noncentral chi-square
density, matrix maps from explicit elementwise loops, Lyapunov fixed points
from a Kronecker solve.
"""

import math

import numpy as np
from scipy import integrate
from scipy import special as sp


def gaussian_tail_quad(x: float) -> float:
    """Upper Gaussian tail by quadrature of the density."""
    val, _ = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
        x,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def ncx2_survival_quad(x: float, dof: int, lam: float) -> float:
    """Pr(V >= x) for noncentral chi-square by integrating the density.

    The density is written through the exponentially scaled Bessel function
    so the integrand stays in range for large noncentrality.
    """
    if x <= 0.0:
        return 1.0
    if lam == 0.0:
        norm = 2.0 ** (dof / 2.0) * math.gamma(dof / 2.0)

        def dens(t):
            return t ** (dof / 2.0 - 1.0) * math.exp(-0.5 * t) / norm

    else:

        def dens(t):
            if t <= 0.0:
                return 0.0
            arg = math.sqrt(lam * t)
            return (
                0.5
                * math.exp(-0.5 * (t + lam) + arg)
                * (t / lam) ** (dof / 4.0 - 0.5)
                * sp.ive(dof / 2.0 - 1.0, arg)
            )

    val, _ = integrate.quad(dens, x, np.inf, epsabs=1e-11, epsrel=1e-11, limit=400)
    return val


def marcum_quad(nu: float, a: float, b: float) -> float:
    """Marcum Q by the quadrature oracle (2*nu dof, noncentrality a^2, at b^2)."""
    return ncx2_survival_quad(b * b, int(round(2 * nu)), a * a)


def matmul_loops(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Elementwise triple-loop matrix product."""
    out = np.zeros((X.shape[0], Y.shape[1]))
    for i in range(X.shape[0]):
        for j in range(Y.shape[1]):
            acc = 0.0
            for k in range(X.shape[1]):
                acc += X[i, k] * Y[k, j]
            out[i, j] = acc
    return out


def lyapunov_kron(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Fixed point of X = A X A^T + Q via vectorization."""
    n = A.shape[0]
    vec = np.linalg.solve(np.eye(n * n) - np.kron(A, A), Q.reshape(-1))
    return vec.reshape(n, n)


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((n, n))
    return scale * (G @ G.T) / n


def random_stable_model(n: int, m: int, rho: float, seed: int):
    """A random system whose A has spectral radius rho."""
    from eventfdi.model import SystemModel

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    return SystemModel(
        A=A,
        C=rng.standard_normal((m, n)),
        Q=random_psd(rng, n, 0.1) + 0.01 * np.eye(n),
        R=random_psd(rng, m, 0.5) + 0.05 * np.eye(m),
        Xi0=np.eye(n),
    )


def unstable_model():
    """A detectable system with one unstable mode (eigenvalue 1.05)."""
    from eventfdi.model import SystemModel

    return SystemModel(
        A=np.array([[1.05, 0.2], [0.0, 0.5]]),
        C=np.eye(2),
        Q=np.eye(2),
        R=np.eye(2),
        Xi0=np.eye(2),
    )


def relative_gap(X: np.ndarray, Y: np.ndarray) -> float:
    """Max-norm distance of X from Y relative to the max norm of Y."""
    return float(np.max(np.abs(X - Y)) / np.max(np.abs(Y)))


def simulate_trajectory_reference(config, traj: int) -> dict:
    """One trajectory through the scalar public functions, one step at a time.

    This is the step loop the library ran before its simulation core was
    batched over trajectories; it stays here as the reference that core
    must match bit for bit. Returns the per-step records keyed like
    `harness._Records` (each with the step index first), and raises
    NumericError where the old loop did: on a non-finite plant state, an
    innovation covariance that is not positive definite, or non-finite
    estimates or statistics at the end.
    """
    from eventfdi import (
        AttackState,
        NumericError,
        RandomSource,
        SteadyState,
        attack_effect_update,
        forward_attack,
        initial_filter_state,
        innovation,
        measurement_update,
        sample_initial_state,
        schedule,
        statistic,
        step,
        test,
        time_update,
        transform_innovation,
    )

    model = config.model
    A, C = model.A, model.C
    params = config.attack_params
    attacked = config.attack_mode != "off"
    two_channel = config.attack_mode == "two_channel"
    steps = config.steps
    n, m = model.n, model.m

    rng = RandomSource(config.seed, traj)
    plant = sample_initial_state(model, rng)
    filt = initial_filter_state(model)
    att = AttackState.zeros(n)
    xn_post = np.zeros(n)  # virtual nominal estimator (same trigger sequence)

    rec = {
        "gamma": np.empty(steps, dtype=bool),
        "alarm": np.empty(steps, dtype=bool),
        "g": np.empty(steps),
        "x": np.empty((steps, n)),
        "xn": np.empty((steps, n)),
        "xa": np.empty((steps, n)),
        "z": np.empty((steps, m)),
        "zn": np.empty((steps, m)),
        "eps": np.empty((steps, m)),
        "epst": np.empty((steps, m)),
    }
    for k in range(steps):
        if k > 0:
            filt = time_update(filt, model)
        xn_prior = A @ xn_post
        plant_next, y = step(model, plant, rng)

        active = attacked and k >= config.attack_start
        z_nominal = innovation(y, xn_prior, model)

        if active:
            x_tilde_prior = A @ att.x_tilde_post
            if two_channel:
                feedback = C @ filt.x_prior - C @ x_tilde_prior  # alpha = -C xtilde^-
            else:
                feedback = C @ filt.x_prior
            z_sensor = y - feedback
            eps_sensor = transform_innovation(z_sensor, filt.F)
            eps_received = forward_attack(transform_innovation(z_nominal, filt.F), params)
        else:
            z_sensor = z_nominal
            eps_sensor = transform_innovation(z_sensor, filt.F)
            eps_received = eps_sensor

        gamma = schedule(eps_received, config.beta)
        g = statistic(eps_received)
        alarm = test(g, config.detector)

        filt = measurement_update(filt, eps_received, gamma, config.beta, model)
        if active:
            xn_post = xn_prior + filt.K @ z_nominal if gamma else xn_prior
            bundle = SteadyState(P=filt.P_prior, K=filt.K, F=filt.F, S=filt.S, L=filt.L)
            att = attack_effect_update(att, gamma, z_nominal, bundle, params, model)
        else:
            xn_post = filt.x_post  # no attack yet: the filter is the nominal estimator

        for key, value in (
            ("gamma", gamma), ("alarm", alarm), ("g", g), ("x", plant.x), ("xn", xn_post), ("xa", filt.x_post), ("z", z_sensor),
            ("zn", z_nominal), ("eps", eps_sensor), ("epst", eps_received),
        ):
            rec[key][k] = value
        plant = plant_next

    if not math.isfinite(float(rec["xa"].sum()) + float(rec["g"].sum())):
        raise NumericError(f"estimator diverged in trajectory {traj}")
    return rec


def reference_trace_rows(rec: dict, traj: int) -> list:
    """The 11-tuples `write_trace` takes, from one reference trajectory's records."""
    return [
        (k, traj, int(rec["gamma"][k]), int(rec["alarm"][k]), rec["g"][k], rec["x"][k],
         rec["xn"][k], rec["xa"][k], rec["z"][k], rec["eps"][k], rec["epst"][k])
        for k in range(len(rec["g"]))
    ]


def reference_summary(records_by_traj: list, config, theory_bias: np.ndarray) -> dict:
    """The post-burn-in aggregates by a plain loop over trajectories.

    records_by_traj holds the surviving trajectories' records, as
    `simulate_trajectory_reference` returns them, in index order. Each
    trajectory is reduced on its own, and the sums are added one
    trajectory after another. Keys are the `RunResult` fields and the
    empirical `SimulationSummary` fields.
    """
    post = slice(config.burn_in, config.steps)
    count = config.steps - config.burn_in
    total = count * len(records_by_traj)
    acc = dict.fromkeys(("gamma", "alarm", "bias", "err_sq", "z", "zz", "eps", "eps_sq", "lag", "g"), 0)
    bias_means, cancellation_max = [], 0.0
    for rec in records_by_traj:
        xa, z, eps = rec["xa"][post], rec["z"][post], rec["eps"][post]
        err = xa - rec["x"][post] - theory_bias
        bias = (xa - rec["xn"][post]).sum(axis=0)
        bias_means.append(bias / count)
        for key, value in (
            ("gamma", int(rec["gamma"][post].sum())),
            ("alarm", int(rec["alarm"][post].sum())),
            ("bias", bias),
            ("err_sq", float((err * err).sum())),
            ("z", z.sum(axis=0)),
            ("zz", z.T @ z),
            ("eps", eps.sum(axis=0)),
            ("eps_sq", (eps * eps).sum(axis=0)),
            ("lag", (eps[1:] * eps[:-1]).sum(axis=0)),
            ("g", float(rec["g"][post].sum())),
        ):
            acc[key] = acc[key] + value
        if config.attack_mode == "two_channel":
            z_win, zn_win = rec["z"][config.attack_start:], rec["zn"][config.attack_start:]
            gap = np.abs(z_win - zn_win) / (1.0 + np.abs(zn_win))
            cancellation_max = max(cancellation_max, float(gap.max()))

    z_mean = acc["z"] / total
    eps_mean = acc["eps"] / total
    eps_var = acc["eps_sq"] / total - eps_mean**2
    lag_total = total - len(records_by_traj)  # one fewer lagged pair per trajectory
    if lag_total > 0 and np.all(eps_var > 0):
        eps_lag1 = (acc["lag"] / lag_total - eps_mean**2) / eps_var
    else:
        eps_lag1 = np.full(config.model.m, np.nan)
    return {
        "comm_rate": acc["gamma"] / total,
        "alarm_rate": acc["alarm"] / total,
        "emp_bias": acc["bias"] / total,
        "emp_cov_trace": acc["err_sq"] / total,
        "step_count": count,
        "trajectory_count": len(records_by_traj),
        "traj_bias_means": np.vstack(bias_means),
        "sensor_innovation_mean": z_mean,
        "sensor_innovation_cov": acc["zz"] / total - np.outer(z_mean, z_mean),
        "eps_mean": eps_mean,
        "eps_var": eps_var,
        "eps_lag1": eps_lag1,
        "g_mean": acc["g"] / total,
        "cancellation_max": cancellation_max,
        "gamma_count": acc["gamma"],
        "alarm_count": acc["alarm"],
    }
