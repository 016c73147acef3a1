"""Independent reference computations the library must agree with.

Everything here deliberately avoids the code paths under test: survival
functions come from quadrature of the Bessel-form noncentral chi-square
density or from 50-digit mpmath sums, matrix maps from explicit elementwise
loops, Lyapunov fixed points from a Kronecker solve.
"""

import math
from decimal import Decimal, localcontext

import mpmath
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
    so the integrand stays in range for large noncentrality. The range is cut
    at every second standard deviation of the bulk, out to 10 of them, so
    quad cannot step over a peak that lies far beyond x.
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

    mean, sd = dof + lam, math.sqrt(2.0 * (dof + 2.0 * lam))
    edges = [x] + [mean + k * sd for k in range(-10, 11, 2) if mean + k * sd > x] + [np.inf]
    return sum(
        integrate.quad(dens, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def marcum_quad(nu: float, a: float, b: float) -> float:
    """Marcum Q by the quadrature oracle (2*nu dof, noncentrality a^2, at b^2)."""
    return ncx2_survival_quad(b * b, int(round(2 * nu)), a * a)


def _upper_gamma_regularized(s, y):
    """Gamma(s, y) / Gamma(s) in mpmath.

    mpmath's own gammainc gives up on non-integer orders near a million and
    above; there the value is 1 - P(s, y), with P by the positive Kummer
    series P = y^s e^(-y) / Gamma(s + 1) * 1F1(1; s + 1; y).
    """
    try:
        return mpmath.gammainc(s, y, mpmath.inf, regularized=True)
    except mpmath.libmp.NoConvergence:
        scale = mpmath.exp(s * mpmath.log(y) - y - mpmath.loggamma(s + 1))
        return 1 - scale * mpmath.hyp1f1(1, s + 1, y, maxterms=10**7)


def marcum_mpmath(nu: float, a: float, b: float) -> float:
    """Marcum Q as a 50-digit Poisson sum of regularized upper incomplete gammas.

    Q_nu(a, b) = sum_j p_j S_j with p_j = pois(j; lam = a^2/2) and
    S_j = Gamma(nu + j, y = b^2/2) / Gamma(nu + j), summed outward from the
    Poisson mode j0. p_j0, S_j0 and e_j0 = S_{j0+1} - S_j0 come from mpmath;
    the other terms follow by the recurrences p_{j+1} = p_j lam/(j+1),
    S_{j+1} = S_j + e_j and e_{j+1} = e_j y/(nu+j+1), run in Python's
    decimal at 50 digits, which is several times faster than mpf for the
    ~2e5 terms that lam ~ 3e8 needs. Each side stops once a bound on its
    neglected mass is below 1e-20 of the sum: below the mode the weights
    fall away from it and S falls with j, so that mass is at most p_j j S_j;
    above it the weight ratio past j is at most lam/(j+1) < 1 and S <= 1,
    so it is at most p_j lam/(j+1-lam).
    """
    with mpmath.workdps(60):
        lam = mpmath.mpf(a) ** 2 / 2
        y = mpmath.mpf(b) ** 2 / 2
        if y == 0:
            return 1.0
        if lam == 0:
            return float(_upper_gamma_regularized(mpmath.mpf(nu), y))
        j0 = int(mpmath.floor(lam))
        start = (
            mpmath.exp(j0 * mpmath.log(lam) - lam - mpmath.loggamma(j0 + 1)),
            _upper_gamma_regularized(nu + j0, y),
            mpmath.exp((nu + j0) * mpmath.log(y) - y - mpmath.loggamma(nu + j0 + 1)),
        )
        p0, s0, e0, lam, y = (Decimal(mpmath.nstr(v, 55)) for v in (*start, lam, y))

    with localcontext(prec=50):
        nu = Decimal(nu)
        tol = Decimal("1e-20")
        total = p0 * s0

        p, s, e, j = p0, s0, e0, j0
        while j > 0:
            e = e * (nu + j) / y
            s -= e
            p = p * j / lam
            j -= 1
            total += p * s
            if p * j * s < tol * total:
                break

        p, s, e, j = p0, s0, e0, j0
        while True:
            s += e
            e = e * y / (nu + j + 1)
            p = p * lam / (j + 1)
            j += 1
            total += p * s
            if j + 1 > lam and p * lam < tol * total * (j + 1 - lam):
                break
        return float(total)


def chi2_quantile_mpmath(upper_tail: float, dof: int) -> float:
    """The s with Pr(chi^2_dof >= s) = upper_tail, by a 50-digit mpmath root.

    Newton's method on log(survival) - log(upper_tail) in t = log(s), from a
    float seed; it runs until the step is below 1e-30, so the seed only
    decides how many steps that takes. The derivative in t is
    -s pdf(s) / survival(s).
    """
    with mpmath.workdps(50):
        k = mpmath.mpf(dof) / 2
        target = mpmath.log(upper_tail)
        t = mpmath.log(sp.gammainccinv(dof / 2, upper_tail) * 2)
        for _ in range(50):
            s = mpmath.exp(t)
            survival = mpmath.gammainc(k, s / 2, mpmath.inf, regularized=True)
            density = mpmath.exp((k - 1) * mpmath.log(s) - s / 2 - k * mpmath.log(2) - mpmath.loggamma(k))
            step = (mpmath.log(survival) - target) * survival / (s * density)
            t += step
            if abs(step) < 1e-30:
                return float(mpmath.exp(t))
        raise AssertionError("chi2_quantile_mpmath did not converge")


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


def riccati_doubling_reference(model):
    """(P, K) of the steady filter from a frozen copy of the library's first
    doubling loop, which formed W^{-1} and checked finiteness on every
    doubling; riccati_fixed_point must keep its bits. Its stop is the
    library's relative one (that loop stopped at an absolute change of 1e-12,
    which tied the answer to the units of Q, R and Xi0). K comes from P
    through the library's own gain formula. Raises DivergenceError where that
    loop did.
    """
    from eventfdi.errors import DivergenceError
    from eventfdi.estimator import _derived, _sym

    X0 = model.Xi0 if np.any(model.Xi0) else model.Q
    eye = np.eye(model.n)
    A_k = model.A.T
    G_k = _sym(model.C.T @ np.linalg.solve(model.R, model.C))
    H_k = model.Q
    P = X0
    with np.errstate(all="ignore"):
        for _ in range(64):
            try:
                W_inv = np.linalg.inv(eye + G_k @ H_k)
                P_next = _sym(H_k + A_k.T @ X0 @ np.linalg.solve(eye + G_k @ X0, A_k))
            except np.linalg.LinAlgError as exc:
                raise DivergenceError(f"singular matrix: {exc}") from exc
            if not np.all(np.isfinite(P_next)):
                raise DivergenceError("non-finite values")
            if np.max(np.abs(P_next - P)) <= 1e-10 * np.max(np.abs(P_next)):
                P = P_next
                break
            P = P_next
            WA = W_inv @ A_k
            H_k, G_k, A_k = (
                _sym(H_k + A_k.T @ H_k @ WA),
                _sym(G_k + A_k @ W_inv @ G_k @ A_k.T),
                A_k @ WA,
            )
        else:
            raise DivergenceError("no convergence")
    return P, _derived(P, model)[3]


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
    """The post-burn-in window sums by a plain loop over trajectories.

    records_by_traj holds the surviving trajectories' records, as
    `simulate_trajectory_reference` returns them, in index order. Each
    trajectory is reduced on its own; "sums" maps each `harness.TrajectorySums`
    field to those sums, one row per trajectory, and the totals add the rows
    one trajectory after another. The other keys are the `RunResult` fields
    and the empirical `SimulationSummary` fields.
    """
    post = slice(config.burn_in, config.steps)
    count = config.steps - config.burn_in
    total = count * len(records_by_traj)
    keys = ("gamma", "alarm", "err_sq", "bias", "z", "zz", "eps", "eps_sq", "eps_lag", "g")
    rows = {key: [] for key in keys}
    cancellation_max = 0.0
    for rec in records_by_traj:
        xa, z, eps = rec["xa"][post], rec["z"][post], rec["eps"][post]
        err = xa - rec["x"][post] - theory_bias
        for key, value in (
            ("gamma", int(rec["gamma"][post].sum())),
            ("alarm", int(rec["alarm"][post].sum())),
            ("err_sq", float((err * err).sum())),
            ("bias", (xa - rec["xn"][post]).sum(axis=0)),
            ("z", z.sum(axis=0)),
            ("zz", z.T @ z),
            ("eps", eps.sum(axis=0)),
            ("eps_sq", (eps * eps).sum(axis=0)),
            ("eps_lag", (eps[1:] * eps[:-1]).sum(axis=0)),
            ("g", float(rec["g"][post].sum())),
        ):
            rows[key].append(value)
        if config.attack_mode == "two_channel":
            z_win, zn_win = rec["z"][config.attack_start:], rec["zn"][config.attack_start:]
            gap = np.abs(z_win - zn_win) / (1.0 + np.abs(zn_win))
            cancellation_max = max(cancellation_max, float(gap.max()))

    return {
        "sums": {"count": count, **{key: np.array(value) for key, value in rows.items()}},
        "comm_rate": sum(rows["gamma"]) / total,
        "alarm_rate": sum(rows["alarm"]) / total,
        "emp_bias": sum(rows["bias"]) / total,
        "emp_cov_trace": sum(rows["err_sq"]) / total,
        "step_count": count,
        "trajectory_count": len(records_by_traj),
        "traj_bias_means": np.vstack(rows["bias"]) / count,
        "cancellation_max": cancellation_max,
        "gamma_count": sum(rows["gamma"]),
        "alarm_count": sum(rows["alarm"]),
    }


def diagnostics(sums) -> dict:
    """Six statistics of a run's `harness.TrajectorySums` that no command prints. Each
    mean adds the rows in index order by Python's sum, the scalar sums as Python
    floats, as the summary's means do; eps_lag1 is nan where a variance is not
    positive or no lagged pair exists."""
    trajectories = len(sums.g)
    total = sums.count * trajectories
    z_mean = sum(sums.z) / total
    eps_mean = sum(sums.eps) / total
    eps_var = sum(sums.eps_sq) / total - eps_mean**2
    lag_total = total - trajectories  # one fewer lagged pair per trajectory
    if lag_total > 0 and np.all(eps_var > 0):
        eps_lag1 = (sum(sums.eps_lag) / lag_total - eps_mean**2) / eps_var
    else:
        eps_lag1 = np.full(len(eps_mean), np.nan)
    return {
        "sensor_innovation_mean": z_mean,
        "sensor_innovation_cov": sum(sums.zz) / total - np.outer(z_mean, z_mean),
        "eps_mean": eps_mean,
        "eps_var": eps_var,
        "eps_lag1": eps_lag1,
        "g_mean": sum(sums.g.tolist()) / total,
    }
