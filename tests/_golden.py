"""Golden digests: sha256 of the bits a fixed set of runs, commands and analyses produce.

tests/golden/digests.json holds one digest per entry:
- `run/<name>/summary`: the JSON of `summary.to_dict()`;
- `run/<name>/<field>`: every other `RunResult` field, as dtype, shape and bytes;
- `run/<name>/trace`: the bytes of the trace CSV;
- `cli/<command>`: the exit code and stdout of a CLI subcommand;
- `grid/<output>`: one analysis output over a fixed grid of random stable systems.

The bits belong to the numpy and scipy versions the file records; the test
skips on other versions and names both. A change that alters an entry on
purpose rewrites the file and says which entries changed and why:

    python tests/_golden.py            # list the entries that differ, exit 1 if any
    python tests/_golden.py --update   # rewrite the file and list what changed
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # run as a script: use the checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import scipy

import eventfdi as ef
from eventfdi import cli, harness

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _hash(*parts) -> str:
    """sha256 over parts: arrays as dtype, shape and C-order bytes, bytes as is, else repr."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            digest.update(part.tobytes())
        elif isinstance(part, bytes):
            digest.update(part)
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------- runs


def _random_model(n: int, m: int, seed: int) -> dict:
    """A stable random system (spectral radius 0.8) as a config's model mapping."""
    rng = np.random.default_rng([seed, n, m])
    A = rng.standard_normal((n, n))
    A *= 0.8 / np.max(np.abs(np.linalg.eigvals(A)))
    G, H = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    return {
        "A": A.tolist(),
        "C": rng.standard_normal((m, n)).tolist(),
        "Q": (0.01 * (G @ G.T / n + 0.1 * np.eye(n))).tolist(),
        "R": (0.1 * (H @ H.T / m + 0.5 * np.eye(m))).tolist(),
        "Xi0": np.eye(n).tolist(),
    }


def _paper(**overrides) -> dict:
    return ef.paper_scenario(
        **{"steps": 240, "trajectories": 3, "burn_in": 120, "attack_start": 60, **overrides}
    )


def _random(n: int, m: int, mode: str) -> dict:
    return _paper(
        model=_random_model(n, m, 7), sigma=None, solver_dof=m, seed=m, attack_mode=mode
    )


def _three_channel(**overrides) -> dict:
    model = dict(
        ef.paper_scenario()["model"],
        C=harness.PAPER_C + [[0.5, -0.2, 0.1]],
        R=(0.1 * np.eye(3)).tolist(),
    )
    return _paper(model=model, **overrides)


def _poisoned_noise():
    """Trajectory 1's draws carry a nan halfway through."""
    real = harness._noise

    def poisoned(config, traj):
        draws = real(config, traj)
        if traj == 1:
            draws[len(draws) // 2] = np.nan
        return draws

    return mock.patch.object(harness, "_noise", poisoned)


def _indefinite_innovation():
    """Slice 1 of the 50th factorization is negated, so it is not positive definite."""
    real, calls = harness.factor_stack, itertools.count(1)

    def negated(S):
        if next(calls) == 50:
            S = S.copy()
            S[1] = -S[1]
        return real(S)

    return mock.patch.object(harness, "factor_stack", negated)


RUNS = {
    "paper_off": (_paper(attack_mode="off"), contextlib.nullcontext),
    "paper_forward_only": (_paper(attack_mode="forward_only"), contextlib.nullcontext),
    "paper_two_channel": (_paper(), contextlib.nullcontext),
    "paper_partial_firing": (
        _paper(attack_params={"mu": 1.6, "delta_bar": 1.0}),
        contextlib.nullcontext,
    ),
    "random_m1": (_random(3, 1, "two_channel"), contextlib.nullcontext),
    "random_m3_off": (_random(4, 3, "off"), contextlib.nullcontext),
    "random_m3": (_random(4, 3, "two_channel"), contextlib.nullcontext),
    "random_m4_off": (_random(5, 4, "off"), contextlib.nullcontext),
    "random_m4": (_random(5, 4, "two_channel"), contextlib.nullcontext),
    "masked_poisoned_noise": (_paper(), _poisoned_noise),
    "masked_indefinite_m3": (_three_channel(), _indefinite_innovation),
}


def _run_entries(name: str, payload: dict, fault, tmp: Path) -> dict:
    trace = tmp / f"{name}.csv"
    with fault():
        result = ef.run_scenario(ef.config_from_dict(payload), trace_path=trace)
    entries = {f"run/{name}/summary": _hash(json.dumps(result.summary.to_dict()))}
    for item in dataclasses.fields(result):
        if item.name != "summary":
            entries[f"run/{name}/{item.name}"] = _hash(getattr(result, item.name))
    entries[f"run/{name}/trace"] = _hash(trace.read_bytes())
    return entries


# ---------------------------------------------------------------- CLI

COMMANDS = {
    "reproduce-paper --quick": ["reproduce-paper", "--quick"],
    "analyze": ["analyze"],
    "sweep": ["sweep"],
    "solve": [
        "solve", "--beta", "1.4", "--sigma", "11.34", "--upsilon", "0.01",
        "--target-M", "0.99865", "--dof", "3", "--mu", "4",
    ],
}


def _cli_entry(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return _hash(code, out.getvalue())


# ---------------------------------------------------------------- analysis grid

GRID_SEED, GRID_POINTS, GRID_DOF_MAX = 11, 48, 24
GRID_BETA, GRID_UPSILON, GRID_M = 1.4, 0.01, 0.99865


def _grid_models(seed: int, count: int):
    """(model, dof) pairs: the benchmark's grid recipe, balanced over dof 1-24, n 1-6, m 1-4
    and a spectral radius Latin-hypercube sampled on [0.30, 0.95]."""
    rng = np.random.default_rng([seed & (2**63 - 1), 5])
    dofs = rng.permutation(np.resize(np.arange(1, GRID_DOF_MAX + 1), count))
    ns = rng.permutation(np.resize(np.arange(1, 7), count))
    ms = rng.permutation(np.resize(np.arange(1, 5), count))
    rhos = 0.30 + 0.65 * (rng.permutation(count) + rng.uniform(size=count)) / count
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
        yield model, int(dof)


def _grid_outputs(model, dof: int) -> dict:
    """Every output of one point's analysis chain, or the error that ended it."""
    out = {}
    try:
        criteria = ef.SuccessCriteria(M=GRID_M, Upsilon=GRID_UPSILON)
        sigma = ef.design_threshold(GRID_UPSILON, dof, beta=GRID_BETA).sigma
        params = ef.solve_optimal_params(GRID_BETA, sigma, criteria, dof, m=model.m)
        out["solve"] = (sigma, params.mu, params.delta_bar)
        out["feasible_interval"] = ef.feasible_delta_interval(
            1.5 * params.mu, GRID_BETA, sigma, criteria, dof
        )
        steady = ef.riccati_fixed_point(model)
        out["steady"] = (steady.P, steady.K, steady.F, steady.S, steady.L)
        bias = ef.steady_bias(params, steady, model)
        out["bias"] = (bias.value, bias.prior_value)
        out["attacked_fixed_point"] = ef.attacked_covariance_fixed_point(params, steady, model)
        out["open_loop_fixed_point"] = ef.open_loop_fixed_point(model)
        sweep = ef.mu_sweep([1.0, params.mu, 10.0 * params.mu, 1e4], steady, model)
        out["sweep"] = tuple((p.mu, p.trace, p.fixed_point, p.error) for p in sweep)
    except ef.ToolkitError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


GRID_OUTPUTS = (
    "solve", "feasible_interval", "steady", "bias", "attacked_fixed_point",
    "open_loop_fixed_point", "sweep", "error",
)


def _flatten(value):
    """Arrays, numbers and strings of a nested output, in order."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def _grid_entries() -> dict:
    outputs = [_grid_outputs(model, dof) for model, dof in _grid_models(GRID_SEED, GRID_POINTS)]
    return {
        f"grid/{name}": _hash(*_flatten([(index, out.get(name)) for index, out in enumerate(outputs)]))
        for name in GRID_OUTPUTS
    }


# ---------------------------------------------------------------- file


def compute() -> dict:
    """Every digest, recomputed from the code in this checkout."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (payload, fault) in RUNS.items():
            entries.update(_run_entries(name, payload, fault, Path(tmp)))
    entries.update({f"cli/{name}": _cli_entry(argv) for name, argv in COMMANDS.items()})
    entries.update(_grid_entries())
    return entries


def load() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def changed(recorded: dict, current: dict) -> list:
    """Names of the entries added, removed or different, sorted."""
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def main(argv) -> int:
    update = "--update" in argv
    current = compute()
    recorded = load()["digests"] if DIGESTS.exists() else {}
    diff = changed(recorded, current)
    for name in diff:
        status = "removed" if name not in current else "changed" if name in recorded else "added"
        print(f"{status}: {name}")
    if update:
        DIGESTS.parent.mkdir(exist_ok=True)
        with open(DIGESTS, "w", encoding="utf-8", newline="\n") as handle:
            json.dump({"versions": versions(), "digests": current}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(current)} digests ({len(diff)} changed) to {DIGESTS.name}")
        return 0
    print(f"{len(diff)} of {len(current)} digests differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
