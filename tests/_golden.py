"""Golden digests: sha256 of the bits a fixed set of runs, commands and analyses produce.

tests/golden/digests.json holds, for each OpenBLAS kernel family, one digest per entry:
- `run/<name>/summary`: the JSON of `summary.to_dict()`;
- `run/<name>/<field>`: every other `RunResult` field but `sums`, as dtype, shape and bytes;
- `run/<name>/sums`: `sums.count` and then every array of `sums`, in field order;
- `run/<name>/<statistic>`: each statistic of `_oracles.diagnostics(result.sums)`;
- `run/<name>/trace`: the bytes of the trace CSV;
- `cli/<command>`: the exit code and stdout of a CLI subcommand (`reproduce-paper`:
  of `cli.report` on `paper_reproduction()`, the runs its acceptance tests read);
- `grid/<output>`: one analysis output over a fixed grid of random stable systems;
- `n12/<output>`, `n16/<output>`: each analysis output of one random stable system
  with n = 12 or 16, past the Kronecker range of the Lyapunov solves.

The bits belong to the numpy and scipy versions the file records, where the test skips
on others, and to the OpenBLAS kernel. The file keeps one digest map per kernel family,
named by a core: FAMILIES maps each core measured to give a family's bits to that family,
and the test checks the map of the family of the core this process runs, or skips and
names a core that belongs to none. A change that alters an entry on purpose rewrites the
map of each family it can run (an AVX-512 host can run both, under OPENBLAS_CORETYPE=Haswell
for the second; an AVX2-only host only Haswell) and says which entries changed and why:

    python tests/_golden.py               # list the entries that differ, exit 1 if any
    python tests/_golden.py --update      # rewrite the running family's map, list what changed
    python tests/_golden.py --write PATH  # write the computed digests to PATH, nothing else

`--write` leaves digests.json alone, so two checkouts run under the same
OPENBLAS_CORETYPE can be compared with `cmp` on their files, on any core.
"""

import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # run as a script: use the checkout's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import scipy

import eventfdi as ef
from eventfdi import cli, harness

from _oracles import diagnostics

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

# OpenBLAS core -> the family whose digest map it checks: the cores of one family gave
# byte-identical --write files, and the two families differ in about half the entries.
# On an Intel host OPENBLAS_CORETYPE=Zen loads the Haswell core, so the "Zen" key is
# unchecked on a core that OpenBLAS itself names Zen.
FAMILIES = {
    "SkylakeX": "SkylakeX", "Cooperlake": "SkylakeX", "Haswell": "Haswell", "Zen": "Haswell",
}


def versions() -> dict:
    """numpy's and scipy's versions, and the core numpy's bundled OpenBLAS picked when it
    loaded (None where numpy bundles no OpenBLAS)."""
    core = None
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": core}


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


def _poisoned_noise(index=None, poisoned_traj=1):
    """poisoned_traj's draw at index, by default the one halfway through, is nan."""
    real = harness._noise

    def poisoned(config, traj):
        draws = real(config, traj)
        if traj == poisoned_traj:
            draws[len(draws) // 2 if index is None else index] = np.nan
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
    "paper_attack_from_0": (_paper(attack_start=0), contextlib.nullcontext),
    "random_m3_forward_only": (_random(4, 3, "forward_only"), contextlib.nullcontext),
    # an attack window of 540 steps over 40 trajectories: several blocks of the attack pass;
    # each trajectory's 600 trace rows cross two harness._TRACE_CHUNK (256-row) boundaries
    "paper_long_window": (_paper(steps=600, trajectories=40), contextlib.nullcontext),
}


def _run_entries(name: str, payload: dict, fault, tmp: Path) -> dict:
    trace = tmp / f"{name}.csv"
    with fault():
        result = ef.run_scenario(ef.config_from_dict(payload), trace_path=trace)
    entries = {f"run/{name}/summary": _hash(json.dumps(result.summary.to_dict()))}
    for item in dataclasses.fields(result):
        if item.name not in ("summary", "sums"):
            entries[f"run/{name}/{item.name}"] = _hash(getattr(result, item.name))
    entries[f"run/{name}/sums"] = _hash(*dataclasses.astuple(result.sums))
    for statistic, value in diagnostics(result.sums).items():
        entries[f"run/{name}/{statistic}"] = _hash(value)
    entries[f"run/{name}/trace"] = _hash(trace.read_bytes())
    return entries


# ---------------------------------------------------------------- CLI

@functools.cache
def paper_reproduction() -> tuple:
    """`cli.reproduce_paper()` at the paper's budget and its wall seconds, computed once
    per process: tests/conftest.py's paper fixtures are views of the same runs."""
    start = time.perf_counter()
    reproduction = cli.reproduce_paper()
    return reproduction, time.perf_counter() - start


COMMANDS = {
    "reproduce-paper --quick": ["reproduce-paper", "--quick"],
    "analyze": ["analyze"],
    "sweep": ["sweep"],
    "solve": [
        "solve", "--beta", "1.4", "--sigma", "11.34", "--upsilon", "0.01",
        "--target-M", "0.99865", "--dof", "3", "--mu", "4",
    ],
}


def _stdout_entry(command) -> str:
    """The digest of command()'s return code and what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = command()
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
        out["bias"] = (bias, model.A @ bias)  # E and A E, the digests' recorded pair
        out["attacked_fixed_point"] = ef.attacked_covariance_fixed_point(params, steady, model)
        out["open_loop_fixed_point"] = ef.open_loop_fixed_point(model)
        sweep = ef.mu_sweep([1.0, params.mu, 10.0 * params.mu, 1e4], steady, model)
        # None holds the slot of a removed error field, so the recorded digests stand
        out["sweep"] = tuple((p.mu, p.trace, p.fixed_point, None) for p in sweep)
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


LARGE_N = (12, 16)  # the Lyapunov solves are Smith's doubling from n = 10 on


def _large_entries() -> dict:
    """Every analysis output of a random stable system with m = 3 and solver_dof 3 at
    each n of LARGE_N, one entry per output."""
    entries = {}
    for n in LARGE_N:
        out = _grid_outputs(ef.SystemModel(**_random_model(n, 3, 7)), 3)
        entries.update({f"n{n}/{name}": _hash(*_flatten(out.get(name))) for name in GRID_OUTPUTS})
    return entries


# ---------------------------------------------------------------- file


def compute() -> dict:
    """Every digest, recomputed from the code in this checkout."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (payload, fault) in RUNS.items():
            entries.update(_run_entries(name, payload, fault, Path(tmp)))
    for name, argv in COMMANDS.items():
        entries[f"cli/{name}"] = _stdout_entry(lambda: cli.main(list(argv)))
    # what `reproduce-paper` prints, from the runs the acceptance tests read
    entries["cli/reproduce-paper"] = _stdout_entry(lambda: cli.report(paper_reproduction()[0]))
    entries.update(_grid_entries())
    entries.update(_large_entries())
    return entries


def load() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def _dump(content: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(content, handle, indent=1, sort_keys=True)
        handle.write("\n")


def changed(recorded: dict, current: dict) -> list:
    """Names of the entries added, removed or different, sorted."""
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def main(argv) -> int:
    if "--write" in argv:
        _dump(compute(), argv[argv.index("--write") + 1])
        return 0
    here = versions()
    family = FAMILIES.get(here["openblas"])
    if family is None:
        print(f"the OpenBLAS core {here['openblas']} belongs to no family of FAMILIES: "
              "no digests to compare or update (--write still works)")
        return 1
    pinned = {"numpy": here["numpy"], "scipy": here["scipy"]}
    stored = load() if DIGESTS.exists() else {"versions": pinned, "digests": {}}
    recorded, current = stored["digests"].get(family, {}), compute()
    diff = changed(recorded, current)
    for name in diff:
        status = "removed" if name not in current else "changed" if name in recorded else "added"
        print(f"{status}: {name}")
    if "--update" in argv:
        # the other families' maps stay only while they belong to these versions
        kept = stored["digests"] if stored["versions"] == pinned else {}
        DIGESTS.parent.mkdir(exist_ok=True)
        _dump({"versions": pinned, "digests": {**kept, family: current}}, DIGESTS)
        print(f"wrote {len(current)} {family} digests ({len(diff)} changed) to {DIGESTS.name}")
        return 0
    print(f"{len(diff)} of {len(current)} {family} digests differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
