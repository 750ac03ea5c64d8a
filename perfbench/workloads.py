"""The benchmark's workloads: seeded inputs, the CLI commands of one pass, and output checks.

Each workload writes its input files with the public API (``problem_to_dict``)
or with ``dyninfer example``; the commands under test only ever see those
files. Every command writes its output to a file, and every output is
checked after the pass: against the sha256 digest recorded in
``digests.json`` and against the workload's own consistency rule.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Seeds select one of this many input variants (seed % VARIANTS), so that
# every output the benchmark can produce has a digest in digests.json.
VARIANTS = 32

# Largest strategy space the sweep admits; every (n <= 3, binary) instance fits.
VERIFY_LIMIT = 2**50

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

SIZES = {
    "full": {
        "nonstationary_json": {"n": 10, "nx": 20, "ny": 5, "nyhat": 12},
        "stationary_yield": {"n": 100, "grid_step": "1"},
        "simulate_yield": {"n": 50, "rollouts": 20_000},
        "verify_sweep": {"instances": 1000},
    },
    "smoke": {
        "nonstationary_json": {"n": 4, "nx": 4, "ny": 3, "nyhat": 3},
        "stationary_yield": {"n": 6, "grid_step": "2"},
        "simulate_yield": {"n": 5, "rollouts": 2000},
        "verify_sweep": {"instances": 20},
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; ``output`` is its file name in the work dir."""

    name: str
    argv: tuple[str, ...]
    output: str


@dataclass
class Prepared:
    """A workload's generated inputs and the commands one pass runs on them."""

    workload: str
    variant: int
    commands: list[Command]
    shape: dict
    exact_j: float | None = None
    items: dict = field(default_factory=dict)  # work units per pass, e.g. rollouts
    scale: str = "full"


def kernel_bytes(n: int, nx: int, ny: int, nyhat: int) -> int:
    """float64 bytes of a validated model's init, transition, quantity and loss tables."""
    return 8 * (nx + (n - 1) * nx * nyhat * nx + n * nx * ny + nx * ny * nyhat)


def _run_cli(cli, argv: list[str]) -> None:
    code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"preparing inputs: dyninfer {' '.join(argv)} exited with {code}")


def _model_shape(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    n, nx = doc["n"], len(doc["x_space"])
    ny, nyhat = len(doc["y_space"]), len(doc["yhat_space"])
    return {
        "n": n,
        "x": nx,
        "y": ny,
        "yhat": nyhat,
        "json_bytes": path.stat().st_size,
        "kernel_bytes": kernel_bytes(n, nx, ny, nyhat),
    }


def _solve_evaluate(model: Path, work: Path) -> list[Command]:
    solve = work / "solve.json"
    return [
        Command("solve", ("solve", "-m", str(model), "-o", str(solve)), "solve.json"),
        Command(
            "evaluate",
            ("evaluate", "-m", str(model), "-s", str(solve), "-o", str(work / "evaluate.json")),
            "evaluate.json",
        ),
    ]


def _yield_model(cli, work: Path, n: int, *extra: str) -> Path:
    model = work / "model.json"
    _run_cli(cli, ["example", "yield", "--n", str(n), *extra, "-o", str(model)])
    return model


def prepare_nonstationary_json(cli, work: Path, variant: int, size: dict) -> Prepared:
    import numpy as np
    from dyninfer.model import problem_to_dict
    from dyninfer.oracle import random_problem

    problem = random_problem(
        np.random.default_rng(variant), size["n"], size["nx"], size["ny"], size["nyhat"]
    )
    model = work / "model.json"
    model.write_text(json.dumps(problem_to_dict(problem, stationary=False)), encoding="utf-8")
    return Prepared("nonstationary_json", variant, _solve_evaluate(model, work), _model_shape(model))


def prepare_stationary_yield(cli, work: Path, variant: int, size: dict) -> Prepared:
    model = _yield_model(cli, work, size["n"], "--grid-step", size["grid_step"])
    commands = _solve_evaluate(model, work)
    commands.append(
        Command(
            "export-trellis",
            ("export-trellis", "-m", str(model), "-f", "dot", "-o", str(work / "trellis.dot")),
            "trellis.dot",
        )
    )
    return Prepared("stationary_yield", variant, commands, _model_shape(model))


def prepare_simulate_yield(cli, work: Path, variant: int, size: dict) -> Prepared:
    model = _yield_model(cli, work, size["n"])
    policy = work / "policy.json"
    exact = work / "exact.json"
    # the policy and its exact loss are inputs of the check, computed outside the timed pass
    _run_cli(cli, ["solve", "-m", str(model), "-o", str(policy)])
    _run_cli(cli, ["evaluate", "-m", str(model), "-s", str(policy), "-o", str(exact)])
    rollouts = size["rollouts"]
    command = Command(
        "simulate",
        (
            "simulate", "-m", str(model), "-s", str(policy), "--rollouts", str(rollouts),
            "--seed", str(variant), "-o", str(work / "simulate.json"),
        ),
        "simulate.json",
    )
    return Prepared(
        "simulate_yield", variant, [command], _model_shape(model),
        exact_j=json.loads(exact.read_text(encoding="utf-8"))["j"],
        items={"rollouts": rollouts},
    )


def prepare_verify_sweep(cli, work: Path, variant: int, size: dict) -> Prepared:
    instances = size["instances"]
    commands = [
        Command(
            f"verify-{mode}",
            (
                "verify", "--instances", str(instances), "--limit", str(VERIFY_LIMIT),
                "--seed", str(variant), "--mode", mode, "-o", str(work / f"verify-{mode}.txt"),
            ),
            f"verify-{mode}.txt",
        )
        for mode in ("revealed", "unrevealed")
    ]
    # instances come from random_problem in-process: binary alphabets, n drawn from 1..3
    shape = {"n": "1..3", "x": 2, "y": 2, "yhat": 2, "json_bytes": 0, "kernel_bytes": 0}
    return Prepared(
        "verify_sweep", variant, commands, shape, items={"instances": instances * len(commands)}
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    prepare: Callable[..., Prepared]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nonstationary_json",
            "1.3 MB random non-stationary model (10,20,5,12): JSON parsing and validate_problem dominate solve and evaluate",
            True,
            prepare_nonstationary_json,
        ),
        Workload(
            "stationary_yield",
            "28 KB stationary yield model (100,21,2,2) expanded to 100 rounds: long horizon, sparse kernels, the only trellis export",
            False,
            prepare_stationary_yield,
        ),
        Workload(
            "simulate_yield",
            "20000 rollouts of the solved yield policy (50,11,2,2): rng and simulate dominate, validation and solving are negligible",
            True,
            prepare_simulate_yield,
        ),
        Workload(
            "verify_sweep",
            "1000 tiny random instances per history mode: oracle brute force plus one solve per instance, no JSON input",
            True,
            prepare_verify_sweep,
        ),
    )
}


def prepare(cli, name: str, scale: str, seed: int, work: Path) -> Prepared:
    """Write the workload's inputs for ``seed`` into ``work`` and return its commands."""
    workload = WORKLOADS[name]
    variant = seed % VARIANTS if workload.seeded else 0
    prepared = workload.prepare(cli, work, variant, SIZES[scale][name])
    prepared.scale = scale
    return prepared


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_pass(
    prepared: Prepared, outputs: dict[str, bytes | None], exits: dict[str, int], digests: dict
) -> dict[str, str]:
    """Failure reason for every failed command of one pass (empty when all pass).

    ``outputs`` maps command names to the bytes each wrote (None if missing),
    ``exits`` to exit statuses, ``digests`` is the parsed digests.json.
    """
    recorded = digests.get(prepared.scale, {}).get(prepared.workload, {}).get(str(prepared.variant), {})
    failures: dict[str, str] = {}
    for command in prepared.commands:
        data = outputs.get(command.name)
        if exits.get(command.name) != 0:
            failures[command.name] = f"exit status {exits.get(command.name)}"
        elif data is None:
            failures[command.name] = "no output written"
        elif command.name not in recorded:
            failures[command.name] = "no recorded digest for this input"
        elif sha256(data) != recorded[command.name]:
            failures[command.name] = "output differs from the recorded digest"
    for name, reason in _semantic_failures(prepared, outputs).items():
        failures.setdefault(name, reason)
    return failures


def _semantic_failures(prepared: Prepared, outputs: dict[str, bytes | None]) -> dict[str, str]:
    names = [c.name for c in prepared.commands]
    try:
        if "evaluate" in names and outputs.get("solve") and outputs.get("evaluate"):
            min_loss = json.loads(outputs["solve"])["min_loss"]
            j = json.loads(outputs["evaluate"])["j"]
            if not abs(min_loss - j) <= 1e-9:
                return {"evaluate": f"solve min_loss {min_loss!r} != evaluate j {j!r}"}
        if "simulate" in names and outputs.get("simulate"):
            doc = json.loads(outputs["simulate"])
            sigma = math.sqrt(doc["var"] / doc["rollouts"])
            if not abs(doc["mean"] - prepared.exact_j) <= 4 * sigma:
                return {"simulate": f"mean {doc['mean']!r} is not within 4 sigma of j {prepared.exact_j!r}"}
        for name in names:
            if name.startswith("verify") and outputs.get(name):
                last = outputs[name].decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
                if not last.startswith("PASS "):
                    return {name: f"verify ended with {last!r}"}
    except (ValueError, KeyError, TypeError) as exc:
        return {names[-1]: f"unreadable output: {exc!r}"}
    return {}
