"""dyninfer benchmark: drive the CLI on one seeded workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The run writes the workload's inputs, then splits
``--seconds`` into ``SEGMENTS`` equal slices. Each slice is one worker process
that runs rounds of the workload's commands (every command once per round)
until its slice ends; in an untraced run a fresh-interpreter set-up probe
precedes each worker. Every output of every round is checked. A command's time
is the median of its checked runs, each scaled to reference host speed with
the probe of ``reference.py`` timed after the run's round; a set-up time is
scaled with the probe timed around it.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count CLI commands, and ``metrics`` holds the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``),
each with its unit. The line before it describes the input and the sample
counts, medians and 90th percentiles of the command times. A traced run
alternates untraced and traced workers and writes the spans of each traced
worker's first round to ``perfbench/.work/traces/``. See perfbench/README.md
for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import workloads
from reference import REFERENCE_S, probe
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SESSION = HERE / "session.py"
WORK_ROOT = HERE / ".work"

SEGMENTS = 6
SEGMENT_TIMEOUT_S = 150
# per-layer counts derived from shapes or exact counts, identical on every run
COMPUTED = ("model.kernel_bytes", "solver.madds", "rng.draws", "rng.bytes", "oracle.histories",
            "trellis.nodes", "trellis.edges", "cli.output_bytes")
# past this many seconds no further segment starts, so that a run of a much
# slower program still ends within three minutes
RUN_LIMIT_S = 100


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_setup(model: str | None) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported the CLI
    and loaded ``model``, read from the clock the child prints (waiting on a
    child with a timeout polls in steps of up to 50 ms), and the mean of the
    host-speed probes timed just before and after."""
    argv = [sys.executable, str(SESSION), "setup", *([model] if model else [])]
    before = probe()
    start = perf_counter()
    child = subprocess.run(
        argv, env=_env(), stdout=subprocess.PIPE, text=True, timeout=SEGMENT_TIMEOUT_S, check=True
    )
    seconds = float(child.stdout.split()[-1]) - start
    return seconds, (before + probe()) / 2


def run_segment(prepared: workloads.Prepared, work: Path, trace: bool, deadline: float, digests: dict) -> dict:
    """One worker process running rounds of the workload's commands until
    ``deadline`` (a ``perf_counter`` reading), with every output of every
    round checked; a worker that dies counts as one round in which every
    command failed."""
    keep = work / "keep"
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    spec = work / "spec.json"
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    commands = [{"name": c.name, "argv": list(c.argv), "output": str(work / c.output)} for c in prepared.commands]
    spec.write_text(
        json.dumps({"trace": trace, "deadline": deadline, "keep": str(keep), "commands": commands}),
        encoding="utf-8",
    )
    try:
        worker = subprocess.run(
            [sys.executable, str(SESSION), "segment", str(spec), str(report_path)],
            env=_env(),
            stdout=subprocess.DEVNULL,
            timeout=SEGMENT_TIMEOUT_S,
        )
        ok = worker.returncode == 0 and report_path.is_file()
    except subprocess.TimeoutExpired:
        ok = False
    if ok:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    else:
        dead = [{"name": c.name, "seconds": None, "exit": None, "digest": None} for c in prepared.commands]
        report = {"rounds": [{"commands": dead, "ref_s": None}], "peak_rss_mb": None}
    kept = {tuple(path.name.split(".", 1)): path.read_bytes() for path in keep.iterdir()}
    checked: dict[tuple, dict] = {}
    for entry in report["rounds"]:
        key = tuple((c["name"], c["exit"], c["digest"]) for c in entry["commands"])
        if key not in checked:
            outputs = {c["name"]: kept.get((c["name"], c["digest"])) for c in entry["commands"]}
            exits = {c["name"]: c["exit"] for c in entry["commands"]}
            checked[key] = workloads.check_pass(prepared, outputs, exits, digests)
        entry["failures"] = checked[key]
        entry["output_bytes"] = sum(
            len(kept[c["name"], c["digest"]]) for c in entry["commands"] if (c["name"], c["digest"]) in kept
        )
    report["traced"] = trace
    return report


def command_times(segments: list[dict], scaled: bool = True) -> dict[str, list[float]]:
    """Seconds of every run of each command that passed its checks, scaled to
    reference host speed unless ``scaled`` is false."""
    times: dict[str, list[float]] = {}
    for segment in segments:
        for entry in segment["rounds"]:
            for command in entry["commands"]:
                if command["name"] not in entry["failures"]:
                    scale = REFERENCE_S / entry["ref_s"] if scaled else 1.0
                    times.setdefault(command["name"], []).append(command["seconds"] * scale)
    return times


def probe_times(segments: list[dict]) -> list[float]:
    return [entry["ref_s"] for segment in segments for entry in segment["rounds"] if entry["ref_s"]] or [0.0]


def _medians(times: dict[str, list[float]]) -> dict[str, float]:
    return {name: median(values) for name, values in times.items()}


def _p90(values: list[float]) -> float:
    return quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end_metrics(
    segments: list[dict], setups: list[tuple[float, float]], attempted: int, failed: int
) -> dict:
    rss = [s["peak_rss_mb"] for s in segments if s["peak_rss_mb"] is not None]
    return {
        "setup_s": {"value": median(seconds * REFERENCE_S / ref for seconds, ref in setups), "unit": "s"},
        "session_s": {"value": sum(_medians(command_times(segments)).values()), "unit": "s"},
        "peak_rss_mb": {"value": median(rss) if rss else 0.0, "unit": "MB"},
        "ops_ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
    }


def layer_metrics(prepared: workloads.Prepared, segments: list[dict], prepare_spans: list[dict]) -> dict:
    plain = [s for s in segments if not s["traced"]]
    traced = [s for s in segments if s["traced"]]
    per_round = [
        (entry["summary"], REFERENCE_S / entry["ref_s"]) for s in traced for entry in s["rounds"] if entry["ref_s"]
    ]

    def values(span: str, key: str) -> list[float]:
        scaled = key in ("total_s", "self_s")
        return [
            summary.get(span, {}).get(key, 0) * (scale if scaled else 1) for summary, scale in per_round
        ] or [0.0]

    def med(span: str, key: str = "total_s") -> float:
        return median(values(span, key))

    # measured in the first traced round of each worker only (see tracing.MEMORY_SPANS)
    simulate_peaks = [
        summary["evaluate.simulate"]["peak_mb"]
        for summary, _ in per_round
        if "peak_mb" in summary.get("evaluate.simulate", {})
    ] or [0.0]

    commands = len(prepared.commands)
    plain_times = command_times(plain)
    plain_med = _medians(plain_times)
    traced_med = _medians(command_times(traced))
    session_plain = sum(plain_med.values())
    verify_s = sum(t for name, t in plain_med.items() if name.startswith("verify"))
    values_ = {
        "model.validate_s": (med("model.validate_problem"), "s"),
        "model.kernel_bytes": (prepared.shape["kernel_bytes"], "bytes"),
        "cli.self_s": (med("cli.run", "self_s"), "s"),
        "cli.output_bytes": (median(e["output_bytes"] for s in segments for e in s["rounds"]), "bytes"),
        "reduction.bar_loss_s": (med("reduction.bar_loss_table"), "s"),
        "reduction.bar_loss_calls": (med("reduction.bar_loss_table", "calls"), "count"),
        "reduction.bar_loss_calls_per_cmd": (med("reduction.bar_loss_table", "calls") / commands, "calls/cmd"),
        "reduction.myopic_s": (med("reduction.myopic"), "s"),
        "reduction.myopic_calls": (med("reduction.myopic", "calls"), "count"),
        "reduction.myopic_calls_per_cmd": (med("reduction.myopic", "calls") / commands, "calls/cmd"),
        "solver.self_s": (med("solver.solve", "self_s"), "s"),
        "solver.calls": (med("solver.solve", "calls"), "count"),
        "solver.madds": (med("solver.solve", "madds"), "count"),
        "solver.ties": (med("solver.solve", "ties"), "count"),
        "evaluate.evaluate_markov_s": (med("evaluate.evaluate_markov"), "s"),
        "evaluate.simulate_self_s": (med("evaluate.simulate", "self_s"), "s"),
        "evaluate.simulate_peak_mb": (median(simulate_peaks), "MB"),
        "rng.uniform_matrix_s": (med("rng.uniform_matrix"), "s"),
        "rng.draws": (med("rng.uniform_matrix", "draws"), "count"),
        "rng.bytes": (8 * med("rng.uniform_matrix", "draws"), "bytes"),
        "oracle.brute_force_self_s": (med("oracle.brute_force_optimum", "self_s"), "s"),
        "oracle.lemma1_s": (med("oracle.verify_lemma1"), "s"),
        "oracle.random_problem_s": (med("oracle.random_problem"), "s"),
        "oracle.histories": (med("oracle.brute_force_optimum", "histories"), "count"),
        "trellis.build_s": (med("trellis.build_trellis"), "s"),
        "trellis.nodes": (med("trellis.build_trellis", "nodes"), "count"),
        "trellis.edges": (med("trellis.build_trellis", "edges"), "count"),
        "examples.build_s": (summarize(prepare_spans).get("examples.example_yield", {}).get("total_s", 0.0), "s"),
        "trace.overhead_frac": (
            sum(traced_med.values()) / session_plain - 1 if traced_med and session_plain else 0.0,
            "fraction",
        ),
        "cmd.solve_s": (plain_med.get("solve", 0.0), "s"),
        "cmd.evaluate_s": (plain_med.get("evaluate", 0.0), "s"),
        "cmd.export_trellis_s": (plain_med.get("export-trellis", 0.0), "s"),
        "cmd.simulate_rollouts_per_s": (
            prepared.items["rollouts"] / plain_med["simulate"] if "simulate" in plain_med else 0.0,
            "1/s",
        ),
        "cmd.verify_instances_per_s": (
            prepared.items["instances"] / verify_s if verify_s else 0.0,
            "1/s",
        ),
        "cmd.session_p90_s": (sum(_p90(v) for v in plain_times.values()), "s"),
        "cmd.session_raw_s": (sum(median(v) for v in command_times(plain, scaled=False).values()), "s"),
        "host.ref_probe_s": (median(probe_times(segments)), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values_.items()}


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str, work: Path) -> tuple[dict, dict]:
    """Run one workload; returns (description of the run, result object)."""
    from dyninfer import cli

    digests = workloads.load_digests()
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        prepared = workloads.prepare(cli, name, scale, seed, work)
    finally:
        tracer.uninstall()
    model = work / "model.json"
    model_arg = str(model) if model.is_file() else None
    start = perf_counter()
    segments, setups = [], []
    for k in range(SEGMENTS):
        if k >= (2 if trace else 1) and perf_counter() - start > RUN_LIMIT_S:
            break
        if not trace:
            setups.append(time_setup(model_arg))
        deadline = start + seconds * (k + 1) / SEGMENTS
        segments.append(run_segment(prepared, work, trace and k % 2 == 1, deadline, digests))

    rounds = [entry for segment in segments for entry in segment["rounds"]]
    attempted = len(rounds) * len(prepared.commands)
    failures = [(i, cmd, why) for i, entry in enumerate(rounds) for cmd, why in sorted(entry["failures"].items())]
    if trace:
        metrics = layer_metrics(prepared, segments, tracer.spans)
        trace_file = WORK_ROOT / "traces" / f"{name}-seed{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(
            json.dumps({"prepare": tracer.spans, "segments": [s["spans"] for s in segments if s.get("spans")]}),
            encoding="utf-8",
        )
    else:
        metrics = end_to_end_metrics(segments, setups, attempted, len(failures))
    plain = [s for s in segments if not s["traced"]]
    times = command_times(plain)
    info = {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "scale": scale,
        "seed": seed,
        "variant": prepared.variant,
        "input": prepared.shape,
        "segments": len(segments),
        "rounds": len(rounds),
        "untraced_scaled_seconds": {
            command: {"samples": len(v), "min": min(v), "median": median(v), "p90": _p90(v)}
            for command, v in times.items()
        },
        "untraced_raw_median_seconds": {command: median(v) for command, v in command_times(plain, scaled=False).items()},
        "probe_seconds_median": median(probe_times(segments)),
        "setup_raw_seconds_and_probe": setups,
        "failures": [f"round {i} {cmd}: {why}" for i, cmd, why in failures],
    }
    if trace:
        info["computed"] = list(COMPUTED)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    return info, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'smoke' is the tiny set the smoke test uses")
    args = parser.parse_args(argv)

    if not (SRC / "dyninfer" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no dyninfer sources under {SRC}; run inside a dyninfer checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in info["failures"]:
        sys.stderr.write(f"perfbench: {line}\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
