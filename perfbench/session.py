"""Worker process of the benchmark: one set-up probe, or one segment of CLI rounds.

    python3 perfbench/session.py setup [MODEL]
    python3 perfbench/session.py segment SPEC REPORT

``setup`` imports ``dyninfer.cli`` and, given a model file, reads, parses
and validates it, then prints ``time.perf_counter()``; that clock is
CLOCK_MONOTONIC, shared by all processes, so the parent takes the set-up time
from its own clock reading before the spawn.

``segment`` runs rounds of the commands listed in the SPEC JSON file through
``dyninfer.cli.run`` in this process, each round running every command once,
until the next round would end past the spec's ``deadline`` (a
``perf_counter`` reading; at least one round runs). After each command, and
outside its timed section, it hashes the command's output file and keeps the
first copy of every distinct output under the spec's ``keep`` directory, so
the parent can check every output of every round. After each round it times
the host-speed probe of ``reference.py``. The REPORT JSON file gets the time,
exit status and output digest of every command of every round, each round's
probe time and the process's peak resident memory; when the spec asks for
tracing, also a per-round summary of the spans and the spans of the first
round.
``dyninfer`` must be importable (the parent puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def setup(model: str | None) -> float:
    """Import the CLI, load ``model`` if given; returns the clock when done."""
    import dyninfer.cli  # noqa: F401  (the import is part of what set-up measures)
    from dyninfer.model import validate_problem

    if model is not None:
        validate_problem(json.loads(Path(model).read_text(encoding="utf-8")))
    return perf_counter()


def _run_command(cli, tracer, command: dict) -> tuple[float, int]:
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            code = cli.run(command["argv"])
        else:
            with tracer.span("cli.run", command=command["name"]):
                code = cli.run(command["argv"])
    except Exception:  # a crash fails this command; the round goes on
        traceback.print_exc()
        code = -1
    return perf_counter() - start, code


def _keep_output(command: dict, keep: Path) -> str | None:
    """Digest of the command's output file; the first copy of each distinct output is kept."""
    output = Path(command["output"])
    if not output.is_file():
        return None
    data = output.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    kept = keep / f"{command['name']}.{digest}"
    if not kept.exists():
        kept.write_bytes(data)
    return digest


def run_segment(spec: dict) -> dict:
    from dyninfer import cli
    from reference import probe

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    keep = Path(spec["keep"])
    rounds, first_spans = [], None
    while True:
        began = perf_counter()
        for command in spec["commands"]:
            Path(command["output"]).unlink(missing_ok=True)
        commands = []
        for command in spec["commands"]:
            seconds, code = _run_command(cli, tracer, command)
            digest = _keep_output(command, keep)
            commands.append({"name": command["name"], "seconds": seconds, "exit": code, "digest": digest})
        entry = {"commands": commands, "ref_s": probe()}
        if tracer is not None:
            entry["summary"] = summarize(tracer.spans)
            if first_spans is None:
                first_spans = tracer.spans
            tracer.spans = []
        rounds.append(entry)
        now = perf_counter()
        if now + (now - began) > spec["deadline"]:
            break
    report = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = first_spans
    return report


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) <= 2:
        print(repr(setup(argv[1] if len(argv) == 2 else None)))
        return 0
    if argv[:1] == ["segment"] and len(argv) == 3:
        spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        Path(argv[2]).write_text(json.dumps(run_segment(spec)), encoding="utf-8")
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
