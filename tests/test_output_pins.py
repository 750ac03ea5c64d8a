"""Byte pins of every model-reading command on a stationary and a non-stationary model.

The sha256 digests were recorded before the initial law and the loss table
became plain arrays on ``Problem``; any change to a model's arrays, to the
order of a sum or to a writer shows here first.
"""

import hashlib
import json

import numpy as np
import pytest

from dyninfer import problem_to_dict, random_problem
from dyninfer.cli import run


def _write_yield(path):
    assert run(["example", "yield", "--n", "100", "--grid-step", "1", "-o", str(path)]) == 0


def _write_random(path):
    path.write_text(json.dumps(problem_to_dict(random_problem(np.random.default_rng(0), 4, 3, 2, 3), False)))


MODELS = {"yield": _write_yield, "random": _write_random}


def _outputs(tmp_path, name):
    """The bytes of the model document and of every command that reads it, by command."""
    model = tmp_path / f"{name}.json"
    MODELS[name](model)
    outputs = {"model": model.read_bytes()}

    def output(key, argv):
        path = tmp_path / f"{name}-{key}.out"
        assert run([*argv, "-m", str(model), "-o", str(path)]) == 0
        outputs[key] = path.read_bytes()

    output("solve-myopic", ["solve", "--tie-break", "myopic"])
    output("solve-first", ["solve", "--tie-break", "first"])
    strategy = tmp_path / f"{name}-strategy.json"
    strategy.write_text(json.dumps({"policy": json.loads(outputs["solve-myopic"])["policy"]}))
    output("evaluate", ["evaluate", "-s", str(strategy)])
    output("trellis-dot", ["export-trellis", "-f", "dot"])
    output("trellis-text", ["export-trellis", "-f", "text"])
    output("bar-loss", ["export", "bar-loss"])
    return outputs


OUTPUT_SHA256 = {
    "yield": {
        "model": "cb1b9f5e0261ca0baeeeba0825110675921e9b4e826a33da90e77f5e4c48f34a",
        "solve-myopic": "7a677a1c21c60b4578c32c73fb7bf970a00a7265a554bbd7a48a4c0a92e45aea",
        "solve-first": "c53bdd6ed19675702bf5305e01ea3da1ed623e8b4380f35a500532e3a7d64511",
        "evaluate": "9882fdff2eaf5024604d091932aa2d7792f814771668f3ccd716134dccfd3215",
        "trellis-dot": "0a3cd35dce41ca3c07b4887c2b5cc4d600b54ebafc8dcc177f2366d82a673190",
        "trellis-text": "b7bd1899ed1eadfe330cd5942037c7944848a1f76d28ce93f35ad9900fdae90c",
        "bar-loss": "c0a50332c6a30fbafd883ae5cae8a2f65333376790228881b0346d1cc2ab4ca7",
    },
    "random": {
        "model": "5155341f56dfce6ae19c73abe8b0f23d4cf19d533cd751945ca9e110240d8c60",
        "solve-myopic": "389d1eb3dd143162b603eab8242b1a881efe5a616b1dd44a5fe2e12566a0796f",
        "solve-first": "ad5e527b990225614abddb088eec24bd5caeb4931046e3756f396b5b28400e13",
        "evaluate": "1f4eaca97cf08c95d7a6575ab664e8bb02cd93f68d289dd3e9a0bf325229e96f",
        "trellis-dot": "8730936c4bb1398c1cb9616bd0c4d1ac27334aec5d72b0d4dea20845943640fd",
        "trellis-text": "765d0d657011b9ee671e27e9610ddf8a9e0a6e815fecb0013a85e71e46e4653b",
        "bar-loss": "6aedce6550dc3cee5febc4c7fa0c8628090b87bf946fc92f74daec5165436904",
    },
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_model_outputs_are_pinned(tmp_path, name):
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in _outputs(tmp_path, name).items()}
    assert digests == OUTPUT_SHA256[name]


# sha256 of `solve --init ...` on `example stock` (n = 6): a bare label and an object take one path
INIT_SHA256 = {
    "1": "b49d78d53cb9bb646220bd78c2a928b8a938f95a22a526f18a93acc9260273ac",
    '{"0": 0.25, "1": 0.75}': "f4230962af4210da1190184291c3f98ac18f2f8008184d086216e7ff770c4569",
}


@pytest.mark.parametrize("init", sorted(INIT_SHA256))
def test_init_override_outputs_are_pinned(tmp_path, init):
    model, out = tmp_path / "stock.json", tmp_path / "solve.json"
    assert run(["example", "stock", "-o", str(model)]) == 0
    assert run(["solve", "-m", str(model), "--init", init, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INIT_SHA256[init]


def test_init_override_that_is_not_a_distribution_is_one_error_line(tmp_path, capsys):
    model = tmp_path / "stock.json"
    assert run(["example", "stock", "-o", str(model)]) == 0
    assert run(["solve", "-m", str(model), "--init", '{"0": 2.0}']) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err)["error"] == "NotStochastic"
