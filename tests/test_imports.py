"""Import graph: the worst-case path stays free of the sampling stack."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tolchain
from tolchain import model, montecarlo, synthesis, worstcase

# Runs one CLI call in a fresh interpreter and prints which of numpy and
# scipy it loaded.
_PROBE = """
import json, sys
from tolchain.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in ("numpy", "scipy") if m in sys.modules]}))
"""


def _probe(argv):
    src = str(Path(tolchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analyze"], []),
        (["verify"], []),
        (["solve", "--unknown", "a1"], []),
        (["simulate", "--samples", "100"], ["numpy", "scipy"]),
    ],
    ids=["analyze", "verify", "solve", "simulate"],
)
def test_only_sampling_commands_load_numpy_and_scipy(actuator_file, tmp_path, argv, loaded):
    result = _probe([*argv, "--chain", str(actuator_file), "--output", str(tmp_path / "r.json")])
    assert result == {"code": 0, "loaded": loaded}


def test_public_names_come_from_the_submodules():
    expected = {"__version__"}
    for module in (model, worstcase, montecarlo, synthesis):
        expected.update(module.__all__)
    assert sorted(tolchain.__all__) == sorted(expected)
    for name in tolchain.__all__:
        getattr(tolchain, name)
    assert expected <= set(dir(tolchain))
    namespace = {}
    exec("from tolchain import *", namespace)
    assert expected <= set(namespace)
