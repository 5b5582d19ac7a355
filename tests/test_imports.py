"""Import graph: the worst-case path stays free of the sampling stack and of OpenSSL, simulate of the synthesis loop,
and nothing loads scipy."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tolchain
from conftest import ACTUATOR_DOC
from tolchain import model, montecarlo, synthesis, worstcase

# Runs one CLI call in a fresh interpreter and prints which of numpy, scipy,
# OpenSSL's hashlib backend, the synthesis module and the thread pool the call
# loaded. Modules loaded before the call, say by a site hook, do not count.
_PROBE = """
import sys; before = set(sys.modules)
import json
from tolchain.cli import main
code = main(sys.argv[1:])
added = set(sys.modules) - before
watched = ("numpy", "scipy", "_hashlib", "tolchain.synthesis", "concurrent.futures")
print(json.dumps({"code": code, "loaded": [m for m in watched if m in added]}))
"""


def _run(script, argv=()):
    src = str(Path(tolchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analyze"], []),
        (["verify"], []),
        (["solve", "--unknown", "a1"], []),
        # numpy.random loads OpenSSL through secrets and hmac; the sampler's own
        # inverse normal CDF needs no scipy.
        (["simulate", "--samples", "100"], ["numpy", "_hashlib"]),
        (
            ["synthesize", "--samples", "1000", "--target-scrap", "0.05"],
            ["numpy", "_hashlib", "tolchain.synthesis", "concurrent.futures"],
        ),
    ],
    ids=["analyze", "verify", "solve", "simulate", "synthesize"],
)
def test_only_sampling_commands_load_numpy_and_openssl(actuator_file, tmp_path, argv, loaded):
    result = _run(_PROBE, [*argv, "--chain", str(actuator_file), "--output", str(tmp_path / "r.json")])
    assert result == {"code": 0, "loaded": loaded}


def test_repeated_samples_column_is_refused_before_numpy_loads(tmp_path):
    doc = {**ACTUATOR_DOC, "dimensions": [{**ACTUATOR_DOC["dimensions"][0], "name": "index"},
                                          *ACTUATOR_DOC["dimensions"][1:]]}
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(doc), encoding="utf-8")
    result = _run(_PROBE, ["simulate", "--chain", str(chain), "--output", str(tmp_path / "r.json")])
    assert result == {"code": 2, "loaded": []}


def test_chain_hash_falls_back_to_hashlib(actuator_file, tmp_path):
    # An interpreter built without CPython's own SHA-256 modules.
    script = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from tolchain.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "openssl": "_hashlib" in sys.modules}))
"""
    report = tmp_path / "r.json"
    result = _run(script, ["analyze", "--chain", str(actuator_file), "--output", str(report)])
    assert result == {"code": 0, "openssl": True}
    expected = hashlib.sha256(actuator_file.read_bytes()).hexdigest()
    assert json.loads(report.read_text())["chain_sha256"] == expected


def test_sampler_loads_no_scipy():
    script = "import json, sys\nimport tolchain.montecarlo, tolchain.synthesis\nprint(json.dumps(sorted(sys.modules)))"
    loaded = set(_run(script))
    assert "numpy" in loaded and "scipy" not in loaded


def test_respecify_and_worst_case_load_no_sampling_stack():
    script = "import json, sys\nfrom tolchain import respecify, worst_case\nprint(json.dumps(sorted(sys.modules)))"
    assert not {"numpy", "scipy"} & set(_run(script))


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
