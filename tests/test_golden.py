"""Golden byte contract: the same command writes the same bytes.

Each case runs ``tolchain.cli.main`` on the actuator fixture and pins the
SHA-256 of everything the call writes: stdout (``-``) and each output file.
The calls run with the working directory in ``tmp_path`` and a relative
``--chain``, so the report's ``chain_file`` is the same on every machine.
A refactor must leave every hash unchanged; a change that means to alter the
bytes re-pins them and says why. The same hashes must hold whichever dispatch
target numpy picks for this CPU.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

import tolchain
from tolchain import DimensionSpec, SigmaRule, ToleranceChain, sample_chain
from tolchain.cli import main

CHAIN = ["--chain", "actuator.json"]
EXPORT = ["simulate", *CHAIN, "--samples", "70000", "--seed", "7", "--bins", "20", "--output", "r.json"]

# The report and the two exports written next to it.
EXPORT_HASHES = {
    "r.json": "79d0544ef72dcdeace33acb5ad8d3bb528d29b8a8c94ef1f14269fe48d7084dd",
    "r.samples.csv": "2c18d6b5a758391e6df33fe463c35eaa59e889a9c6272053dd351dfb831b7eb2",
    "r.hist.csv": "e1073209c393951f02ad811bcd10e2acaf86f75144fabf2937ce12f285e80074",
}

CASES = {
    "analyze-json": (
        ["analyze", *CHAIN],
        {"-": "daf87a76508c3728fec551bc09f26a288a6e1aed93a3162a08d612fc30436426"},
    ),
    "analyze-csv": (
        ["analyze", *CHAIN, "--format", "csv"],
        {"-": "2842e1726e01df488d4dcf113a25c616eba4b869829f9408024335be41a8fd52"},
    ),
    "verify-json": (
        ["verify", *CHAIN],
        {"-": "3b365553f1cb2042771ae16b0d80969d426d04439f3ae9ea2b2bc3cb307f464b"},
    ),
    "verify-csv": (
        ["verify", *CHAIN, "--format", "csv"],
        {"-": "df6a9f813dff3bcd3257b625731ca1f702e891135d05d3ff95bb8504e2e421b3"},
    ),
    # a3's limits 4.200000000000004 and 3.7999999999999985: one double further
    # on either side no longer conforms.
    "solve-json": (
        ["solve", *CHAIN, "--unknown", "a3"],
        {"-": "a33ceca6d9b7292844db5e2724168a23c10e0bce2c698920c3ddb4efcfabf4e1"},
    ),
    "solve-csv": (
        ["solve", *CHAIN, "--unknown", "a3", "--format", "csv"],
        {"-": "ec472accea5e55ca53734277094097bbc7ee140ef4c0d07c1762623bf02fe162"},
    ),
    "simulate-stdout": (
        ["simulate", *CHAIN],
        {"-": "034f766b8fee787947bf44dd423d8f6a16c144b59aa300df1202672263e7ab7e"},
    ),
    "simulate-output-w1": ([*EXPORT, "--workers", "1"], EXPORT_HASHES),
    "simulate-output-w2": ([*EXPORT, "--workers", "2"], EXPORT_HASHES),
    # n not a multiple of 4, across several transform and export row blocks,
    # at a worker count that does not divide n.
    "simulate-output-odd-w3": (
        ["simulate", *CHAIN, "--samples", "65541", "--seed", "7", "--workers", "3", "--output", "r.json"],
        {
            "r.json": "e5771245741e59e192ccbce2f3d9ed1f651a06f76080100c2c8d3bef2721ffe1",
            "r.samples.csv": "943ddc9d1a7cbbafd436086178ef598c5b1c3e1895cff84cf5d82df72ab00816",
            "r.hist.csv": "622f5eac5c3dbe4b8b7a17399c46c182ac49d3fbfcfe8249c22b7fb7c1caf28e",
        },
    ),
    # The samples export ends exactly on a block boundary.
    "simulate-output-block-end": (
        ["simulate", *CHAIN, "--samples", "8192", "--seed", "7", "--workers", "1", "--output", "r.json"],
        {
            "r.json": "33b8b6cd3bb3df3c7a096d9a4b21d4fe64891f22d455dd880dca1f6bc440d9ff",
            "r.samples.csv": "c993019fdb4fc9a51ab4b4a01d8a305c33c63f29c9b2f898793d7fe1aaad60e4",
            "r.hist.csv": "aa4a6981bf42353dbe4e6cad87751c37d92ddc6196dab9aad1f46ccbc42a6ffb",
        },
    ),
    # One row past a block, with a CSV report.
    "simulate-output-block-plus-one-csv": (
        [
            "simulate", *CHAIN, "--samples", "4097", "--seed", "7", "--workers", "2",
            "--output", "r.json", "--format", "csv",
        ],
        {
            "r.json": "aa0a1b1618adad82902a07e49052ab2abd61d5b89d851370716e9628b3e54642",
            "r.samples.csv": "35518df8d0d7e3612750ae679d6feec1b3d1842b18ab12391289c40e4594af11",
            "r.hist.csv": "83865875ec905fb2307ce3d792874a015e3f43f4bc0c16b4f6fcf2407e11a5c1",
        },
    ),
    "synthesize": (
        ["synthesize", *CHAIN, "--samples", "2000", "--target-scrap", "0.05"],
        {"-": "03fcd898934e789d2082f96b90ac004c809ff0ce05e8f326977aead0ed869bf3"},
    ),
    # The per-iteration list flattened into indexed keys, over all 50 iterations.
    "synthesize-csv": (
        ["synthesize", *CHAIN, "--samples", "2000", "--target-scrap", "0.05", "--format", "csv"],
        {"-": "53cec2e7b5f86d573864e643c053e286a711fa6b8fa25b3410ca67fe279a8ddc"},
    ),
    "synthesize-odd-w2": (
        ["synthesize", *CHAIN, "--samples", "100003", "--workers", "2", "--target-scrap", "0.05"],
        {"-": "231b78f8c9cf9ed69dda59eac3e56ef70f7e56b77dd4489750b561869b5ffc2e"},
    ),
    # Three unequal parts, 6666, 6667 and 6667 rows, where at least 3 cores are usable.
    "synthesize-w3": (
        ["synthesize", *CHAIN, "--samples", "20000", "--target-scrap", "0.05", "--workers", "3"],
        {"-": "167f09c3eb4d546d3e4120ca595ce8090a231894d61ff67d091b9e94d25da0a5"},
    ),
}


@pytest.mark.parametrize("argv, expected", CASES.values(), ids=CASES.keys())
def test_outputs_match_pinned_hashes(actuator_file, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(actuator_file.parent)
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    digests = {
        name: hashlib.sha256(stdout if name == "-" else (actuator_file.parent / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert digests == expected


# numpy's optional SIMD targets, each a level it may pick at run time for a CPU that has it.
DISPATCH = list(__cpu_dispatch__)

# The draws of a zone centred on 0 at sigma 1 are the transform's own bits. The
# cases' draws are not: a mean such as 25.55 rounds a one-ulp difference away.
_DRAWS = ("sample_chain(ToleranceChain('z', [DimensionSpec('z', 0.0, 3.0, -3.0, 1.0)]), SigmaRule.it6(), 2**17, 7)"
          ".fc_samples")

# Runs the cases given on stdin in the working directory and prints each case's digests and the draws' digest.
_CHILD = f"""
import contextlib, hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from tolchain import DimensionSpec, SigmaRule, ToleranceChain, sample_chain
from tolchain.cli import main
disabled, cases = json.load(sys.stdin)
assert not any(__cpu_features__[target] for target in disabled), "NPY_DISABLE_CPU_FEATURES was not applied"
digests = {{}}
for case, (argv, names) in cases.items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, case
    digests[case] = {{name: hashlib.sha256(out.getvalue().encode("utf-8") if name == "-" else open(name, "rb").read())
                     .hexdigest() for name in names}}
print(json.dumps([digests, hashlib.sha256({_DRAWS}.tobytes()).hexdigest()]))
"""


@pytest.mark.skipif("X86_V3" not in DISPATCH, reason=f"numpy has no x86-64 dispatch targets here, only {DISPATCH}")
@pytest.mark.parametrize("level", ["X86_V2", "X86_V3"])
def test_outputs_match_pinned_hashes_at_each_dispatch_level(actuator_file, level):
    # x86-64-v2 is numpy's baseline, so disabling every dispatch target leaves it; v3 keeps X86_V3 alone.
    disabled = [target for target in DISPATCH if target != level]
    src = str(Path(tolchain.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cases = {case: (argv, list(expected)) for case, (argv, expected) in CASES.items()}
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps([disabled, cases]), capture_output=True,
                          text=True, env=env, cwd=actuator_file.parent, timeout=300)
    assert proc.returncode == 0, proc.stderr
    draws = eval(_DRAWS)  # in this process, at the level numpy picked for this CPU
    expected = {case: expected for case, (_, expected) in CASES.items()}
    assert json.loads(proc.stdout) == [expected, hashlib.sha256(draws.tobytes()).hexdigest()]
