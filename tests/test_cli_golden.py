"""Golden bytes of every CLI output file and of every command's stdout on
small flags.

Each command writes its files into one shared directory; every file's
SHA-256 is pinned below, and so is the text each command prints, keyed by
its ``--out`` file. A refactor that keeps the outputs keeps these pins. To
re-pin after an intended output change, run this module with
``MLSD_PRINT_GOLDEN=1 pytest -s tests/test_cli_golden.py`` and copy the
printed tables.
"""

import contextlib
import hashlib
import io
import os

import pytest

from mlsd.cli import main

COMMANDS = [
    ["gen", "random", "--n", "3", "--k", "1", "--tau-max", "3", "--tau-min", "-2",
     "--seed", "7", "--out", "inst.json"],
    ["gen", "appendix-c2", "--out", "c2.json"],
    ["solve-lp", "--instance", "inst.json", "--epsilon", "0.3", "--out", "solution.json"],
    ["plan", "--instance", "inst.json", "--epsilon", "0.5", "--seed", "3", "--out", "plan.json"],
    ["simulate", "--instance", "inst.json", "--epsilon", "0.5", "--seed", "9", "--T", "20",
     "--out", "trace.csv"],
    ["simulate", "--instance", "inst.json", "--plan", "plan.json", "--T", "20",
     "--out", "trace-plan.csv"],
    ["oracle", "--instance", "inst.json", "--T", "8", "--out", "schedule.csv"],
    ["learn", "--instance", "c2.json", "--T", "512", "--epsilon", "0.25", "--seed", "1",
     "--seeds", "2", "--out", "regret.csv"],
    ["experiment", "approximation", "--instance", "inst.json", "--epsilon", "0.5",
     "--T", "40", "--seeds", "30", "--seed", "2", "--out", "approximation.json",
     "--csv", "approximation.csv"],
    ["experiment", "tightness", "--k", "2", "--m", "3", "--T", "50", "--seeds", "5",
     "--seed", "1", "--out", "tightness.json", "--csv", "tightness.csv"],
    ["experiment", "regret-trend", "--instance", "c2.json", "--T-list", "512,1024",
     "--seeds", "2", "--seed", "4", "--out", "regret-trend.json", "--csv", "regret-trend.csv"],
    ["experiment", "robustness", "--instance", "inst.json", "--eta-list", "0.0,0.1",
     "--T", "60", "--seeds", "3", "--epsilon", "0.5", "--seed", "5",
     "--out", "robustness.json", "--csv", "robustness.csv"],
    ["plot-data", "ratio-vs-m", "--k", "1", "--m-list", "2,4", "--T", "300", "--seeds", "5",
     "--out", "ratio-vs-m.csv"],
    ["plot-data", "regret-vs-T", "--instance", "c2.json", "--T-list", "512,1024",
     "--seeds", "2", "--seed", "4", "--out", "regret-vs-T.csv"],
]

GOLDEN = {
    "approximation.csv": "5ecb5b599b4a6d2a88cf0038e30c8f641c635221e36c52fa912bba653f375099",
    "approximation.json": "f9115341e725fc83dd2bd621713525911989ee7ece625177f9612973abcc1aab",
    "c2.json": "99300b3385b4bdad8fb7e99ce4000c3388efbcb33e07422ab76a35008e908b28",
    "inst.json": "07e0419365d787d52a262e229422cfa30f44f933eabfb269f4fc4e5cfeb137fd",
    "plan.json": "a6a15939c382107b94dd9933c1895a935e44379464824dc8ef168264836bf930",
    "ratio-vs-m.csv": "2d27b5f2f2137a5b4faf980ed51c7b7f480ddfd50eff7b9c1a28f9aaca329483",
    "regret-trend.csv": "60f9e03028eb6f58617cbf5d92c52a843e9b204eed4421db2b6ea13907f5aaec",
    "regret-trend.json": "95acc3b668e480b00bce8e1e49bbf41ba0b3fc9dd7c90f402413db1a252b3526",
    "regret-vs-T.csv": "47415e3eb87e6b9c063f1dd19fb61a69d889cc5eb309771247fde050ce97d590",
    "regret.csv": "2ba451a8bb80f2d9f8d82b3272d1ee42577939850bff0ae419749a601e65eb94",
    "robustness.csv": "c6d56f8c5267926c4e1648780be833381c1ba082372ec19fe9788480c3a6b4dd",
    "robustness.json": "2fb2fb5844bbf77c0ed27c14595f488eac6da70a858d5a8ef4ba9aee0af5b4da",
    "schedule.csv": "fbd81f7b9952b545d6123c6bf6caba55ed12da6f3c78a9950a76f75ca6d7f0ea",
    "solution.json": "59a481ebd127e369a76d62a1a678cc10e71382028617d4df588473d23627ff24",
    "tightness.csv": "808078a101b842d3b03ab4d10bae0db274a84bd53533efa98a3928b078af1663",
    "tightness.json": "75902edbf23a8d13e0a75db0db8597ab19d009292c2b93aa626b349d8e81119b",
    "trace-plan.csv": "1acce1043b605bae98ba054e15d03c3ee84b4f4bf021a1d129f4e977398fd875",
    "trace.csv": "5daeda5e1f507e34970a1e7d0341fd356f66782c5660f0ba3adf133dc9ba4ce3",
}

STDOUT = {
    "inst.json": "wrote inst.json (n=3, k=1, tau_max=3, tau_min=-2)\n",
    "c2.json": "wrote c2.json (n=1, k=1, tau_max=1, tau_min=-2)\n",
    "solution.json": "LP*=0.748975229358 tau_L=-4\n",
    "plan.json": "LP*=0.748975229358 tau_L=-2 active_arms=3/3\n",
    "trace.csv": "T=20 mean_virtual=0.748975229358 mean_actual=0.742898823822\n",
    "trace-plan.csv": "T=20 mean_virtual=0.622838164618 mean_actual=0.6240461141\n",
    "schedule.csv": "OPT=5.99082093179\n",
    "regret.csv": "benchmark=oracle mean_R=283 mean_Reg=-120.86107666\n",
    "approximation.json": "wrote approximation.json and approximation.csv\n",
    "tightness.json": "wrote tightness.json and tightness.csv\n",
    "regret-trend.json": "wrote regret-trend.json and regret-trend.csv\n",
    "robustness.json": "wrote robustness.json and robustness.csv\n",
    "ratio-vs-m.csv": "wrote ratio-vs-m.csv\n",
    "regret-vs-T.csv": "wrote regret-vs-T.csv\n",
}


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Run every command in order in one directory; the files by name and
    each command's stdout by its ``--out`` file."""
    d = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(d)
    printed = {}
    try:
        for argv in COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, argv
            printed[argv[argv.index("--out") + 1]] = buf.getvalue()
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    if os.environ.get("MLSD_PRINT_GOLDEN"):
        for name, data in files.items():
            print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",')
        for name, text in printed.items():
            print(f'    "{name}": {text!r},')
    return files, printed


def test_every_output_is_pinned(golden_run):
    assert sorted(golden_run[0]) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(golden_run, name):
    data = golden_run[0][name]
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name], data.decode()[:2000]


def test_every_command_stdout_is_pinned(golden_run):
    assert sorted(golden_run[1]) == sorted(STDOUT)


@pytest.mark.parametrize("out", sorted(STDOUT))
def test_command_stdout(golden_run, out):
    assert golden_run[1][out] == STDOUT[out]
