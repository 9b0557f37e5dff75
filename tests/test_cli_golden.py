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
import subprocess
import sys
from pathlib import Path

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
    # Edge cases of the trace: three arms draw no interval (blank nu_i), 25
    # rounds have no candidate, and virtual states reach -5 < tau_min = -1.
    ["gen", "random", "--n", "8", "--k", "2", "--tau-max", "3", "--tau-min", "-1",
     "--seed", "28", "--out", "inst8.json"],
    ["simulate", "--instance", "inst8.json", "--epsilon", "0.2", "--seed", "0", "--T", "300",
     "--out", "trace-edge.csv"],
    # a plan-sized run: 60 arms, a real-sized relaxation, two writer blocks
    ["gen", "random", "--n", "60", "--k", "5", "--tau-max", "10", "--tau-min", "-4",
     "--out", "inst60.json"],
    ["simulate", "--instance", "inst60.json", "--epsilon", "0.25", "--T", "500",
     "--out", "trace-60.csv"],
    # a windowed plan-sized run: 100 arms, W = 221 rounds of 2000 and joint
    # period P = 110, whose P·n = 11,000 cells the writer formats once
    ["gen", "random", "--n", "100", "--k", "5", "--tau-max", "10", "--tau-min", "-4",
     "--out", "inst100.json"],
    ["simulate", "--instance", "inst100.json", "--epsilon", "0.25", "--T", "2000",
     "--out", "trace-100.csv"],
    ["oracle", "--instance", "inst.json", "--T", "8", "--out", "schedule.csv"],
    # 6 (action, state) cells, against inst.json's 500
    ["oracle", "--instance", "c2.json", "--T", "9", "--out", "schedule-c2.csv"],
    # long walks over a repeating path: 6 cells, and appendix-c1's 3,125
    ["oracle", "--instance", "c2.json", "--T", "100000", "--out", "schedule-c2-long.csv"],
    ["gen", "appendix-c1", "--k", "1", "--m", "4", "--out", "c1.json"],
    ["oracle", "--instance", "c1.json", "--T", "20000", "--out", "schedule-c1-long.csv"],
    ["learn", "--instance", "c2.json", "--T", "512", "--epsilon", "0.25", "--seed", "1",
     "--seeds", "2", "--out", "regret.csv"],
    # a long commit phase: W is far below T, so its scores come from the window
    ["learn", "--instance", "c2.json", "--T", "100000", "--seeds", "2",
     "--out", "regret-long.csv"],
    ["experiment", "approximation", "--instance", "inst.json", "--epsilon", "0.5",
     "--T", "40", "--seeds", "30", "--seed", "2", "--out", "approximation.json",
     "--csv", "approximation.csv"],
    ["experiment", "tightness", "--k", "2", "--m", "3", "--T", "50", "--seeds", "5",
     "--seed", "1", "--out", "tightness.json", "--csv", "tightness.csv"],
    # n·T = 10^6 cells exceed a planner chunk's round cap: one seed a chunk
    ["experiment", "tightness", "--k", "1", "--m", "10", "--T", "100000", "--seeds", "30",
     "--out", "tightness-long.json", "--csv", "tightness-long.csv"],
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
    "c1.json": "92c2776daa848bbd259f1d6da27a36fbb30f554641aae987c4895149419ebf17",
    "c2.json": "99300b3385b4bdad8fb7e99ce4000c3388efbcb33e07422ab76a35008e908b28",
    "inst.json": "07e0419365d787d52a262e229422cfa30f44f933eabfb269f4fc4e5cfeb137fd",
    "inst100.json": "940beaf6712425a1ce0786f7d000cf05545284b9a3a217694c983372d89c4fd2",
    "inst60.json": "ebf9806ca0f6e24c1fb0e00416165eb8c46f668b46baa8426f94b915ed64927b",
    "inst8.json": "d748ef39c52e32a598dabc79c38c72570e3239ec765139de7bbee4a2aa01b854",
    "plan.json": "a6a15939c382107b94dd9933c1895a935e44379464824dc8ef168264836bf930",
    "ratio-vs-m.csv": "2d27b5f2f2137a5b4faf980ed51c7b7f480ddfd50eff7b9c1a28f9aaca329483",
    "regret-long.csv": "298b067e1645a4251038aea72efa4ba3a9e110c3a0f018941b3bf9a85fbb6d64",
    "regret-trend.csv": "60f9e03028eb6f58617cbf5d92c52a843e9b204eed4421db2b6ea13907f5aaec",
    "regret-trend.json": "95acc3b668e480b00bce8e1e49bbf41ba0b3fc9dd7c90f402413db1a252b3526",
    "regret-vs-T.csv": "47415e3eb87e6b9c063f1dd19fb61a69d889cc5eb309771247fde050ce97d590",
    "regret.csv": "2ba451a8bb80f2d9f8d82b3272d1ee42577939850bff0ae419749a601e65eb94",
    "robustness.csv": "c6d56f8c5267926c4e1648780be833381c1ba082372ec19fe9788480c3a6b4dd",
    "robustness.json": "2fb2fb5844bbf77c0ed27c14595f488eac6da70a858d5a8ef4ba9aee0af5b4da",
    "schedule-c1-long.csv": "9b4dbe9284d103fc97d0825ae9bc817d06d26a1bb0df9112a04da98c47683cd4",
    "schedule-c2-long.csv": "4c6c960146b5845d50b8d9795834b47d5c769bb5d67c9bc932afb0d463009700",
    "schedule-c2.csv": "1142e1c2aa98870f051f4fedb21435ab9348bf8a502fc437c8e8d9956dbe9a86",
    "schedule.csv": "fbd81f7b9952b545d6123c6bf6caba55ed12da6f3c78a9950a76f75ca6d7f0ea",
    "solution.json": "59a481ebd127e369a76d62a1a678cc10e71382028617d4df588473d23627ff24",
    "tightness-long.csv": "203c70f622e572b7e3fbc8637088016949ec5f3627efa3032b06ad460960c488",
    "tightness-long.json": "845577a59cf246b576e4af6391df17e2552f33d0356b52581a2f9e5f19f4b77f",
    "tightness.csv": "808078a101b842d3b03ab4d10bae0db274a84bd53533efa98a3928b078af1663",
    "tightness.json": "75902edbf23a8d13e0a75db0db8597ab19d009292c2b93aa626b349d8e81119b",
    "trace-100.csv": "1874f935b75cf0ebe43b7c916d27be9d807769b297bc5345f622d1dd1f8b3a55",
    "trace-60.csv": "c465ffddce1005d005eade982cba0e488ee40f612f5efb0f840e22ecb42efdeb",
    "trace-edge.csv": "cc15cca32109516b0bc31e8894e66440b97685f53a41bbd35fbda6a0fc770ed7",
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
    "inst8.json": "wrote inst8.json (n=8, k=2, tau_max=3, tau_min=-1)\n",
    "trace-edge.csv": "T=300 mean_virtual=1.380732434 mean_actual=1.38137626763\n",
    "inst60.json": "wrote inst60.json (n=60, k=5, tau_max=10, tau_min=-4)\n",
    "trace-60.csv": "T=500 mean_virtual=4.14287585785 mean_actual=4.1198466264\n",
    "inst100.json": "wrote inst100.json (n=100, k=5, tau_max=10, tau_min=-4)\n",
    "trace-100.csv": "T=2000 mean_virtual=4.18009142625 mean_actual=4.17422760501\n",
    "schedule.csv": "OPT=5.99082093179\n",
    "schedule-c2.csv": "OPT=6\n",
    "schedule-c2-long.csv": "OPT=66667\n",
    "c1.json": "wrote c1.json (n=4, k=1, tau_max=4, tau_min=-1)\n",
    "schedule-c1-long.csv": "OPT=15998\n",
    "regret.csv": "benchmark=oracle mean_R=283 mean_Reg=-120.86107666\n",
    "regret-long.csv": "benchmark=oracle mean_R=64421.5 mean_Reg=-32815.3140284\n",
    "approximation.json": "wrote approximation.json and approximation.csv\n",
    "tightness.json": "wrote tightness.json and tightness.csv\n",
    "tightness-long.json": "wrote tightness-long.json and tightness-long.csv\n",
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


@pytest.mark.parametrize("module", ["mlsd.cli", "mlsd"])
def test_module_entry_point_writes_golden_file(tmp_path, module):
    # ``python -m mlsd.cli`` runs cli's __main__ block, ``python -m mlsd`` __main__.py
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "c2.json"
    proc = subprocess.run([sys.executable, "-m", module, "gen", "appendix-c2", "--out", str(out)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["c2.json"]
