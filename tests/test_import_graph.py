"""Cold-start guard: the simulation entry points import only what they run.

Each case runs one entry point in a fresh interpreter and lists the
modules it left in ``sys.modules``.  scipy (the slowest import in the
package), networkx, the analytic core and the slot model have no part
in building and running a network or a single-hop campaign, so none of
them may be loaded, neither while setting the run up nor while running
it.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = ("scipy", "networkx", "repro.core", "repro.slotsim")

BUILD = """
import math, random
from repro.dessim import milliseconds
from repro.net import NetworkSimulation, TopologyConfig, generate_ring_topology
from repro.phy.reception import PhyConfig
topology = generate_ring_topology(TopologyConfig(n=3), random.Random(13))
net = NetworkSimulation(
    topology, "DRTS-DCTS", math.radians(90), seed=1, phy_config={phy}
)
assert net.run(milliseconds(10)).duration_ns == milliseconds(10)
"""

CAMPAIGN = """
from repro.dessim import milliseconds
from repro.experiments import SimStudyConfig, run_campaign
config = SimStudyConfig(n_values=(3,), topologies=1, sim_time_ns=milliseconds(10))
written = run_campaign(config, workers=1, directory="store")
assert len(written) == 9
assert run_campaign(config, workers=1, directory="store") == written
"""

CLI = """
from repro.cli import main
try:
    status = main({argv!r})
except SystemExit as exit:
    status = exit.code
assert status == 0, status
"""


def forbidden_modules(code: str, cwd: Path) -> list[str]:
    """The forbidden modules loaded after running ``code`` afresh."""
    report = textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == f or name.startswith(f + ".") for f in {FORBIDDEN!r})
        )))
        """
    )
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestSimulationEntryPoints:
    def test_unit_disk_network(self, tmp_path):
        assert forbidden_modules(BUILD.format(phy="None"), tmp_path) == []

    def test_sinr_network(self, tmp_path):
        code = BUILD.format(phy='PhyConfig(model="sinr")')
        assert forbidden_modules(code, tmp_path) == []

    def test_campaign_write_and_resume_then_cli_worker(self, tmp_path):
        assert forbidden_modules(CAMPAIGN, tmp_path) == []
        # An interrupted single-hop store, finished by a CLI worker that
        # knows only the store directory.
        store = tmp_path / "store"
        first = sorted(store.glob("cell-*.json"))[0]
        first.unlink()
        argv = ["campaign-worker", "--store", "store", "--shard-id", "w0"]
        code = CLI.format(argv=[*argv, "--no-telemetry"])
        assert forbidden_modules(code, tmp_path) == []
        assert first.exists()


class TestCli:
    def test_python_dash_m_help(self, tmp_path):
        code = (
            "import runpy, sys\n"
            "sys.argv = ['repro', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exit:\n"
            "    assert exit.code == 0, exit.code\n"
        )
        assert forbidden_modules(code, tmp_path) == []

    def test_fig6(self, tmp_path):
        argv = [
            "fig6", "--n-values", "3", "--beamwidths", "90",
            "--topologies", "1", "--sim-seconds", "0.01",
        ]
        assert forbidden_modules(CLI.format(argv=argv), tmp_path) == []


class TestExports:
    @pytest.mark.parametrize(
        "package", ["repro.experiments", "repro.net", "repro.metrics"]
    )
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_is_an_attribute_error(self):
        import repro.experiments

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.experiments.no_such_name  # noqa: B018
