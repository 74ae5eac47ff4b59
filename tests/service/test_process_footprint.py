"""What a serving process pays for: the modules it loads and the page
faults its socket reads take.

Each check runs in a fresh interpreter, because what the test process
has already imported (or allocated and freed) is exactly what is under
test.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# Serves one tenant of each kind a shard hosts, then drains, which
# writes a snapshot.  Prints the scipy modules loaded.
_SERVE_CHILD = """\
import asyncio, json, os, sys

import repro.cli.main  # noqa: F401
from repro.service.client import (
    ServiceClient, read_ready_file, tenant_population)
from repro.service.server import ServiceConfig, run_service


async def main(root):
    ready = os.path.join(root, "ready.json")
    server = asyncio.create_task(run_service(ServiceConfig(
        ledger_dir=os.path.join(root, "ledger"), ready_file=ready)))
    host, port = await asyncio.to_thread(read_ready_file, ready, 30.0)
    client = await ServiceClient(host, port).connect()
    kinds = {"shamir": {}, "rs": {"scheme": "rs"},
             "faults": {"faults": {"misfire_rate": 0.05,
                                   "stuck_closed_probability": 0.2,
                                   "timeout_rate": 0.02}}}
    for name, kwargs in kinds.items():
        payload = tenant_population(1, 3, **kwargs)[0]
        payload["tenant"] = name
        assert (await client.provision(**payload))["status"] == "ok"
        for index in range(4):
            await client.access(name, rid=f"{name}-{index}")
    assert (await client.drain())["status"] == "ok"
    await client.close()
    await server


asyncio.run(main(sys.argv[1]))
print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""

# Builds a service without starting it; prints the scipy modules loaded.
_ADVISOR_CHILD = """\
import json, sys

from repro.service.server import ServiceConfig, WearService

WearService(ServiceConfig(ledger_dir=sys.argv[1],
                          capacity_horizon=int(sys.argv[2])))
print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""

# Server and client in one process; prints minor faults per request.
_FAULTS_CHILD = """\
import asyncio, ctypes, os, resource, sys

# M_MMAP_THRESHOLD at glibc's 128 KiB default, and no longer dynamic:
# the count then does not depend on what else this process imported.
ctypes.CDLL("libc.so.6").mallopt(-3, 131072)

from repro.service.client import (
    ServiceClient, read_ready_file, tenant_population)
from repro.service.server import ServiceConfig, run_service

WARMUP, MEASURED = 200, 1000


async def main(root):
    ready = os.path.join(root, "ready.json")
    server = asyncio.create_task(run_service(ServiceConfig(
        ledger_dir=os.path.join(root, "ledger"), ready_file=ready)))
    host, port = await asyncio.to_thread(read_ready_file, ready, 30.0)
    client = await ServiceClient(host, port).connect()
    payload = tenant_population(1, 7, alpha=1e6)[0]
    assert (await client.provision(**payload))["status"] == "ok"
    for _ in range(WARMUP):
        await client.access(payload["tenant"])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(MEASURED):
        response = await client.access(payload["tenant"])
        assert response["status"] == "ok", response
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    await client.drain()
    await client.close()
    await server
    print((after - before) / MEASURED)


asyncio.run(main(sys.argv[1]))
"""


def _run_child(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestScipyStaysOffTheServingPath:
    def test_serve_provision_access_and_drain_load_no_scipy(self, tmp_path):
        assert json.loads(_run_child(_SERVE_CHILD, str(tmp_path))) == []

    @pytest.mark.parametrize("horizon, loaded", [(0, False), (8, True)])
    def test_capacity_advisor_imports_its_solver_at_start_up(
            self, tmp_path, horizon, loaded):
        """The advisor's first refresh runs inside a request; the
        import its refit needs is paid when the service is built."""
        modules = json.loads(_run_child(_ADVISOR_CHILD, str(tmp_path),
                                        str(horizon)))
        assert ("scipy.optimize" in modules) is loaded
        assert bool(modules) is loaded


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's mmap threshold")
class TestSocketReads:
    def test_reads_stay_off_the_mmap_path(self, tmp_path):
        """A read above the mmap threshold maps and unmaps a fresh
        buffer each time, about 2 minor faults per read."""
        faults_per_request = float(_run_child(_FAULTS_CHILD, str(tmp_path)))
        assert faults_per_request < 0.5
