"""The async stack loads only where it runs (DESIGN.md §6.5).

`repro.net.asyncio_net` imports :mod:`asyncio` inside the
`AsyncCluster` methods that run it, so importing repro, or running a
sync sweep, leaves asyncio and the ``ssl`` module it pulls in out of
the process.  The pytest process has long since imported asyncio, so
each case runs in a fresh interpreter on this checkout's ``src``.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import repro

_SRC = pathlib.Path(repro.__file__).resolve().parents[1]
_ASYNC_STACK = ["asyncio", "ssl"]


def _run_fresh(code: str, cwd: pathlib.Path) -> dict:
    """Run ``code`` in a new interpreter with ``PYTHONPATH`` set to
    this checkout's ``src`` and no ``REPRO_*`` variables; return the
    JSON object on its last line of stdout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_repro_leaves_the_async_stack_out(tmp_path):
    report = _run_fresh(
        f"""
        import json, sys
        import repro, repro.cli, repro.experiments.spec
        import repro.experiments.mission, repro.fabric.client, repro.fabric.worker
        print(json.dumps([m for m in {_ASYNC_STACK!r} if m in sys.modules]))
        """,
        tmp_path,
    )
    assert report == []


def test_a_sync_sweep_leaves_the_async_stack_out(tmp_path):
    report = _run_fresh(
        f"""
        import json, sys
        from repro.cli import main
        code = main(["sweep", "fig3", "--set", "ns=8", "--set", "ks=2", "--out", "."])
        loaded = [m for m in {_ASYNC_STACK!r} if m in sys.modules]
        print(json.dumps({{"code": code, "loaded": loaded}}))
        """,
        tmp_path,
    )
    assert report == {"code": 0, "loaded": []}
    assert len(list(tmp_path.glob("fig3-*.json"))) == 1


def test_the_async_backend_loads_asyncio_on_first_use(tmp_path):
    report = _run_fresh(
        """
        import json, sys
        import repro, repro.net, repro.net.asyncio_net
        from repro.experiments.envspec import EnvironmentSpec
        graph = repro.harary_graph(4, 10)
        sync = repro.run_trial(graph, t=1)
        before = "asyncio" in sys.modules
        run = repro.run_trial(graph, t=1, env=EnvironmentSpec(backend="async"))
        print(json.dumps({
            "before": before,
            "after": "asyncio" in sys.modules,
            "same_verdicts": run.verdicts == sync.verdicts,
            "one_class": repro.AsyncCluster is repro.net.asyncio_net.AsyncCluster
            and repro.net.AsyncCluster is repro.AsyncCluster,
        }))
        """,
        tmp_path,
    )
    assert report == {
        "before": False,
        "after": True,
        "same_verdicts": True,
        "one_class": True,
    }
