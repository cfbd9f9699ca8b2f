"""The benchmark's traced functions still exist.

``benchmarks/suite/tracer.py`` times each layer by wrapping a table of
``repro`` functions by name; a target the program no longer has is
skipped, and its layer metrics silently read 0.  This test loads the
tracer by path (it only reads the file), installs every target and
checks that nothing is missing beyond the two stale targets the next
change to the benchmark drops.  A subset check, so dropping them there
needs no edit here.
"""

import pathlib
import sys
import types

import repro  # noqa: F401 - loads every layer the targets name

TRACER = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "suite"
    / "tracer.py"
)

#: removed from ``src/`` before the tracer's table caught up.
STALE_TARGETS = {
    "repro.crypto.batch:RoundPrimer.__call__",
    "repro.perf.kernels:certify_graphs",
}


def _load_tracer() -> types.ModuleType:
    """Execute the tracer's source without writing bytecode beside it."""
    module = types.ModuleType("_benchmark_suite_tracer")
    module.__file__ = str(TRACER)
    sys.modules[module.__name__] = module  # dataclasses look the module up
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    tracer.install(tracing.all_targets())
    patched = tracer.patched
    tracer.uninstall()
    # The signer targets walk live SignatureScheme subclasses, which
    # include schemes other test modules define locally; only the
    # program's own targets must resolve.
    missing = {path for path in tracer.missing if path.startswith("repro.")}
    assert missing <= STALE_TARGETS
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner}.{name} not restored"
