"""Every registered plan, pinned by digest.

``tests/golden/plans.json`` holds one sha256 per registered figure ×
scale (reduced, paper) × seed policy (the figure's registered one, and
``hashed`` with base seed 7).  A digest covers the ``repr`` of the
plan's figure shell (id, title, labels, notes, pre-created series), of
every cell group (series, x, drop value, cells) and whether the plan
has a ``finalize`` hook, so a refactor of the plan builders that moves
any cell, title, note or series order fails here.  Golden rows run at
reduced scale only; this pins the paper-scale plans as well.

A change that means to alter a plan regenerates the file with::

    PYTHONPATH=src python tests/test_plans.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import repro.experiments  # noqa: F401 - registers the mission figures
from repro.experiments.spec import FIGURE_SPECS, SWEEP_ENGINE

GOLDEN = pathlib.Path(__file__).parent / "golden" / "plans.json"

#: seed policy label -> ``resolve`` arguments.
SEED_POLICIES = {
    "registered": {},
    "hashed-7": {"seed_mode": "hashed", "base_seed": 7},
}


def plan_digest(figure_id: str, scale: str, **seeding) -> str:
    """The sha256 of one resolved plan's shell, groups and hook."""
    resolved = SWEEP_ENGINE.resolve(figure_id, scale=scale, **seeding)
    plan = SWEEP_ENGINE.plan(resolved)
    text = repr((plan.figure, plan.groups, plan.finalize is not None))
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digests() -> dict[str, str]:
    return {
        f"{figure_id}/{scale}/{policy}": plan_digest(figure_id, scale, **seeding)
        for figure_id in sorted(FIGURE_SPECS)
        for scale in ("reduced", "paper")
        for policy, seeding in SEED_POLICIES.items()
    }


def test_every_registered_plan_matches_its_pin():
    assert plan_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_plans.py --write")
    GOLDEN.write_text(json.dumps(plan_digests(), indent=1, sort_keys=True) + "\n")
