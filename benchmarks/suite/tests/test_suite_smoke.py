"""The runner end to end on the ``--smoke`` preset, and ``--compare``."""

import json
import subprocess
import sys

import pytest

import run


def _run(*args: str) -> tuple[int, dict, str]:
    process = subprocess.run(
        [sys.executable, str(run.SUITE / "run.py"), "--smoke", *args],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    last = process.stdout.strip().splitlines()[-1]
    return process.returncode, json.loads(last), process.stdout


@pytest.fixture(scope="module")
def definition():
    return run.load_definition()


def test_untraced_smoke_reports_every_end_to_end_metric(definition, tmp_path):
    out = tmp_path / "runs.jsonl"
    code, result, _ = _run(
        "--workload", "cost-verified", "--seconds", "1", "--out", str(out)
    )
    assert code == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(out.read_text())
    assert record["workload"] == "cost-verified" and record["samples"]["timed"]


def test_traced_rows_equal_untraced_rows_on_every_workload(definition):
    code, result, stdout = _run("--trace", "1")
    # run.py fails the run unless the timed, serial and traced rows are
    # identical and equal the pinned seed-0 digest.
    assert code == 0 and result["correct"], stdout
    names = {m["name"] for m in definition["per_layer"]}
    for workload in run.WORKLOADS:
        reported = {
            key.split("/", 1)[1]
            for key in result["metrics"]
            if key.startswith(workload + "/")
        }
        assert reported == names
        assert result["metrics"][f"{workload}/trace.coverage"]["value"] >= 0.9


def test_a_wrong_pin_fails_the_run(tmp_path):
    pinned = json.loads((run.SUITE / "pinned.json").read_text())
    pinned["smoke"]["cost-verified"] = "0" * 64
    wrong = tmp_path / "pinned.json"
    wrong.write_text(json.dumps(pinned))
    runs = [run.WorkloadRun("cost-verified", 0, True, tmp_path / "work")]
    run.run_untraced(runs, seconds=0.1)
    assert runs[0].check(json.loads((run.SUITE / "pinned.json").read_text()))
    runs[0].problems.clear()
    assert not runs[0].check(pinned)
    assert any("pinned" in problem for problem in runs[0].problems)


@pytest.mark.parametrize(
    "base, new, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.0, 10.05, 9.95, 10.0], "within bound"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "worse beyond bound"),
        ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], "better"),
        ([8.0, 12.0, 9.0, 11.0], [9.5, 10.5, 9.8, 10.2], "unresolved"),
        ([8.0, 12.0, 9.0, 11.0], [5.0, 5.1, 4.9, 5.0], "better"),
    ],
)
def test_compare_verdicts(base, new, expected):
    assert run.verdict(base, new, "lower", 0.1) == expected
