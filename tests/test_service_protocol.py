"""Tests for the NDJSON serve protocol (DESIGN.md §12.4).

Drives the full :func:`repro.service.protocol.serve` loop in memory —
scripted request lines in, parsed response/event lines out — so every
op (submit, status, cancel, drain, ping, shutdown) and every error
path is covered without a subprocess.  The stdio/socket transports are
thin wrappers over this loop; CI's serve-smoke job exercises the stdio
one end to end.
"""

import asyncio
import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.artifacts import clear_artifact_cache
from repro.experiments.mission import (
    MissionSpec,
    TrajectorySpec,
    clear_mission_memo,
    run_mission,
    write_mission_artifact,
)
from repro.service import FleetService, event_from_payload, mission_events
from repro.service.protocol import handle_request, serve


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_mission_memo()
    clear_artifact_cache()
    yield
    clear_mission_memo()
    clear_artifact_cache()


def tiny_mission(seed=0, epochs=3):
    return MissionSpec(
        trajectory=TrajectorySpec(n=8, epochs=epochs, seed=seed), t=1, seed=seed
    )


def run_protocol(requests, on_eof="drain", **service_kwargs):
    """Feed scripted request objects through a fresh serve loop.

    Returns the parsed output lines, in emission order (responses and
    firehose events interleaved, exactly as a stdio client sees them).
    """

    async def main():
        service = FleetService(**service_kwargs)
        out = []

        async def lines():
            for request in requests:
                yield request if isinstance(request, str) else json.dumps(request)

        async def write(text):
            out.append(json.loads(text))

        await serve(service, lines(), write, on_eof=on_eof)
        return out

    return asyncio.run(main())


def responses(out):
    return [line for line in out if line["type"] == "response"]


def events(out):
    return [line for line in out if line["type"] == "event"]


class TestServeLoop:
    def test_submit_drain_status(self):
        spec = tiny_mission(seed=1)
        out = run_protocol(
            [
                {"op": "submit", "mission": spec.payload(), "label": "one"},
                {"op": "drain"},
                {"op": "status"},
            ]
        )
        submit, drain, status = responses(out)
        assert submit["ok"] and submit["mission_id"] == "m0001"
        assert drain["ok"]
        assert status["status"]["completed"] == 1
        assert status["status"]["missions"]["m0001"]["label"] == "one"
        # The firehose carried the mission's full typed event stream.
        typed = [
            event_from_payload(
                {key: value for key, value in line.items() if key != "type"}
            )
            for line in events(out)
        ]
        assert typed == mission_events("m0001", run_mission(spec), label="one")

    def test_eof_drains_in_flight_missions(self):
        spec = tiny_mission(seed=2)
        out = run_protocol([{"op": "submit", "mission": spec.payload()}])
        assert any(line["event"] == "MissionCompleted" for line in events(out))

    def test_eof_stop_abandons_missions(self):
        spec = tiny_mission(seed=3, epochs=50)
        out = run_protocol(
            [{"op": "submit", "mission": spec.payload()}], on_eof="stop"
        )
        assert not any(
            line["event"] == "MissionCompleted" for line in events(out)
        )

    def test_cancel(self):
        keep, drop = tiny_mission(seed=4), tiny_mission(seed=5, epochs=40)
        out = run_protocol(
            [
                {"op": "submit", "mission": keep.payload()},
                {"op": "submit", "mission": drop.payload()},
                {"op": "cancel", "mission_id": "m0002"},
                {"op": "drain"},
                {"op": "status", "mission_id": "m0002"},
            ]
        )
        cancel = responses(out)[2]
        assert cancel["ok"] and cancel["cancelled"]
        assert responses(out)[4]["status"]["state"] == "cancelled"
        assert any(line["event"] == "MissionCancelled" for line in events(out))

    def test_submitted_artifact_equals_batch_artifact(self, tmp_path):
        spec = tiny_mission(seed=6)
        served = tmp_path / "served.json"
        out = run_protocol(
            [
                {
                    "op": "submit",
                    "mission": spec.payload(),
                    "artifact": str(served),
                },
                {"op": "drain"},
            ]
        )
        assert responses(out)[0]["ok"]
        reference = tmp_path / "batch.json"
        write_mission_artifact(run_mission(spec), reference)
        assert served.read_text() == reference.read_text()

    def test_shutdown_stops_the_loop(self):
        out = run_protocol(
            [
                {"op": "ping"},
                {"op": "shutdown"},
                {"op": "ping"},  # never read: the loop stopped
            ]
        )
        assert [line["op"] for line in responses(out)] == ["ping", "shutdown"]

    def test_bad_json_line_is_survivable(self):
        out = run_protocol(["{not json", {"op": "ping"}])
        first, second = responses(out)
        assert not first["ok"] and "bad JSON" in first["error"]
        assert second["ok"]

    def test_unknown_op_and_malformed_requests(self):
        out = run_protocol(
            [
                {"op": "warp"},
                {"no_op": True},
                {"op": "cancel"},
                {"op": "submit", "mission": {"t": 1}},
                {"op": "status", "mission_id": "m0042"},
            ]
        )
        assert [line["ok"] for line in responses(out)] == [False] * 5
        assert "unknown op" in responses(out)[0]["error"]
        assert "mission_id" in responses(out)[2]["error"]


class TestHandleRequest:
    def test_ping(self):
        async def main():
            return await handle_request(FleetService(), {"op": "ping"})

        assert asyncio.run(main())["ok"]

    def test_non_dict_payload(self):
        async def main():
            return await handle_request(FleetService(), ["not", "a", "dict"])

        response = asyncio.run(main())
        assert not response["ok"] and "op" in response["error"]

    def test_invalid_on_eof_rejected(self):
        async def main():
            async def lines():
                return
                yield  # pragma: no cover - makes this an async generator

            async def write(text):
                pass

            await serve(FleetService(), lines(), write, on_eof="explode")

        with pytest.raises(ExperimentError):
            asyncio.run(main())


def _with(path, value):
    """tiny_mission()'s payload with one field replaced."""
    payload = tiny_mission().payload()
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return payload


#: field the error must name -> a submit mission with it mistyped.  The
#: hand-written decoders let each line escape handle_request (TypeError,
#: TypeError, TypeError, AttributeError, ValueError, ValueError), which
#: killed the daemon.
MISTYPED_MISSIONS = {
    "trajectory.n": {"trajectory": {"n": "12", "epochs": 3}},
    "trajectory.epochs": _with(("trajectory", "epochs"), 3.5),
    "trajectory.drift": _with(("trajectory", "drift"), "fast"),
    "env": _with(("env",), "lossy"),
    "mission.connectivity_cutoff": _with(("connectivity_cutoff",), "z"),
    "mission.seed": _with(("seed",), "x"),
}


class TestMistypedRequests:
    """A wrong-typed line gets ``ok: false``; the daemon keeps serving."""

    def test_mistyped_missions_are_refused_by_name(self):
        valid = tiny_mission(seed=7)
        out = run_protocol(
            [{"op": "submit", "mission": m} for m in MISTYPED_MISSIONS.values()]
            + [{"op": "submit", "mission": valid.payload()}]
        )
        *refused, accepted = responses(out)
        for field, response in zip(MISTYPED_MISSIONS, refused, strict=True):
            assert not response["ok"]
            assert field in response["error"]
        assert accepted["ok"] and accepted["mission_id"] == "m0001"
        assert any(line["event"] == "MissionCompleted" for line in events(out))

    def test_cutoff_at_or_below_t_is_refused_at_submit(self):
        # Once accepted, then MissionFailed in the first epoch
        # ("connectivity cutoff 1 would not resolve k > t").
        mission = MissionSpec(
            trajectory=TrajectorySpec(n=8, epochs=2), t=2
        ).payload()
        out = run_protocol(
            [{"op": "submit", "mission": {**mission, "connectivity_cutoff": 1}}]
        )
        (response,) = responses(out)
        assert not response["ok"]
        assert "connectivity cutoff 1 must exceed t=2" in response["error"]
        assert events(out) == []

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "status", "mission_id": ["m0001"]},
            {"op": "submit", "mission": tiny_mission().payload(), "artifact": 5},
            {"op": "submit", "mission": tiny_mission().payload(), "label": ["x"]},
        ],
        ids=["unhashable-mission-id", "artifact-int", "label-list"],
    )
    def test_mistyped_request_fields_are_refused(self, request_):
        # The first raised TypeError in handle_request; the second was
        # accepted and ended the serve loop when the mission completed.
        out = run_protocol([request_, {"op": "ping"}])
        refused, ping = responses(out)
        assert not refused["ok"] and ping["ok"]
        assert not any(line["event"] == "MissionAccepted" for line in events(out))

    @pytest.mark.parametrize(
        "line", ["[" * 100_000, '{"op": ' + "9" * 5000 + "}"], ids=["deep", "long-int"]
    )
    def test_undecodable_json_is_survivable(self, line):
        # json.loads raises RecursionError and a digit-limit ValueError
        # that is no JSONDecodeError; both escaped the serve loop.
        out = run_protocol([line, {"op": "ping"}])
        refused, ping = responses(out)
        assert not refused["ok"] and "bad JSON" in refused["error"]
        assert ping["ok"]
