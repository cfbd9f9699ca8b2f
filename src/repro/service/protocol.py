"""NDJSON request/event protocol for ``repro serve`` (DESIGN.md §12.4).

One line per message, both directions.  Requests are objects with an
``op`` key::

    {"op": "submit", "mission": {...}, "label": "...", "artifact": "..."}
    {"op": "status"} | {"op": "status", "mission_id": "m0001"}
    {"op": "cancel", "mission_id": "m0001"}
    {"op": "drain"}     # block until no mission is active
    {"op": "ping"}
    {"op": "shutdown"}

Responses echo ``{"type": "response", "op": ..., "ok": true/false, ...}``;
mission events from the firehose are interleaved on the same stream as
``{"type": "event", "event": "EpochCompleted", ...}`` lines.  Keys are
sorted in every emitted line, so transcripts are byte-stable.

The transport is either stdio (``repro serve``) or a unix socket
(``repro serve --socket PATH``).  Either way there is exactly one
ticker: the driver task below.  The ``drain`` op therefore only *polls*
``has_active`` — it never ticks itself — so interleaving stays a pure
function of (submission order, scheduler seed), regardless of how many
clients ask questions.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import threading
from typing import AsyncIterator, Awaitable, Callable

from repro.errors import ExperimentError, ReproError
from repro.experiments.mission import MissionSpec
from repro.service.events import event_payload
from repro.service.fleet import FleetService

#: polling cadence of the drain op (it never ticks; the driver does).
_DRAIN_POLL_SECONDS = 0.01
#: driver sleep while no mission is active.
_IDLE_SLEEP_SECONDS = 0.02


async def handle_request(service: FleetService, payload: object) -> dict:
    """Execute one request object against the service.

    Returns the JSON-ready response object.  Anything malformed becomes
    an ``ok: false`` response rather than an exception — one bad client
    line must not take the daemon down.
    """
    if not isinstance(payload, dict) or "op" not in payload:
        return {
            "type": "response",
            "ok": False,
            "error": 'a request must be an object with an "op" key',
        }
    op = payload["op"]
    try:
        if op == "submit":
            mission = MissionSpec.from_payload(payload.get("mission"))
            label = payload.get("label", "")
            artifact = payload.get("artifact")
            if not isinstance(label, str) or not isinstance(artifact, str | None):
                raise ExperimentError(
                    'submit takes an optional "label" string and "artifact" path'
                )
            mission_id = service.submit(mission, label=label, artifact=artifact)
            return {
                "type": "response",
                "op": op,
                "ok": True,
                "mission_id": mission_id,
            }
        if op == "status":
            mission_id = payload.get("mission_id")
            if not isinstance(mission_id, str | None):
                raise ExperimentError('status takes an optional "mission_id" string')
            return {
                "type": "response",
                "op": op,
                "ok": True,
                "status": service.status(mission_id),
            }
        if op == "cancel":
            mission_id = payload.get("mission_id")
            if not isinstance(mission_id, str):
                raise ExperimentError('cancel requires a "mission_id" string')
            return {
                "type": "response",
                "op": op,
                "ok": True,
                "cancelled": service.cancel(mission_id),
            }
        if op == "drain":
            # Poll only — the serve() driver is the sole ticker, which
            # keeps event interleaving independent of client chatter.
            while service.has_active():
                await asyncio.sleep(_DRAIN_POLL_SECONDS)
            return {"type": "response", "op": op, "ok": True}
        if op == "ping":
            return {"type": "response", "op": op, "ok": True}
        if op == "shutdown":
            return {"type": "response", "op": op, "ok": True, "stop": True}
        raise ExperimentError(f"unknown op {op!r}")
    except ReproError as exc:
        return {"type": "response", "op": op, "ok": False, "error": str(exc)}


def _encode(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


async def _next_line(
    iterator, stop_event: asyncio.Event | None
) -> str | None:
    """The next line, or None on EOF or a requested stop.

    With a ``stop_event``, the read races the event (a SIGTERM must be
    able to interrupt a blocked read); the losing task is cancelled and
    awaited so nothing leaks into the loop's shutdown.
    """
    if stop_event is None:
        try:
            return await iterator.__anext__()
        except StopAsyncIteration:
            return None
    if stop_event.is_set():
        return None
    line_task = asyncio.ensure_future(iterator.__anext__())
    stop_task = asyncio.ensure_future(stop_event.wait())
    done, _pending = await asyncio.wait(
        {line_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
    )
    if line_task not in done:
        line_task.cancel()
        with contextlib.suppress(asyncio.CancelledError, StopAsyncIteration):
            await line_task
        return None
    stop_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await stop_task
    try:
        return line_task.result()
    except StopAsyncIteration:
        return None


async def serve(
    service: FleetService,
    lines: AsyncIterator[str],
    write: Callable[[str], Awaitable[None]],
    on_eof: str = "drain",
    stop_event: asyncio.Event | None = None,
) -> None:
    """Run the full protocol loop over one line stream.

    Three concurrent concerns on one loop:

    * the **driver** — the only place :meth:`FleetService.tick` is
      called; idles cheaply when no mission is active;
    * the **firehose pump** — forwards every service event to ``write``;
    * the **request loop** — reads ``lines`` until EOF, a shutdown op,
      or ``stop_event``.

    ``on_eof`` decides what EOF means: ``"drain"`` (default) finishes
    every in-flight mission before exiting — so piping a batch of
    submit lines in behaves like a job queue — while ``"stop"`` shuts
    down immediately.

    ``stop_event`` is the graceful-drain path (DESIGN.md §14.5): the
    CLI sets it from SIGINT/SIGTERM.  When it fires, the request loop
    stops reading, the driver finishes the epoch in flight (ticks are
    never interrupted mid-epoch), and ``shutdown()`` cancels every
    still-active mission with a ``MissionCancelled`` event that the
    pump delivers before the stream closes — interrupted work is
    reported, never dropped silently.
    """
    if on_eof not in ("drain", "stop"):
        raise ExperimentError(f'on_eof must be "drain" or "stop", got {on_eof!r}')
    stopping = asyncio.Event()

    async def driver() -> None:
        while not stopping.is_set():
            if service.has_active():
                await service.tick()
            else:
                await asyncio.sleep(_IDLE_SLEEP_SECONDS)

    firehose = service.subscribe()

    async def pump() -> None:
        async for event in firehose:
            await write(_encode({"type": "event", **event_payload(event)}))

    driver_task = asyncio.create_task(driver())
    pump_task = asyncio.create_task(pump())
    try:
        iterator = lines.__aiter__()
        while True:
            line = await _next_line(iterator, stop_event)
            if line is None:
                break
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError too
                await write(
                    _encode(
                        {"type": "response", "ok": False, "error": f"bad JSON: {exc}"}
                    )
                )
                continue
            response = await handle_request(service, payload)
            await write(_encode(response))
            if response.get("stop"):
                return
        if (
            on_eof == "drain"
            and (stop_event is None or not stop_event.is_set())
        ):
            while service.has_active():
                await asyncio.sleep(_DRAIN_POLL_SECONDS)
    finally:
        stopping.set()
        await driver_task
        service.shutdown()  # closes the firehose; the pump then ends
        await pump_task


async def serve_stdio(
    service: FleetService,
    on_eof: str = "drain",
    stop_event: asyncio.Event | None = None,
) -> None:
    """The protocol loop over this process's stdin/stdout.

    stdin is read on a *daemon* thread feeding an asyncio queue, not
    through ``run_in_executor``: a graceful stop must be able to
    abandon a blocked ``readline`` without the executor's non-daemon
    worker thread then holding the interpreter open at exit.
    """
    loop = asyncio.get_running_loop()
    incoming: asyncio.Queue = asyncio.Queue()

    def _reader() -> None:
        while True:
            line = sys.stdin.readline()
            try:
                loop.call_soon_threadsafe(incoming.put_nowait, line or None)
            except RuntimeError:
                return  # loop already closed (stopped mid-read)
            if not line:
                return  # EOF
    threading.Thread(target=_reader, name="serve-stdin", daemon=True).start()

    async def lines() -> AsyncIterator[str]:
        while True:
            line = await incoming.get()
            if line is None:
                return  # EOF
            yield line

    async def write(text: str) -> None:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()

    await serve(service, lines(), write, on_eof=on_eof, stop_event=stop_event)


async def serve_socket(
    service: FleetService,
    path: str,
    stop_event: asyncio.Event | None = None,
) -> None:
    """The protocol loop over a unix socket, for one client session.

    The connection gets the full protocol (requests + firehose); the
    daemon exits when the client disconnects, sends
    ``{"op": "shutdown"}``, or ``stop_event`` fires (the signal path —
    also honoured while still waiting for a client to connect).
    """
    done = asyncio.Event()

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async def lines() -> AsyncIterator[str]:
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                yield raw.decode("utf-8")

        async def write(text: str) -> None:
            writer.write(text.encode("utf-8") + b"\n")
            await writer.drain()

        try:
            await serve(service, lines(), write, on_eof="stop", stop_event=stop_event)
        finally:
            writer.close()
            done.set()

    server = await asyncio.start_unix_server(handle, path=path)
    async with server:
        waiters = [asyncio.create_task(done.wait())]
        if stop_event is not None:
            waiters.append(asyncio.create_task(stop_event.wait()))
        _done, pending = await asyncio.wait(
            waiters, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task


__all__ = ["handle_request", "serve", "serve_socket", "serve_stdio"]
