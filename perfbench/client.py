"""The served system and its closed-loop client.

:class:`Served` is what a ``repro serve`` user talks to: a default
:class:`~repro.service.session.EngineSession` behind an in-process
:class:`~repro.service.server.ServiceServer` on an ephemeral port.  The
client sends the next request only after the previous reply arrived,
like a CLI ``--url`` caller, a ``lint --watch`` loop or a CI gate, and
like them (``repro.service.client.call_service``) it opens one
connection per request and asks the server to close it.  Client and
server threads share one process, so with one client one of them runs
at a time and the process CPU time of a request covers both sides.
"""

from __future__ import annotations

import http.client
import json
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.service import EngineSession, ServiceServer

from workloads import Op, verify


class Served:
    """A default session behind a live HTTP server, plus one connection."""

    def __init__(self) -> None:
        self.session = EngineSession()
        self.server = ServiceServer(self.session, port=0).start()

    def _exchange(self, method: str, path: str, body: bytes | None,
                  headers: dict) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=120
        )
        try:
            connection.request(method, path, body, {**headers, "Connection": "close"})
            reply = connection.getresponse()
            return reply.status, reply.read()
        finally:
            connection.close()

    def post(self, command: str, body: bytes) -> tuple[int, bytes]:
        return self._exchange(
            "POST", f"/{command}", body, {"Content-Type": "application/json"}
        )

    def get_json(self, path: str) -> dict:
        return json.loads(self._exchange("GET", path, None, {})[1])

    def stats(self) -> dict:
        """``GET /stats``: cache counters and the flight recorder's count.

        The stats request is itself recorded after it answers, so each
        call adds one record that the caller must not count as traffic.
        """
        body = self.get_json("/stats")
        return {
            "hits": body["cache"]["hits"],
            "misses": body["cache"]["misses"],
            "evictions": body["cache"]["evictions"],
            "recorded": body["flight"]["recorded"],
        }

    def close(self) -> None:
        self.server.stop()


@dataclass
class Sample:
    """One completed request."""

    klass: str
    seconds: float
    error: str | None


@dataclass
class Block:
    """A block's requests, with the wall and process CPU time they took
    and the process's peak resident set size when it ended."""

    samples: list[Sample]
    wall: float
    cpu: float
    peak_rss_mb: float

    @property
    def requests(self) -> int:
        return len(self.samples)


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    #: the block time ran out in, if it had finished any request
    partial: Block | None = None
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if sample.error)


def send(
    served: Served, op: Op, body: bytes | None = None
) -> tuple[float, int, bytes, dict | None, str | None]:
    """One round trip: (seconds, status, raw reply, parsed reply, error)."""
    started = time.perf_counter()
    try:
        status, raw = served.post(op.command, body or op.body)
    except (OSError, http.client.HTTPException) as error:
        return time.perf_counter() - started, 0, b"", None, f"transport: {error}"
    seconds = time.perf_counter() - started
    try:
        reply = json.loads(raw)
    except ValueError:
        reply = None
    return seconds, status, raw, reply, verify(op, status, reply)


def drive(
    served: Served,
    blocks: Iterator[list[Op]],
    seconds: float,
    on_reply: Callable[[Op, float, bytes, dict | None], None] | None = None,
    traced_every: int = 0,
) -> Run:
    """Send blocks until *seconds* have passed; a block in flight when
    time runs out still counts its finished requests, but not as a block.

    Producing the next block is not timed: per-block wall and CPU time
    cover only the requests.  *on_reply* runs after each reply, outside
    the block's timers (the traced run replays layers there); with
    *traced_every* = k, every k-th request asks for its span tree.
    """
    run = Run()
    sent = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        block = next(blocks)
        wall = cpu = 0.0
        done: list[Sample] = []
        for op in block:
            if time.perf_counter() >= deadline:
                break
            sent += 1
            traced = traced_every and sent % traced_every == 0
            body = op.traced_body() if traced else None
            wall_start, cpu_start = time.perf_counter(), time.process_time()
            latency, __, raw, reply, error = send(served, op, body)
            wall += time.perf_counter() - wall_start
            cpu += time.process_time() - cpu_start
            done.append(Sample(op.klass, latency, error))
            if error:
                run.errors[error] = run.errors.get(error, 0) + 1
            if on_reply is not None:
                on_reply(op, latency, raw, reply)
        run.samples += done
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(done) == len(block):
            run.blocks.append(Block(done, wall, cpu, peak))
        elif done:
            run.partial = Block(done, wall, cpu, peak)
    return run
