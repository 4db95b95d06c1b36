"""``http_mixed``: open-loop widget round trips against the async front door.

``AsyncHyRecServer`` runs in its own process (``http_server.py``) over the
20k-user population with the response cache on.  One asyncio thread in
this process drives it over ``CONNECTIONS`` keep-alive connections.

Traffic follows the program's own protocol (``repro.core.server``, steps
1-4, and ``examples/http_demo.py``): a visit by a user of the zipf stream
is one ``GET /online`` for a personalization job, followed by that user's
``POST /neighbors`` reporting a KNN drawn from that job's candidates.  So
half of the requests are writes, and each write invalidates the user's
cached response; a hit needs the same user to come back before the
report of the previous visit.  ``web`` and ``core`` do the work; ``engine``
does none, because the browser runs the kernel.

The browser's kernel is not run here: it costs ~9 ms per job in Python,
which one client thread could not pay at the offered rates, and it is
not the server's work.  The report names ``NEIGHBORS`` of the job's
candidates drawn uniformly at random (from a seeded generator) and the
first ``RECOMMENDED`` item keys of the first of them.  The server's cost
of a report does not depend on which valid tokens it names; what the
sampler draws on the user's next visit does.  A fixed pick, such as the
first candidates in the job's token order, would not do: every user
would name the same few low tokens, which then sit in every job.

The loop is open: each visit has a due time on a fixed schedule, and
its latency is the time the round trip waits on the server: from the
due time to the job's arrival, plus the report's own exchange, so a
stall also delays the visits queued behind it.  Latency percentiles come
from a fixed reference rate.  ``throughput_rps`` is the request rate
completed by a closed-loop phase over the same connections, which is
the most they can carry.  ``max_rate_rps`` (printed, not gated) is the
highest rung of a fixed ladder of offered rates whose p99 meets
``P99_LIMIT_MS`` with no backlog left at the end of the step.  A run in
which the generator itself fell behind its schedule, at any step, is
invalid.
"""

from __future__ import annotations

import asyncio
import gzip
import json
import random
import re
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.messages import encode_json

from common import POP_USERS, POP_WRITES, Result, median, now, percentile, zipf_stream
from layers import PER_LAYER

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"

#: Keep-alive connections: at most ``nproc`` of this 2-core host.
CONNECTIONS = 2
#: HTTP requests per visit: the job and the widget's report.
PER_VISIT = 2
#: Neighbor tokens and recommended items a report names (the default
#: ``k`` and ``r`` of the jobs).
NEIGHBORS = 10
RECOMMENDED = 10
#: Closed-loop visits before timing starts (part of ``setup_s``): enough
#: for the first full collection of the serving process's cyclic garbage
#: collector to pass.
WARMUP_VISITS = 1500
#: Offered rate of the reference phase (req/s): about half of the
#: ~550-650 req/s this traffic reached over two connections on a 2-core
#: x86-64 host when the benchmark was written.
REF_RATE = 300.0
#: Visits of the closed-loop phase that measures ``throughput_rps``:
#: each connection starts its next visit as soon as its last one ends.
CAPACITY_VISITS = 1000
#: The ladder's rungs (req/s): a fixed grid 5% apart.
LADDER = tuple(float(round(400 * 1.05**k, -1)) for k in range(40))
#: Rungs the ladder skips per step until a step fails; it then climbs
#: one rung at a time from the last rung that passed.
STRIDE = 3
#: Seconds each ladder step offers its rate.
STEP_SECONDS = 1.0
#: p99 latency limit a rate must meet, in ms.
P99_LIMIT_MS = 100.0
#: The generator fell behind (the client, not the server, set the pace)
#: when its own p99 lateness exceeds this, in ms; the run is then invalid.
LATE_LIMIT_MS = 25.0
#: One job in this many is kept and fully JSON-decoded after the run;
#: the client checks every job's fields at their fixed places.
DECODE_EVERY = 25
#: An item key of a profile.
_ITEM_KEY = re.compile(rb'"([0-9]+)":[-0-9]')
#: Where the candidates end: the last profile closes, then ``k`` follows.
_CANDIDATES_END = b'}},"k":'


@dataclass
class Visit:
    user: int
    request: bytes


@dataclass
class Outcome:
    """One visit: the job exchange, then the report exchange if it was sent."""

    due: float
    reply: float
    status: int
    cache: str
    #: wire bytes of the job
    size: int
    post_sent: float = 0.0
    done: float = 0.0
    post_status: int = 0
    #: what was wrong with a 200 body, if anything
    problem: str = ""
    #: the gzipped job, kept for one visit in ``DECODE_EVERY``
    job: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.reply - self.due + self.done - self.post_sent) * 1e3

    @property
    def end(self) -> float:
        return self.done if self.post_status else self.reply


def _schedule(count: int, tokens: dict[int, str], stream) -> list[Visit]:
    """``count`` visits by the stream's users, in stream order.

    Users the population has not seen yet are skipped: a widget only
    knows its user's token after a first visit.
    """
    visits = []
    for index in range(stream.timed):
        if len(visits) == count:
            break
        user = int(stream.users[stream.population + index])
        if user in tokens:
            request = b"GET /online/?uid=%d HTTP/1.1\r\nHost: bench\r\n\r\n" % user
            visits.append(Visit(user, request))
    return visits


def _job_problem(raw: bytes, token: str) -> str:
    """What is wrong with an inflated job, or ``""``.

    A job is the sorted-key encoding ``{"c":…,"k":10,"m":…,"p":…,"r":10,
    "u":"<token>"}``, so its fields are checked at their fixed places.
    """
    if (
        raw.startswith(b'{"c":{')
        and b'},"k":10,"m":' in raw
        and raw.endswith(b',"r":10,"u":"%s"}' % token.encode())
    ):
        return ""
    return "job without k, r or the user's token at their places"


def _candidates(raw: bytes) -> list[int]:
    """Where each candidate's token starts in an inflated job.

    Candidates are the first key of the sorted-key encoding,
    ``{"c":{"<token>":{<profile>},"<token>":{…}},"k":…``; profiles hold
    only numbers, so ``},"`` separates candidates and ``}},"k":`` ends
    them.
    """
    end = raw.find(_CANDIDATES_END)
    if end < 0:  # no candidates: {"c":{},"k":…
        return []
    starts = [7]
    at = raw.find(b'},"', 7, end)
    while at >= 0:
        starts.append(at + 3)
        at = raw.find(b'},"', at + 3, end)
    return starts


def _report(user: int, token: str, raw: bytes, rng: random.Random) -> bytes:
    """The ``POST /neighbors`` request reporting a KNN drawn from the
    inflated job ``raw``."""
    starts = _candidates(raw)
    keys = [raw[at : raw.index(b'"', at)] for at in starts]
    own = token.encode()
    others = [at for at, key in zip(starts, keys) if key != own]
    picked = rng.sample(others, min(NEIGHBORS, len(others)))
    neighbors = [raw[at : raw.index(b'"', at)].decode() for at in picked]
    items = (
        _ITEM_KEY.findall(raw, picked[0], picked[0] + 64 * RECOMMENDED)
        if picked
        else []
    )
    body = gzip.compress(
        encode_json(
            {
                "u": token,
                "n": neighbors,
                "r": [key.decode() for key in items[:RECOMMENDED]],
                "s": [1.0 / (rank + 1) for rank in range(len(neighbors))],
            }
        )
    )
    return (
        b"POST /neighbors/?uid=%d HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Length: %d\r\n\r\n" % (user, len(body))
    ) + body


async def _exchange(reader, writer, request: bytes) -> tuple[int, str, bytes]:
    writer.write(request)
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    cache = ""
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "x-cache":
            cache = value.strip()
    body = await reader.readexactly(length) if length else b""
    return status, cache, body


class Client:
    """One asyncio loop, ``CONNECTIONS`` keep-alive connections."""

    def __init__(self, port: int, tokens: dict[int, str], seed: int) -> None:
        self.port = port
        self.tokens = tokens
        #: Draws each report's neighbors from its job's candidates.
        self.rng = random.Random(seed)
        #: 200 jobs received so far
        self.jobs = 0
        self.loop = asyncio.new_event_loop()
        self.conns = self.loop.run_until_complete(self._connect())

    async def _connect(self):
        return [
            await asyncio.open_connection("127.0.0.1", self.port)
            for _ in range(CONNECTIONS)
        ]

    def close(self) -> None:
        self.loop.run_until_complete(self._disconnect())
        self.loop.close()

    async def _disconnect(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()

    def closed(self, visits: list[Visit]) -> list[Outcome]:
        """Run ``visits`` as fast as replies come back (warm-up)."""
        return self.loop.run_until_complete(self._run(visits, None))

    def open(
        self, visits: list[Visit], rate: float
    ) -> tuple[list[Outcome], list[float]]:
        """Start ``rate / PER_VISIT`` visits per second; returns outcomes
        and the generator's lateness per visit, in ms."""
        lateness: list[float] = []
        outcomes = self.loop.run_until_complete(
            self._run(visits, (rate / PER_VISIT, lateness))
        )
        return outcomes, lateness

    async def _visit(self, reader, writer, visit: Visit, due: float) -> Outcome:
        """The job, then the report, as the widget sends them.

        The client inflates every 200 job to draw the report, so it checks
        the job's fields there, between the two exchanges and outside the
        visit's latency.
        """
        loop = asyncio.get_running_loop()
        status, cache, body = await _exchange(reader, writer, visit.request)
        outcome = Outcome(due, loop.time(), status, cache, len(body))
        if status != 200:
            return outcome
        self.jobs += 1
        if self.jobs % DECODE_EVERY == 0:
            outcome.job = body
        token = self.tokens[visit.user]
        try:
            raw = zlib.decompress(body, wbits=31)
        except zlib.error as error:
            outcome.problem = f"job does not gunzip: {error}"
            return outcome
        outcome.problem = _job_problem(raw, token)
        report = _report(visit.user, token, raw, self.rng)
        outcome.post_sent = loop.time()
        outcome.post_status, _, reply = await _exchange(reader, writer, report)
        outcome.done = loop.time()
        if outcome.post_status == 200 and not outcome.problem:
            try:
                ok = zlib.decompress(reply, wbits=31).startswith(b'{"ok":true')
            except zlib.error:
                ok = False
            if not ok:
                outcome.problem = "report reply is not gzipped {\"ok\":true,...}"
        return outcome

    async def _run(self, visits, schedule) -> list[Outcome]:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        outcomes: list[Outcome | None] = [None] * len(visits)

        async def connection(reader, writer):
            while True:
                item = await queue.get()
                if item is None:
                    return
                index, due = item
                outcomes[index] = await self._visit(
                    reader, writer, visits[index], due
                )

        workers = [
            asyncio.ensure_future(connection(reader, writer))
            for reader, writer in self.conns
        ]
        start = loop.time() + 0.005
        for index in range(len(visits)):
            if schedule is None:
                due = loop.time()
            else:
                rate, lateness = schedule
                due = start + index / rate
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append((loop.time() - due) * 1e3)
            queue.put_nowait((index, due))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return outcomes  # type: ignore[return-value]


class ServerProcess:
    """The serving process and its line protocol."""

    def __init__(self, seed: int, trace: bool) -> None:
        command = [
            sys.executable,
            str(HERE / "http_server.py"),
            "--seed", str(seed),
            "--trace", str(int(trace)),
        ]
        if trace:
            OUT.mkdir(exist_ok=True)
            command += ["--spans", str(OUT / f"spans-http_mixed-seed{seed}-server.jsonl")]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serving process exited ({self.proc.wait()})")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


def _latencies(outcomes: list[Outcome]) -> list[float]:
    return [o.latency_ms for o in outcomes]


def _validate(visits: list[Visit], outcomes: list[Outcome], tokens, result) -> None:
    """Every 200 body gunzips, every job carries ``k``, ``r`` and the
    user's token, and every report reply reads ``{"ok":true,...}``.

    The client checked each body as it arrived; the jobs it kept are
    decoded in full here.
    """
    bad = [
        f"user {visit.user}: {outcome.problem}"
        for visit, outcome in zip(visits, outcomes)
        if outcome.problem
    ]
    kept = [(v, o.job) for v, o in zip(visits, outcomes) if o.job]
    for visit, job in kept:
        payload = json.loads(gzip.decompress(job))
        if (payload.get("k"), payload.get("r"), payload.get("u")) != (
            10,
            10,
            tokens[visit.user],
        ):
            bad.append(f"user {visit.user}: decoded job lacks k, r or token")
    jobs = sum(o.status == 200 for o in outcomes)
    result.check(
        "every 200 body gunzips; jobs carry k, r and the user's token",
        not bad and kept,
        "; ".join(bad[:3]) or f"{jobs} jobs checked, {len(kept)} decoded in full",
    )


class Phases:
    """Open-loop phases over consecutive slices of the schedule."""

    def __init__(self, client: Client, visits: list[Visit], start: int) -> None:
        self.client = client
        self.visits = visits
        self.cursor = start
        #: (visits, outcomes, lateness) of every phase run so far
        self.done: list[tuple[list[Visit], list[Outcome], list[float]]] = []

    def _next(self, count: int) -> list[Visit]:
        chunk = self.visits[self.cursor : self.cursor + count]
        self.cursor += len(chunk)
        return chunk

    def run(self, rate: float, seconds: float):
        chunk = self._next(int(rate / PER_VISIT * seconds))
        outcomes, lateness = self.client.open(chunk, rate)
        self.done.append((chunk, outcomes, lateness))
        return outcomes, lateness

    def closed(self, count: int) -> list[Outcome]:
        chunk = self._next(count)
        outcomes = self.client.closed(chunk)
        self.done.append((chunk, outcomes, []))
        return outcomes


def _verdict(outcomes: list[Outcome], lateness: list[float]):
    """``(passed, p99 ms, generator p99 lateness ms, backlog)`` of a phase.

    The backlog counts visits that completed more than the limit after
    the phase's last due time: work the phase left queued.
    """
    p99 = percentile(_latencies(outcomes), 99)
    late = percentile(lateness, 99)
    last_due = max(o.due for o in outcomes)
    backlog = sum(o.end > last_due + P99_LIMIT_MS / 1e3 for o in outcomes)
    return p99 <= P99_LIMIT_MS and not backlog, p99, late, backlog


def _completed_rps(outcomes: list[Outcome]) -> float:
    """HTTP requests answered 200 per second over a phase."""
    ok = sum((o.status == 200) + (o.post_status == 200) for o in outcomes)
    return ok / (max(o.end for o in outcomes) - min(o.due for o in outcomes))


def _ladder(phases: Phases) -> tuple[float, list[tuple]]:
    """Highest rung that meets the limit, and every step.

    Climbs ``STRIDE`` rungs per step from the first; after the first
    failure it climbs one rung at a time from the last rung that passed,
    and stops at the next failure.  A rung fails when it fails twice in
    a row, so that one stall of the host does not end the climb.  A step
    the generator could not keep up with also stops the climb; the run
    is then invalid.  When no rung passes, the best is the reference
    rate.
    """
    steps = []
    best = -1
    stride = STRIDE
    rung = 0
    retried = False
    while rung < len(LADDER):
        outcomes, lateness = phases.run(LADDER[rung], STEP_SECONDS)
        passed, p99, late, backlog = _verdict(outcomes, lateness)
        steps.append((LADDER[rung], p99, late, backlog))
        if late > LATE_LIMIT_MS:
            break
        if passed:
            best = rung
        elif not retried:
            retried = True
            continue
        elif stride == 1 or rung == 0:
            break
        else:
            stride = 1
        retried = False
        rung = best + stride
    return (LADDER[best] if best >= 0 else REF_RATE), steps


def run(seed: int, seconds: float, tracer) -> Result:
    result = Result()
    traced = tracer is not None
    # Untraced: the reference phase takes half the run, the capacity
    # phase and the ladder more.  Traced: an untraced and a traced
    # reference phase, then the capacity phase.
    ref_seconds = 0.5 * seconds
    total = WARMUP_VISITS + CAPACITY_VISITS + int(
        (2 * REF_RATE * ref_seconds
         + sum(LADDER[: 2 * len(LADDER) // STRIDE]) * STEP_SECONDS)
        / PER_VISIT
    )
    stream = zipf_stream(seed, POP_USERS, POP_WRITES, 2 * total)
    server = ServerProcess(seed, traced)
    client = None
    try:
        tokens = {int(uid): token for uid, token in server.hello["tokens"].items()}
        visits = _schedule(total, tokens, stream)
        setup_start = now()
        client = Client(server.hello["port"], tokens, seed)
        warm = client.closed(visits[:WARMUP_VISITS])
        warmup_s = now() - setup_start
        snap0 = server.ask("snap")
        phases = Phases(client, visits, WARMUP_VISITS)
        ref, ref_late = phases.run(REF_RATE, ref_seconds)
        if traced:
            server.ask("trace on")
            traced_ref, _ = phases.run(REF_RATE, ref_seconds)
            server.ask("trace off")
        capacity = phases.closed(CAPACITY_VISITS)
        max_rate, steps = (0.0, []) if traced else _ladder(phases)
        client.close()
        client = None
        snap1 = server.ask("snap")
        report = server.ask("stop")
    finally:
        if client is not None:
            client.close()
        server.close()

    timed_visits = [visit for chunk, _, _ in phases.done for visit in chunk]
    timed = [o for _, outcomes, _ in phases.done for o in outcomes]
    delta = {key: snap1[key] - snap0[key] for key in snap0}
    jobs = [o for o in timed if o.status == 200]
    reports = sum(o.post_status == 200 for o in timed)
    shed = sum((o.status == 503) + (o.post_status == 503) for o in timed)
    hits = sum(o.cache == "hit" for o in jobs)
    miss_bytes = sum(o.size for o in jobs if o.cache == "miss")

    _validate(visits[:WARMUP_VISITS] + timed_visits, warm + timed, tokens, result)
    result.check(
        "client jobs equal server online requests plus cache hits",
        len(jobs) == delta["online_requests"] + delta["cache_hits"],
        f"{len(jobs)} vs {delta['online_requests']} + {delta['cache_hits']}",
    )
    result.check(
        "client cache hits equal server cache hits",
        hits == delta["cache_hits"],
        f"{hits} vs {delta['cache_hits']}",
    )
    result.check(
        "client reports equal server KNN updates",
        reports == delta["knn_updates"],
        f"{reports} vs {delta['knn_updates']}",
    )
    result.check(
        "server shed count equals client 503 count",
        shed == delta["shed"],
        f"{delta['shed']} vs {shed}",
    )
    result.check(
        "server wire bytes equal the bytes the client received on misses",
        miss_bytes == delta["wire_bytes"],
        f"{delta['wire_bytes']} vs {miss_bytes}",
    )
    late99 = percentile([x for _, _, late in phases.done for x in late], 99)
    result.check(
        "the generator kept its schedule at every step",
        late99 <= LATE_LIMIT_MS,
        f"p99 lateness {late99:.2f} ms, limit {LATE_LIMIT_MS} ms"
        + (
            f"; the client, not the server, set the pace at {steps[-1][0]:.0f} req/s"
            if steps and steps[-1][2] > LATE_LIMIT_MS
            else ""
        ),
    )
    passed, ref_p99, _, backlog = _verdict(ref, ref_late)
    result.check(
        "the reference rate meets the p99 limit with no backlog",
        passed,
        f"p99 {ref_p99:.2f} ms, backlog {backlog}",
    )

    setups = report["setups"]
    result.attempted = len(timed) + sum(o.post_status != 0 for o in timed)
    result.failed = sum(
        (o.status != 200) + (o.post_status not in (0, 200)) for o in timed
    )
    result.setup_metrics(setups, warmup_s)
    result.metric("throughput_rps", _completed_rps(capacity), "req/s")
    result.latency(_latencies(ref), what="visits")
    if not traced:
        result.extra["max_rate_rps"] = (max_rate, "req/s")
    result.metric("peak_rss_mb", report["peak_rss_mb"], "MB")
    result.metric(
        "wire_bytes_per_req", sum(o.size for o in jobs) / len(jobs), "bytes"
    )
    lookups = delta["cache_hits"] + delta["cache_misses"]
    hit_ratio = delta["cache_hits"] / lookups
    result.notes.append(
        f"reference rate {REF_RATE:.0f} req/s ({REF_RATE / PER_VISIT:.0f} "
        f"visits/s) over {CONNECTIONS} connections; latency per visit; "
        f"p99 limit {P99_LIMIT_MS} ms; warm-up {warmup_s:.2f} s; "
        f"cache hit ratio {hit_ratio:.3f}"
    )
    for rate, p99, late, backlog in steps:
        result.notes.append(
            f"ladder {rate:6.0f} req/s  p99 {p99:8.2f} ms  "
            f"generator p99 late {late:6.2f} ms  backlog {backlog}"
        )

    if traced:
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        layers = {name: (value, units[name]) for name, value in report["layers"].items()}
        layers["web.cache_hit_ratio"] = (hit_ratio, "ratio")
        layers["web.cache_invalidations"] = (
            float(delta["cache_invalidations"]),
            "count",
        )
        layers["web.shed"] = (float(delta["shed"]), "count")
        layers["mem.ingest_rss_mb"] = (setups[0]["ingest_rss_mb"], "MB")
        layers["mem.first_request_rss_mb"] = (setups[0]["first_rss_mb"], "MB")
        layers["gen.lateness_ms"] = (late99, "ms")
        layers["trace.overhead_frac"] = (
            median(_latencies(traced_ref)) / median(_latencies(ref)) - 1.0,
            "ratio",
        )
        result.notes.extend(report["table"])
        result.layers = layers
    return result
