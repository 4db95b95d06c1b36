"""``cold_100k``: 100k users / 1M zipf writes into a fresh server, then serve.

Each round builds a fresh vectorized ``HyRecSystem``, ingests the whole
population (the stress is on ``core.tables`` and the ``engine`` arena)
and serves the first requests (which pay the item-postings rebuild).
The first round then serves a closed-loop wave of the stream's next
requests; the working set dwarfs the fragment caches, which fill as the
wave goes.  The wave is a fixed number of requests, sized to take about
``--seconds`` here, so that every run of a seed serves the same requests
from the same cache state however fast the host runs.  The other rounds
repeat the set-up only: the set-up figures come from all of them.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core.config import HyRecConfig
from repro.core.system import HyRecSystem

from common import (
    Result,
    collect,
    current_rss_mb,
    ingest,
    now,
    peak_rss_mb,
    zipf_stream,
)
from layers import matrix_layers, meter_layers, span_layers, zero_layers

USERS = 100_000
WRITES = 1_000_000
#: Fresh systems per run; the set-up metrics report their median.
ROUNDS = 3
#: Wave requests per measured second: the ~40-50 req/s this wave ran at
#: on a 2-core x86-64 host when the benchmark was written.
WAVE_RATE = 40


def _round(seed, stream, requests, span):
    """One fresh system: ingest, first requests, a wave of ``requests``.
    Returns its figures.

    ``span(name)`` opens a root span around each first request and each
    wave request.
    """
    collect()
    rss0 = current_rss_mb()
    start = now()
    system = HyRecSystem(HyRecConfig(), seed=seed)
    writes = ingest(system.record_rating, stream)
    ingest_s = now() - start
    rss1 = current_rss_mb()
    users_seen = system.server.num_users
    t = now()
    for user in stream.most_active_users():
        with span("first_request"):
            system.request(user)
    first_ms = (now() - t) * 1e3
    collect()
    setup_s = now() - start
    rss2 = current_rss_mb()

    meter = system.server.meter.reading("server->client")
    wire0, messages0 = meter.wire_bytes, meter.messages
    latencies = []
    wave_start = now()
    for index in range(requests):
        user, item, value, ts = stream.event(index)
        system.record_rating(user, item, value, ts)
        t = now()
        with span("request"):
            system.request(user, now=ts)
        latencies.append((now() - t) * 1e3)
    wave_s = now() - wave_start
    figures = {
        "users_seen": users_seen,
        "responses": meter.messages - messages0,
        "setup_s": setup_s,
        "write_rate_wps": writes / ingest_s,
        "first_request_ms": first_ms,
        "throughput_rps": len(latencies) / wave_s if latencies else 0.0,
        "wire_bytes": meter.wire_bytes - wire0,
        "ingest_rss_mb": rss1 - rss0,
        "first_rss_mb": rss2 - rss1,
        "latencies": latencies,
    }
    return system, figures


def run(seed: int, seconds: float, tracer) -> Result:
    result = Result()
    wave_requests = max(1, round(seconds * WAVE_RATE))
    stream = zipf_stream(seed, USERS, WRITES, wave_requests)
    distinct = int(np.unique(stream.users[: stream.population]).size)
    rounds = []
    # A traced run times one untraced round against one traced round,
    # which serves the wave.
    count = 2 if tracer else ROUNDS
    served = 1 if tracer else 0
    for number in range(count):
        if tracer is not None:
            tracer.enabled = number == 1
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        requests = wave_requests if number == served else 0
        system, figures = _round(seed, stream, requests, span)
        rounds.append(figures)
        if tracer is not None and tracer.enabled:
            tracer.enabled = False
            layers = zero_layers()
            span_layers(tracer, layers)
            meter_layers(system.server, layers)
            matrix_layers(system.server, layers)
            result.notes.extend(tracer.table_lines("request"))
        system.close()
        del system

    wave = rounds[served]
    result.attempted = sum(len(r["latencies"]) for r in rounds)
    result.setup_metrics(rounds)
    seen = {r["users_seen"] for r in rounds}
    result.check(
        "users seen equal the distinct users in the stream",
        seen == {distinct},
        f"{sorted(seen)} vs {distinct}",
    )
    result.check(
        "one metered response per wave request",
        all(r["responses"] == len(r["latencies"]) for r in rounds),
        f"{[(r['responses'], len(r['latencies'])) for r in rounds]}",
    )
    result.metric("throughput_rps", wave["throughput_rps"], "req/s")
    result.latency(wave["latencies"])
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    result.metric(
        "wire_bytes_per_req", wave["wire_bytes"] / len(wave["latencies"]), "bytes"
    )
    result.notes.append(
        f"{len(rounds)} rounds of {WRITES} writes over {distinct} users; "
        f"a wave of {len(wave['latencies'])} requests"
    )
    if tracer is not None:
        layers["mem.ingest_rss_mb"] = (rounds[0]["ingest_rss_mb"], "MB")
        layers["mem.first_request_rss_mb"] = (rounds[0]["first_rss_mb"], "MB")
        layers["trace.overhead_frac"] = (
            rounds[1]["setup_s"] / rounds[0]["setup_s"] - 1.0,
            "ratio",
        )
        result.layers = layers
    return result
