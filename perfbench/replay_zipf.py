"""``replay_zipf``: in-process closed loop with one caller (paper §5.2).

``HyRecSystem`` with the default config (vectorized engine, gzip on)
holds a 20k-user / 200k-write zipf population, then replays the stream
that follows it: each rating is followed by that user's request.  All
server work lands in ``core`` (sampler, job build), ``messages`` (render
plus gzip) and ``engine`` (kernel); there are no sockets.
"""

from __future__ import annotations

from repro.core.config import HyRecConfig
from repro.core.system import HyRecSystem

from common import (
    POP_USERS,
    POP_WRITES,
    SETUPS,
    Result,
    collect,
    digest,
    current_rss_mb,
    ingest,
    median,
    now,
    peak_rss_mb,
    zipf_stream,
)
from layers import (
    ENGINE_PATH,
    matrix_layers,
    meter_layers,
    path_coverage,
    span_layers,
    zero_layers,
)

#: Stream events replayed during set-up, before the first timed request.
#: Right after ingest no profile has its rendered fragments cached, and
#: requests run ~35% slower for their first ~500 events; a timed phase
#: that began there would hold a share of slow requests that grows as the
#: host slows down.
WARMUP = 600
#: Requests of the set-up whose recommendations and wire bytes must
#: equal the reference Python engine's.
ORACLE = 100
#: Traced runs alternate traced and untraced blocks of this many events.
TRACE_BLOCK = 25


def _setup(seed, stream, config):
    """Fresh system, population ingest, warm-up; returns timings too."""
    start = now()
    system = HyRecSystem(config, seed=seed)
    rss0 = current_rss_mb()
    t_ingest = now()
    writes = ingest(system.record_rating, stream)
    ingest_s = now() - t_ingest
    rss1 = current_rss_mb()
    t = now()
    recs = [system.request(u).recommendations for u in stream.most_active_users()]
    first_ms = (now() - t) * 1e3
    rss2 = current_rss_mb()
    meter = system.server.meter.reading("server->client")
    oracle_wire = 0
    for index in range(WARMUP):
        user, item, value, ts = stream.event(index)
        system.record_rating(user, item, value, ts)
        recs.append(system.request(user, now=ts).recommendations)
        if len(recs) == ORACLE:
            oracle_wire = meter.wire_bytes
    collect()
    timings = {
        "setup_s": now() - start,
        "write_rate_wps": writes / ingest_s,
        "first_request_ms": first_ms,
        "ingest_rss_mb": rss1 - rss0,
        "first_rss_mb": rss2 - rss1,
    }
    return system, timings, (recs[:ORACLE], oracle_wire)


def _oracle(seed, stream):
    """Recommendations and wire bytes of the reference Python engine."""
    system = HyRecSystem(HyRecConfig(engine="python"), seed=seed)
    ingest(system.record_rating, stream)
    recs = [system.request(u).recommendations for u in stream.most_active_users()]
    for index in range(ORACLE - len(recs)):
        user, item, value, ts = stream.event(index)
        system.record_rating(user, item, value, ts)
        recs.append(system.request(user, now=ts).recommendations)
    return recs, system.server.meter.reading("server->client").wire_bytes


def run(seed: int, seconds: float, tracer) -> Result:
    result = Result()
    stream = zipf_stream(seed, POP_USERS, POP_WRITES, WARMUP + int(seconds * 2000))
    config = HyRecConfig()
    collect()
    system, timings, (recs, oracle_wire) = _setup(seed, stream, config)
    setups = [timings]
    server = system.server
    meter = server.meter.reading("server->client")
    wire0, messages0 = meter.wire_bytes, meter.messages

    latencies: list[float] = []
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    index = WARMUP
    start = now()
    deadline = start + seconds
    while now() < deadline and index < stream.timed:
        if tracer is not None:
            tracer.enabled = (index // TRACE_BLOCK) % 2 == 0
        user, item, value, ts = stream.event(index)
        system.record_rating(user, item, value, ts)
        t = now()
        if tracer is not None and tracer.enabled:
            with tracer.span("request"):
                outcome = system.request(user, now=ts)
        else:
            outcome = system.request(user, now=ts)
        ms = (now() - t) * 1e3
        latencies.append(ms)
        if tracer is not None:
            (traced_ms if tracer.enabled else untraced_ms).append(ms)
        if not all(isinstance(i, int) for i in outcome.recommendations) or (
            len(outcome.recommendations) > config.r
        ):
            result.check("recommendations well formed", False, f"user {user}")
        index += 1
    elapsed = now() - start
    if tracer is not None:
        tracer.enabled = False
    requests = len(latencies)
    if tracer is not None:
        layers = zero_layers()
        span_layers(tracer, layers)
        meter_layers(server, layers)
        matrix_layers(server, layers)
        layers["mem.ingest_rss_mb"] = (setups[0]["ingest_rss_mb"], "MB")
        layers["mem.first_request_rss_mb"] = (setups[0]["first_rss_mb"], "MB")
        layers["trace.overhead_frac"] = (
            median(traced_ms) / median(untraced_ms) - 1.0,
            "ratio",
        )
        coverage = path_coverage(tracer, "request", ENGINE_PATH)
        result.check(
            "blocking-path self times cover the request time within 10%",
            abs(coverage - 1.0) <= 0.10,
            f"coverage {coverage:.3f}",
        )
        result.notes.append(f"blocking-path coverage {coverage:.3f}")
        result.notes.extend(tracer.table_lines("request"))
        result.layers = layers
    wire_per_req = (meter.wire_bytes - wire0) / requests
    messages = meter.messages - messages0
    # Read before the oracle and the later set-ups run in this process.
    peak_mb = peak_rss_mb()
    system.close()
    del system, server

    ref_recs, ref_wire = _oracle(seed, stream)
    for _ in range(0 if tracer else SETUPS - 1):
        collect()
        other, timings, _ = _setup(seed, stream, config)
        other.close()
        setups.append(timings)

    result.check(
        "recommendations equal the python engine on the first "
        f"{ORACLE} requests",
        recs == ref_recs,
        f"{digest(recs)} vs {digest(ref_recs)}",
    )
    result.check(
        f"wire bytes equal the python engine on the first {ORACLE} requests",
        oracle_wire == ref_wire,
        f"{oracle_wire} vs {ref_wire}",
    )
    result.check(
        "one metered response per request",
        messages == requests,
        f"{messages} vs {requests}",
    )

    result.attempted = requests
    result.setup_metrics(setups)
    result.latency(latencies)
    result.metric("throughput_rps", requests / elapsed, "req/s")
    result.metric("peak_rss_mb", peak_mb, "MB")
    result.metric("wire_bytes_per_req", wire_per_req, "bytes")

    return result
