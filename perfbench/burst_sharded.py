"""``burst_sharded``: closed loop of 16-request windows on the process cluster.

The same 20k-user population runs on ``engine="sharded"``,
``executor="process"`` with two shards: the only workload that runs
``cluster`` (scatter, IPC, merge) and the repository's only multi-core
serving path.  Each window records the next 16 ratings of the stream,
then serves those 16 users as one ``request_batch``.  Every request of a
window completes with the window, so each gets the window's latency.
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
    private_mb,
    zipf_stream,
)
from layers import (
    CLUSTER_PATH,
    meter_layers,
    path_coverage,
    span_layers,
    zero_layers,
)

WINDOW = 16
#: Windows served during set-up, before the first timed window: enough
#: for the rendered fragments of the often-drawn profiles to be cached
#: (see ``replay_zipf.WARMUP``).
WARMUP_WINDOWS = 32
#: Windows of the set-up whose recommendations must equal the
#: vectorized engine's on the same inputs.
ORACLE_WINDOWS = 16
TRACE_BLOCK = 4


def _rate(system: HyRecSystem, stream, number: int) -> tuple[list[int], float]:
    """Record the ratings that precede window ``number``; returns its users."""
    users = []
    for index in range(number * WINDOW, (number + 1) * WINDOW):
        user, item, value, ts = stream.event(index)
        system.record_rating(user, item, value, ts)
        users.append(user)
    return users, ts


def _serve(system: HyRecSystem, users: list[int], ts: float) -> list[list[int]]:
    """Serve one window of concurrent requests."""
    return [o.recommendations for o in system.request_batch(users, now=ts)]


def _window(system: HyRecSystem, stream, number: int) -> list[list[int]]:
    return _serve(system, *_rate(system, stream, number))


def _setup(seed, stream, config):
    start = now()
    system = HyRecSystem(config, seed=seed)
    t_ingest = now()
    writes = ingest(system.record_rating, stream)
    ingest_s = now() - t_ingest
    rss1 = current_rss_mb()
    t = now()
    digests = [digest(_serve(system, stream.most_active_users(), 0.0))]
    first_ms = (now() - t) * 1e3
    for number in range(WARMUP_WINDOWS):
        recs = _window(system, stream, number)
        if len(digests) < ORACLE_WINDOWS:
            digests.append(digest(recs))
    collect()
    timings = {
        "setup_s": now() - start,
        "write_rate_wps": writes / ingest_s,
        "first_request_ms": first_ms,
        "first_rss_mb": current_rss_mb() - rss1,
    }
    return system, timings, digests


def _oracle(seed, stream) -> list[str]:
    """Window digests of the single-matrix vectorized engine."""
    with HyRecSystem(HyRecConfig(), seed=seed) as system:
        ingest(system.record_rating, stream)
        digests = [digest(_serve(system, stream.most_active_users(), 0.0))]
        for number in range(ORACLE_WINDOWS - 1):
            digests.append(digest(_window(system, stream, number)))
        return digests


def run(seed: int, seconds: float, tracer) -> Result:
    result = Result()
    stream = zipf_stream(
        seed, POP_USERS, POP_WRITES, WINDOW * (WARMUP_WINDOWS + int(seconds * 60))
    )
    config = HyRecConfig(engine="sharded", executor="process", num_shards=2)
    collect()
    system, timings, digests = _setup(seed, stream, config)
    setups = [timings]
    server = system.server
    meter = server.meter.reading("server->client")
    wire0, messages0 = meter.wire_bytes, meter.messages

    latencies: list[float] = []
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    number = WARMUP_WINDOWS
    windows = stream.timed // WINDOW
    start = now()
    deadline = start + seconds
    try:
        while now() < deadline and number < windows:
            if tracer is not None:
                tracer.enabled = (number // TRACE_BLOCK) % 2 == 0
            users, ts = _rate(system, stream, number)
            t = now()
            if tracer is not None and tracer.enabled:
                with tracer.span("window"):
                    recs = _serve(system, users, ts)
            else:
                recs = _serve(system, users, ts)
            ms = (now() - t) * 1e3
            latencies.extend([ms] * WINDOW)
            if tracer is not None:
                (traced_ms if tracer.enabled else untraced_ms).append(ms)
            if not all(len(r) <= config.r for r in recs):
                result.check("recommendations well formed", False, f"window {number}")
            number += 1
        elapsed = now() - start
        if tracer is not None:
            tracer.enabled = False
        shards = server.stats.shards
        # Read before the oracle and the later set-ups run in this
        # process; workers grow monotonically, so their memory now is
        # their peak.
        coordinator_mb = peak_rss_mb()
        worker_mb = sum(private_mb(s.pid) for s in shards)
    finally:
        system.close()
    requests = len(latencies)

    reference = _oracle(seed, stream)
    for _ in range(0 if tracer else SETUPS - 1):
        collect()
        other, timings, _ = _setup(seed, stream, config)
        other.close()
        setups.append(timings)
    result.check(
        f"window digests equal the vectorized engine on the first "
        f"{ORACLE_WINDOWS} windows",
        digests == reference,
        f"{digest(digests)} vs {digest(reference)}",
    )
    result.check(
        "one metered response per request",
        meter.messages - messages0 == requests,
        f"{meter.messages - messages0} vs {requests}",
    )
    result.check(
        "every shard worker answered",
        len(shards) == 2 and all(s.alive and s.restarts == 0 for s in shards),
        f"{[(s.shard, s.alive, s.restarts) for s in shards]}",
    )

    result.attempted = requests
    result.setup_metrics(setups)
    result.latency(latencies, group=WINDOW)
    result.metric("throughput_rps", requests / elapsed, "req/s")
    result.metric("peak_rss_mb", coordinator_mb + worker_mb, "MB")
    result.metric(
        "wire_bytes_per_req", (meter.wire_bytes - wire0) / requests, "bytes"
    )
    result.notes.append(
        f"peak_rss_mb = coordinator peak {coordinator_mb:.1f} "
        f"+ workers' private memory {worker_mb:.1f}"
    )

    if tracer is not None:
        layers = zero_layers()
        span_layers(tracer, layers)
        meter_layers(server, layers)
        users = [s.users for s in shards]
        layers["cluster.shard_users_max_over_mean"] = (
            max(users) / (sum(users) / len(users)),
            "ratio",
        )
        layers["mem.first_request_rss_mb"] = (setups[0]["first_rss_mb"], "MB")
        layers["trace.overhead_frac"] = (
            median(traced_ms) / median(untraced_ms) - 1.0,
            "ratio",
        )
        coverage = path_coverage(tracer, "window", CLUSTER_PATH)
        result.check(
            "blocking-path self times cover the window time within 10%",
            abs(coverage - 1.0) <= 0.10,
            f"coverage {coverage:.3f}",
        )
        result.notes.append(f"blocking-path coverage {coverage:.3f}")
        result.notes.extend(tracer.table_lines("window"))
        result.layers = layers
    return result
