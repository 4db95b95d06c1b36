"""Serving process of ``http_mixed``: ``AsyncHyRecServer`` over the population.

Started by ``http_mixed.py`` as ``python3 perfbench/http_server.py --seed N
--trace 0|1`` so that client and server do not share an interpreter lock.
A set-up is a fresh ``HyRecServer``, the 200k-write ingest and the first
``/online`` jobs.  The process serves its first set-up: it prints one
JSON line (port, user tokens) and answers line commands on standard
input, one JSON line each:

``snap``
    front-door and server counters, for deltas over a phase;
``trace on`` / ``trace off``
    toggle span recording (``--trace 1`` only);
``stop``
    drain and stop the front door, run the remaining ``SETUPS - 1``
    set-ups, then report every set-up's figures, peak RSS and, when
    traced, the per-layer figures; the process then exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.api import WebApi  # noqa: E402
from repro.core.config import HyRecConfig  # noqa: E402
from repro.core.server import HyRecServer  # noqa: E402
from repro.web.async_server import AsyncHyRecServer  # noqa: E402

from common import (  # noqa: E402
    POP_USERS,
    POP_WRITES,
    SETUPS,
    collect,
    current_rss_mb,
    ingest,
    now,
    peak_rss_mb,
    zipf_stream,
)
from layers import instrument, meter_layers, span_layers, zero_layers  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Staleness bound of the response cache, in seconds: long enough that
#: only writes and LRU evictions remove entries during a run.
CACHE_TTL = 60.0


def _setup(seed: int, stream, first_users: list[int]):
    start = now()
    server = HyRecServer(HyRecConfig(cache_ttl=CACHE_TTL), seed=seed)
    rss0 = current_rss_mb()
    t = now()
    writes = ingest(server.record_rating, stream)
    ingest_s = now() - t
    rss1 = current_rss_mb()
    t = now()
    api = WebApi(server)
    for user in first_users:
        api.online(user)
    first_ms = (now() - t) * 1e3
    collect()
    figures = {
        "setup_s": now() - start,
        "write_rate_wps": writes / ingest_s,
        "first_request_ms": first_ms,
        "ingest_rss_mb": rss1 - rss0,
        "first_rss_mb": current_rss_mb() - rss1,
    }
    return server, figures


def _snap(server: HyRecServer, front: AsyncHyRecServer) -> dict:
    cache = front.cache.stats
    reading = server.meter.reading("server->client")
    return {
        "online_requests": server.stats.online_requests,
        "knn_updates": server.stats.knn_updates,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_invalidations": cache.invalidations,
        "shed": front._shed,
        "wire_bytes": reading.wire_bytes,
        "raw_bytes": reading.raw_bytes,
        "messages": reading.messages,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)
        tracer.enabled = False
    stream = zipf_stream(args.seed, POP_USERS, POP_WRITES, 0)
    first_users = stream.most_active_users()
    collect()
    server, figures = _setup(args.seed, stream, first_users)
    setups = [figures]
    front = AsyncHyRecServer(server)
    front.start()
    users = server.profiles.users()
    tokens = {uid: server.anonymizer.token_for_user(uid) for uid in sorted(users)}
    print(
        json.dumps({"port": front.address[1], "tokens": tokens}),
        flush=True,
    )
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "snap":
                print(json.dumps(_snap(server, front)), flush=True)
            elif command in ("trace on", "trace off") and tracer is not None:
                tracer.enabled = command == "trace on"
                print(json.dumps({"trace": tracer.enabled}), flush=True)
            elif command == "stop":
                break
    finally:
        front.stop()
        server.close()
    report = {"peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.enabled = False
        layers = zero_layers()
        span_layers(tracer, layers)
        meter_layers(server, layers)
        report["layers"] = {name: value for name, (value, _) in layers.items()}
        report["table"] = tracer.table_lines("web.online")
        if args.spans:
            tracer.dump(args.spans)
    del server, front
    for _ in range(0 if tracer else SETUPS - 1):
        collect()
        _, figures = _setup(args.seed, stream, first_users)
        setups.append(figures)
    report["setups"] = setups
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
