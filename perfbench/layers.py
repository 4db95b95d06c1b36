"""Which program functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is reported on every workload.  A layer that does
no work on a workload reads 0 there, which is its "no change"
prediction: ``engine`` and ``cluster`` on ``http_mixed``, ``web`` outside
``http_mixed``, ``cluster`` outside ``burst_sharded``.
"""

from __future__ import annotations

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.process_executor import ProcessExecutor
from repro.core.api import WebApi
from repro.core.sampler import HyRecSampler
from repro.core.server import HyRecServer
from repro.engine.widget import VectorizedWidget

from tracer import Tracer

#: (metric, unit, the end-to-end metric it should move, on which workload)
PER_LAYER = [
    ("core.sample_us", "us", "latency_p50_ms, throughput_rps", "replay_zipf, burst_sharded"),
    ("core.job_build_us", "us", "latency_p50_ms, throughput_rps", "replay_zipf, burst_sharded"),
    ("core.online_job_us", "us", "latency_p90_ms, throughput_rps", "http_mixed"),
    ("core.record_rating_us", "us", "write_rate_wps, setup_s", "cold_100k, replay_zipf"),
    ("core.knn_update_us", "us", "latency_p50_ms", "replay_zipf, http_mixed"),
    ("core.candidates_per_req", "count", "messages.render_us, engine.kernel_us", "all"),
    ("messages.render_us", "us", "latency_p50_ms (cache misses on http_mixed)", "replay_zipf, http_mixed"),
    ("messages.compress_ratio", "ratio", "wire_bytes_per_req", "replay_zipf, http_mixed"),
    ("engine.kernel_us", "us", "latency_p50_ms", "replay_zipf"),
    ("engine.first_kernel_ms", "ms", "first_request_ms, setup_s", "cold_100k, replay_zipf"),
    ("engine.arena_bytes", "bytes", "peak_rss_mb", "cold_100k, replay_zipf"),
    ("engine.postings_bytes", "bytes", "peak_rss_mb", "cold_100k, replay_zipf"),
    ("mem.ingest_rss_mb", "MB", "peak_rss_mb", "cold_100k, replay_zipf"),
    ("mem.first_request_rss_mb", "MB", "peak_rss_mb", "cold_100k, replay_zipf"),
    ("cluster.batch_us", "us", "throughput_rps, latency_p90_ms", "burst_sharded"),
    ("cluster.ipc_us", "us", "throughput_rps, latency_p90_ms", "burst_sharded"),
    ("cluster.merge_us", "us", "throughput_rps, latency_p90_ms", "burst_sharded"),
    ("cluster.shard_users_max_over_mean", "ratio", "latency_p90_ms", "burst_sharded"),
    ("web.cache_hit_ratio", "ratio", "latency_p50_ms, throughput_rps", "http_mixed"),
    ("web.cache_invalidations", "count", "latency_p50_ms, throughput_rps", "http_mixed"),
    ("web.online_us", "us", "latency_p90_ms, throughput_rps", "http_mixed"),
    ("web.neighbors_us", "us", "latency_p90_ms, throughput_rps", "http_mixed"),
    ("web.shed", "count", "failed_frac", "http_mixed"),
    ("gen.lateness_ms", "ms", "(validity of the open loop)", "http_mixed"),
    ("trace.overhead_frac", "ratio", "(cost of this traced run)", "all"),
]

#: Span self times that make up one request on the blocking path.
ENGINE_PATH = (
    "core.job_build",
    "core.sample",
    "messages.render",
    "engine.kernel",
    "core.knn_update",
)
CLUSTER_PATH = (
    "core.job_build",
    "core.sample",
    "messages.render",
    "cluster.batch",
    "cluster.ipc",
    "core.knn_update",
)


def _count_candidates(tracer: Tracer, job) -> None:
    ids = getattr(job, "candidate_ids", None)
    tracer.count(
        "candidates", len(ids) if ids is not None else len(job.candidates)
    )


def instrument(tracer: Tracer) -> None:
    """Wrap the public function of each layer that a request calls."""
    tracer.wrap(HyRecSampler, "sample", "core.sample")
    tracer.wrap(
        HyRecServer, "handle_engine_request", "core.job_build", _count_candidates
    )
    tracer.wrap(
        HyRecServer, "handle_online_request", "core.online_job", _count_candidates
    )
    tracer.wrap(HyRecServer, "record_rating", "core.record_rating", tally=True)
    tracer.wrap(HyRecServer, "handle_knn_update", "core.knn_update")
    tracer.wrap(HyRecServer, "render_engine_response", "messages.render")
    tracer.wrap(HyRecServer, "render_online_response", "messages.render")
    tracer.wrap(VectorizedWidget, "process_engine_job", "engine.kernel")
    tracer.wrap(ClusterCoordinator, "process_batch", "cluster.batch")
    tracer.wrap(ProcessExecutor, "run_slices", "cluster.ipc")
    tracer.wrap(WebApi, "online", "web.online")
    tracer.wrap(WebApi, "neighbors_from_body", "web.neighbors")


def zero_layers() -> dict[str, tuple[float, str]]:
    return {name: (0.0, unit) for name, unit, _, _ in PER_LAYER}


def span_layers(tracer: Tracer, layers: dict[str, tuple[float, str]]) -> None:
    """Fill the span-derived per-layer metrics (per-call means)."""
    rows = tracer.self_times()

    def per_call(span: str, whole: bool = False) -> float:
        calls, total, own = rows.get(span, (0, 0.0, 0.0))
        return (total if whole else own) / calls if calls else 0.0

    layers["core.sample_us"] = (per_call("core.sample"), "us")
    layers["core.job_build_us"] = (per_call("core.job_build"), "us")
    layers["core.online_job_us"] = (per_call("core.online_job"), "us")
    layers["core.record_rating_us"] = (per_call("core.record_rating"), "us")
    layers["core.knn_update_us"] = (per_call("core.knn_update"), "us")
    layers["messages.render_us"] = (per_call("messages.render"), "us")
    layers["cluster.batch_us"] = (per_call("cluster.batch", whole=True), "us")
    layers["cluster.ipc_us"] = (per_call("cluster.ipc"), "us")
    layers["cluster.merge_us"] = (per_call("cluster.batch"), "us")
    layers["web.online_us"] = (per_call("web.online", whole=True), "us")
    layers["web.neighbors_us"] = (per_call("web.neighbors", whole=True), "us")
    candidates = tracer.counts.get("candidates", [])
    layers["core.candidates_per_req"] = (
        sum(candidates) / len(candidates) if candidates else 0.0,
        "count",
    )
    kernels = sorted(
        (span for span in tracer.spans if span[0] == "engine.kernel"),
        key=lambda span: span[1],
    )
    if kernels:
        first = kernels[0]
        layers["engine.first_kernel_ms"] = ((first[2] - first[1]) / 1e6, "ms")
        steady = kernels[1:] or kernels
        layers["engine.kernel_us"] = (
            sum(s[2] - s[1] for s in steady) / len(steady) / 1e3,
            "us",
        )


def path_coverage(tracer: Tracer, root: str, path: tuple[str, ...]) -> float:
    """Share of the ``root`` spans' time that ``path`` self times cover.

    The root spans are the benchmark's own timers around each request,
    so this compares the layers' self times with end-to-end time.
    Only spans belonging to a root's request count.
    """
    roots = {span[5]: span for span in tracer.spans if span[0] == root}
    root_ns = sum(span[2] - span[1] for span in roots.values())
    rows = tracer.self_times(requests=set(roots))
    covered = sum(rows.get(name, (0, 0.0, 0.0))[2] for name in path)
    return covered * 1e3 / root_ns if root_ns else 0.0


def meter_layers(server: HyRecServer, layers: dict[str, tuple[float, str]]) -> None:
    """``messages.compress_ratio`` from the server's wire meter."""
    reading = server.meter.reading("server->client")
    if reading.raw_bytes:
        layers["messages.compress_ratio"] = (
            reading.wire_bytes / reading.raw_bytes,
            "ratio",
        )


def matrix_layers(server: HyRecServer, layers: dict[str, tuple[float, str]]) -> None:
    """``engine.arena_bytes`` / ``engine.postings_bytes`` of the liked matrix."""
    if server.liked_matrix is None:
        return
    stats = server.liked_matrix.memory_stats()
    layers["engine.arena_bytes"] = (float(stats["arena_bytes"]), "bytes")
    layers["engine.postings_bytes"] = (float(stats["postings_bytes"]), "bytes")
