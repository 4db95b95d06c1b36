"""Shared pieces of the benchmark: inputs, statistics, memory, results.

Every workload module exposes ``run(seed, seconds, tracer) -> Result``.
Inputs come from :func:`zipf_stream`, which draws the repository's own
heavy-tailed :class:`~repro.datasets.synthetic.SyntheticSpec` stream, so
the same seed always yields the same writes and requests.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.synthetic import StreamingLoader, SyntheticSpec
from repro.obs.timing import nearest_rank

#: Population behind ``replay_zipf``, ``http_mixed`` and ``burst_sharded``.
POP_USERS = 20_000
POP_WRITES = 200_000

#: Requests timed as ``first_request_ms``: one window on ``burst_sharded``.
FIRST_REQUESTS = 16

#: Set-ups per run; ``setup_s`` and the set-up-derived metrics report
#: their median.  The first set-up serves the timed phase; the others
#: run after it, so that the median spans the run rather than one
#: stretch of a host whose speed drifts over seconds.
SETUPS = 3


@dataclass(frozen=True)
class Stream:
    """A zipf write stream: ``population`` writes, then the timed part."""

    users: np.ndarray
    items: np.ndarray
    values: np.ndarray
    population: int

    @property
    def timed(self) -> int:
        return self.users.size - self.population

    def most_active_users(self) -> list[int]:
        """The ``FIRST_REQUESTS`` users with the most population writes.

        Set-ups end with these users' requests, so ``first_request_ms``
        times the same kind of work on every seed: the heaviest profiles,
        and the one-off item-postings rebuild that the first request
        with enough candidate mass pays.
        """
        counts = np.bincount(self.users[: self.population])
        order = np.lexsort((np.arange(counts.size), -counts))
        return [int(user) for user in order[:FIRST_REQUESTS]]

    def event(self, index: int) -> tuple[int, int, float, float]:
        """Timed event ``index`` as ``(user, item, value, timestamp)``."""
        pos = self.population + index
        return (
            int(self.users[pos]),
            int(self.items[pos]),
            float(self.values[pos]),
            float(pos),
        )


def zipf_stream(seed: int, num_users: int, writes: int, timed: int) -> Stream:
    """The first ``writes`` draws are the population, the rest are timed.

    The catalog is half the user count, as in the default spec.  Draws
    are sequential, so a longer ``timed`` tail never changes the
    population or the start of the tail.
    """
    spec = SyntheticSpec(
        num_users=num_users,
        catalog=max(1, num_users // 2),
        total_writes=writes + timed,
        seed=seed,
    )
    parts = list(StreamingLoader(spec).chunks())
    return Stream(
        users=np.concatenate([p[0] for p in parts]),
        items=np.concatenate([p[1] for p in parts]),
        values=np.concatenate([p[2] for p in parts]),
        population=writes,
    )


def ingest(record, stream: Stream, chunk: int = 65_536) -> int:
    """Feed the population writes to ``record``; returns the count.

    Converts one chunk of arrays to Python scalars at a time, so the
    inputs stay compact arrays and do not inflate the measured RSS.
    """
    for start in range(0, stream.population, chunk):
        stop = min(start + chunk, stream.population)
        for user, item, value, ts in zip(
            stream.users[start:stop].tolist(),
            stream.items[start:stop].tolist(),
            stream.values[start:stop].tolist(),
            range(start, stop),
        ):
            record(user, item, value, float(ts))
    return stream.population


# --- statistics --------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``values`` need not be sorted)."""
    return nearest_rank(sorted(values), q / 100.0)


def median(values: list[float]) -> float:
    return statistics.median(values)


def digest(value: object) -> str:
    """Short stable digest of a value's ``repr`` (recommendation lists)."""
    return hashlib.sha1(repr(value).encode()).hexdigest()[:16]


# --- memory ------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set of this process right now, in MB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def private_mb(pid: int) -> float:
    """Memory a live process holds and shares with no other, in MB.

    A forked worker shares its parent's pages until it writes them, so
    its own resident set would count the parent's memory twice.
    """
    total_kb = 0
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def collect() -> None:
    """Run a full collection of the cyclic garbage collector.

    Called before each set-up, to drop the previous one, and at the end
    of each set-up, so that scanning the set-up's objects is paid there
    and not as a pause in the timed phase.
    """
    gc.collect()


def now() -> float:
    return time.perf_counter()


# --- results -----------------------------------------------------------------


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a metric name to ``(value, unit)``; ``extra`` holds
    metrics that are printed but not gated in ``BENCHMARK.json``; ``checks``
    holds ``(name, passed, detail)`` correctness gates; ``notes`` are
    human-readable lines (sample counts, tables) printed before the
    result line.
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def latency(
        self, samples_ms: list[float], group: int = 1, what: str = "requests"
    ) -> None:
        """Book p50 (gated) and p90/p99 (printed) with their sample counts.

        ``group`` requests that complete together (one window) count as
        one independent sample.
        """
        self.metric("latency_p50_ms", percentile(samples_ms, 50), "ms")
        for q in (90, 99):
            self.extra[f"latency_p{q}_ms"] = (percentile(samples_ms, q), "ms")
        beyond = [
            (len(samples_ms) - int(np.ceil(q * len(samples_ms)))) // group
            for q in (0.9, 0.99)
        ]
        self.notes.append(
            f"latency over {len(samples_ms)} {what} in "
            f"{len(samples_ms) // group} independent samples; "
            f"{beyond[0]} beyond p90, {beyond[1]} beyond p99"
        )

    def setup_metrics(self, setups: list[dict], warmup_s: float = 0.0) -> None:
        """Book the set-up metrics of several set-ups of one run.

        ``setup_s`` is their median (plus ``warmup_s``, a warm-up done
        once).  ``write_rate_wps`` and ``first_request_ms`` are the best
        of them: the same work repeated on a fresh server, where a slower
        repetition means the shared host was busy, not the program.  Both
        time work of under a second per set-up, which on a host whose
        speed swings by half within seconds spreads too widely to gate;
        they are printed, and ``setup_s`` carries them.
        """
        self.metric("setup_s", median([s["setup_s"] for s in setups]) + warmup_s, "s")
        self.extra["write_rate_wps"] = (
            max(s["write_rate_wps"] for s in setups),
            "writes/s",
        )
        self.extra["first_request_ms"] = (
            min(s["first_request_ms"] for s in setups),
            "ms",
        )
