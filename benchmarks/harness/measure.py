"""Measuring: the calibration spin, the fleet under test, the closed loop.

Load shape: closed loop, one ``ServiceClient`` connection, one query
outstanding — callers of ``ServiceClient.run``/``stream`` wait for their
reply, so a closed loop is the real usage.  One generator thread: on two
cores a second one would fight the calibration spin for the GIL and the
fleet front-end for a core.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core.naive import naive_top_k
from repro.service import ServeFleet, ServiceClient
from repro.service.client import ServiceError

from workloads import Query, Workload, build_relations, warmup_queries

HARNESS_DIR = Path(__file__).resolve().parent

#: Iterations of the calibration spin (~25 ms on the reference sandbox).
#: A constant: the spin is the unit every ``_norm`` metric is expressed
#: in, so changing it rescales the whole trajectory.
SPIN_ITERATIONS = 500_000

#: One spin unit in seconds, nominally.  BENCHMARK.json must state the
#: set-up time in ``s``, so ``setup_s`` is measured in spin units like
#: every other timing and multiplied by this; on a box whose spin takes
#: 26 ms it equals wall-clock seconds.  (Wall-clock set-up seconds follow
#: the host: ten-run medians of one commit read 0.26 s and 0.34 s hours
#: apart, further than any bound allows; in spin units they agree.)
NOMINAL_SPIN_S = 0.026

#: Spins the unit of one timing is the median of.
UNIT_WINDOW = 8

#: Bracketing spins further apart than this mark their ops as noisy.
NOISY_SPREAD = 0.10

#: ``spin_cv`` / ``noisy_share`` above these flag a whole pass noisy.
NOISY_CV, NOISY_SHARE = 0.25, 0.5


def spin() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    started = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value * value
    return time.perf_counter() - started


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of any iterable of numbers."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Machine:
    """Every calibration spin of a run, for the ``machine.*`` metrics."""

    def __init__(self) -> None:
        self.spins: list[float] = []
        self.brackets = 0
        self.noisy = 0

    def spin(self) -> float:
        seconds = spin()
        self.spins.append(seconds)
        return seconds

    def unit(self, spins: list[float], index: int) -> float:
        """The spin unit of the bracket ``spins[index], spins[index + 1]``.

        The unit is the median of the UNIT_WINDOW spins nearest the
        bracket, so it follows drift over about a second without handing
        a single interrupted spin on to the timing it divides.  A bracket
        whose own two ends disagree is counted as noisy.
        """
        before, after = spins[index], spins[index + 1]
        self.brackets += 1
        self.noisy += abs(after - before) > NOISY_SPREAD * min(before, after)
        reach = UNIT_WINDOW // 2 - 1
        return statistics.median(spins[max(0, index - reach):index + reach + 2])

    def bracketed(self, fn, reps: int) -> tuple[list[float], list[float]]:
        """Time ``fn(rep)`` ``reps`` times -> (normalised, raw seconds)."""
        raw = []
        spins = [self.spin()]
        for rep in range(reps):
            started = time.perf_counter()
            fn(rep)
            raw.append(time.perf_counter() - started)
            spins.append(self.spin())
        return [seconds / self.unit(spins, rep)
                for rep, seconds in enumerate(raw)], raw

    @property
    def spin_p50(self) -> float:
        return statistics.median(self.spins)

    @property
    def spin_cv(self) -> float:
        return statistics.pstdev(self.spins) / statistics.fmean(self.spins)

    @property
    def noisy_share(self) -> float:
        return self.noisy / self.brackets if self.brackets else 0.0

    def state(self) -> dict:
        """The spin statistics of a pass and the noise flag they imply."""
        return {
            "spin_p50_s": self.spin_p50, "spin_cv": self.spin_cv,
            "noisy_share": self.noisy_share,
            "noisy": self.spin_cv > NOISY_CV or self.noisy_share > NOISY_SHARE,
        }


# ----------------------------------------------------------------------
# Environment pin and hygiene
# ----------------------------------------------------------------------
def _home_cache_state() -> tuple:
    """What ``~/.cache/repro`` looks like (the run must not change it)."""
    root = Path(os.path.expanduser("~")) / ".cache" / "repro"
    try:
        entries = sorted(root.iterdir())
    except OSError:
        return ()
    return tuple((str(p), p.stat().st_mtime_ns) for p in [root, *entries])


@contextlib.contextmanager
def pinned_environment():
    """A private work dir, cache home and kernel routes for one run.

    Every process the fleet forks inherits the private ``XDG_CACHE_HOME``
    and the shipped hand-set kernel thresholds (``set_thresholds({})``),
    so no run calibrates, reads or writes a per-machine cache file; what
    calibration costs is reported by ``kernels.calibrate_s`` instead.
    Fails the run if a child process survives it or ``~/.cache/repro``
    changed under it.
    """
    scratch = HARNESS_DIR / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    saved = {name: os.environ.get(name) for name in ("XDG_CACHE_HOME", "TMPDIR")}
    saved_tempdir = tempfile.tempdir
    home_before = _home_cache_state()
    os.environ["XDG_CACHE_HOME"] = str(workdir / "xdg")
    os.environ["TMPDIR"] = tempfile.tempdir = str(workdir)
    repro.set_thresholds({})
    try:
        yield workdir
    finally:
        tempfile.tempdir = saved_tempdir
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # unless another run is using it
        leaked = multiprocessing.active_children()
        for child in leaked:
            child.terminate()
            child.join(timeout=5.0)
    if leaked:
        raise RuntimeError(f"child processes outlived the run: {leaked}")
    if _home_cache_state() != home_before:
        raise RuntimeError("the run touched ~/.cache/repro")


def peak_rss_mb() -> float | None:
    """Sum of ``VmHWM`` over this process and its live children, in MB."""
    total_kb = 0
    pids = [os.getpid()] + [c.pid for c in multiprocessing.active_children()]
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            return None
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# The fleet under test
# ----------------------------------------------------------------------
class Serving:
    """One workload's set-up: inputs, a ready fleet, a connected client.

    Constructing it *is* the set-up; ``setup_s`` runs from there to the
    moment the first timed op could be sent, and ``close()`` undoes it.
    The fleet is what ``python -m repro serve --workers 2`` builds —
    library defaults — over a fresh shared cache directory.
    """

    def __init__(self, workload: Workload, seed: int, ops: int,
                 workdir: Path) -> None:
        started = time.perf_counter()
        self.timings: dict[str, float] = {}
        self.warmups: list[tuple[Query, dict]] = []
        self.thread = self.client = None
        try:
            self.relations = build_relations(workload, seed, self.timings)
            self.fleet = ServeFleet(
                self.relations, workers=2, port=0,
                shared_cache_dir=tempfile.mkdtemp(prefix="cache-", dir=workdir),
            )
            self.thread = threading.Thread(target=self.fleet.run, daemon=True)
            self.thread.start()
            if not self.fleet.ready.wait(timeout=60.0):
                raise RuntimeError("fleet never became ready")
            self.client = ServiceClient(
                self.fleet.host, self.fleet.port, timeout=60.0
            ).connect()
            for query in warmup_queries(workload, ops):
                final = self.client.run(timeout=60.0, **query.request())
                if final["state"] != "DONE":
                    raise RuntimeError(f"warm-up query failed: {final}")
                self.warmups.append((query, final))
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def close(self) -> None:
        """Shut down through the ``shutdown`` verb and join everything."""
        if self.client is not None:
            self.client.close()
            self.client = None
        thread, self.thread = self.thread, None
        if thread is None:
            return
        if self.fleet.ready.is_set():
            try:
                with ServiceClient(self.fleet.host, self.fleet.port) as client:
                    client.shutdown()
            except (OSError, ConnectionError, ServiceError):
                self.fleet.begin_shutdown()
        thread.join(timeout=60.0)
        if thread.is_alive():
            raise RuntimeError("fleet did not shut down")


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed query as the client saw it."""

    query: Query
    ttk: float | None = None
    ttfr: float | None = None
    submit_rtt: float | None = None
    events: int = 0
    snapshot: dict | None = None
    error: str | None = None
    #: Wall seconds from this op's start to the next one's (spins apart):
    #: ``ttk`` plus whatever the harness does between two ops.
    cycle: float = 0.0
    unit: float = 0.0

    @property
    def ttk_norm(self) -> float:
        return self.ttk / self.unit


def run_op(client: ServiceClient, query: Query, spans=None, trace: str = "") -> Op:
    """Submit one query and stream it to ``done``.

    A refused, throttled, timed-out or failed query comes back with
    ``error`` set and no latency: it counts against ``error_rate`` and
    posts no timing.
    """
    op = Op(query)
    started = time.perf_counter()
    try:
        session = client.submit(**query.request())
        submitted = time.perf_counter()
        first = done = None
        for event in client.stream(session):
            op.events += 1
            if event["event"] == "result":
                if first is None:
                    first = time.perf_counter()
            elif event["event"] == "done":
                done = time.perf_counter()
                op.snapshot = event
    except (ServiceError, OSError, TimeoutError) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
        client.close()  # a half-read stream would poison the next op
        return op
    op.submit_rtt = submitted - started
    op.ttfr = (first if first is not None else done) - started
    op.ttk = done - started
    if spans is not None:
        first = first if first is not None else done
        root = spans.add(
            "query", trace, started, done, left=query.left, k=query.k,
            operator=query.operator, algorithm=query.algorithm,
            pulls=op.snapshot["pulls"], steps=op.snapshot["steps"],
            server_latency=op.snapshot["latency"],
            from_cache=op.snapshot["from_cache"],
        )
        spans.add("service.client.submit", trace, started, submitted, root)
        spans.add("service.stream.first_result", trace, submitted, first, root)
        spans.add("service.stream.to_done", trace, first, done, root)
    return op


def run_pass(client: ServiceClient, queries: list[Query], spin_every: int,
             machine: Machine, spans=None) -> list[Op]:
    """The timed closed loop: a calibration spin around every group."""
    groups: list[list[Op]] = []
    spins = [machine.spin()]
    for start in range(0, len(queries), spin_every):
        started = time.perf_counter()
        group = [
            run_op(client, query, spans, trace=f"q{start + offset}")
            for offset, query in enumerate(queries[start:start + spin_every])
        ]
        cycle = (time.perf_counter() - started) / len(group)
        for op in group:
            op.cycle = cycle
        groups.append(group)
        spins.append(machine.spin())
    for index, group in enumerate(groups):
        unit = machine.unit(spins, index)
        for op in group:
            op.unit = unit
    return [op for group in groups for op in group]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
@dataclass
class Oracle:
    """Checks ``done`` snapshots against the naive join-and-sort answer."""

    relations: dict
    cold: bool
    _scores: dict = field(default_factory=dict)

    def expected(self, query: Query) -> list[float]:
        key = (query.left, query.right, query.k, query.weights)
        if key not in self._scores:
            top = naive_top_k(
                self.relations[query.left].tuples,
                self.relations[query.right].tuples,
                query.scoring(), query.k,
            )
            self._scores[key] = [round(r.score, 6) for r in top]
        return self._scores[key]

    def failure(self, op: Op, check_scores: bool) -> str | None:
        """Why this op does not count as a correct answer, if it does not."""
        if op.error is not None:
            return op.error
        snap = op.snapshot
        if snap["state"] != "DONE" or not snap["complete"] or snap["error"]:
            return f"state {snap['state']} complete={snap['complete']}"
        if snap["results"] != op.query.k:
            return f"{snap['results']} results for k={op.query.k}"
        if snap["from_cache"] == self.cold:
            return f"from_cache={snap['from_cache']} on a " + (
                "cold" if self.cold else "warm") + " workload"
        if check_scores and snap["scores"] != self.expected(op.query):
            return "scores differ from the naive oracle"
        return None

    def check(self, ops: list[Op], seed: int) -> dict[int, str]:
        """Op index -> why it failed, over a pass.

        Warm: every op (sixteen distinct answers, each computed once).
        Cold: the first, the last and a seeded one-in-four sample get
        the full score comparison; every op gets the state checks.
        """
        rng = random.Random(f"oracle:{seed}")
        failures = {}
        for index, op in enumerate(ops):
            sampled = (not self.cold or index in (0, len(ops) - 1)
                       or rng.random() < 0.25)
            reason = self.failure(op, sampled)
            if reason is not None:
                failures[index] = (f"op {index} ({op.query.operator} on "
                                   f"{op.query.left}): {reason}")
        return failures
