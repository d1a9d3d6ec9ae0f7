"""Parallel simulation campaigns with a content-addressed result cache.

A *campaign* is a batch of independent simulation points — the unit the
whole evaluation is made of (figures 5–8, tables III–IV, the crash
matrix).  This module fans those points out across a multiprocessing
worker pool, memoises every completed point in an on-disk
:class:`~repro.harness.cache.ResultCache`, and supports running each
point at several seeds with mean/CI aggregation.  Because runs are
bit-for-bit deterministic (the contract ``tests/test_determinism.py``
enforces), a parallel campaign produces exactly the serial results, and
a warm cache replays an entire experiment in milliseconds.

Three layers use it:

* ``python -m repro.harness`` (``--jobs/--seeds/--no-cache`` flags),
* :mod:`repro.harness.experiments` (every experiment submits its points
  as one batch), and
* the benchmark suite (session-scoped ``campaign`` fixture).

The **crash sweep** turns the sampled hypothesis crash tests into an
exhaustive grid: every (design × workload × seed × crash-cycle) point
runs a scaled-down machine, cuts power, recovers, and differential-
checks the durable image against the golden model replayed over exactly
the committed transactions.  The points of one run share its simulated
prefix: the run is simulated once and a forked child crashes it at each
point (:func:`execute_crash_point`).
"""

from __future__ import annotations

import atexit
import dataclasses
import heapq
import itertools
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _conn_wait

from repro.common.errors import ReproError, SimulationError, WorkloadError
from repro.common.log import get_logger
from repro.config import Design
from repro.harness.cache import ResultCache, spec_key
from repro.harness.report import describe_spec, format_table, mean_ci
from repro.harness.runner import RunResult, RunSpec, run_spec
from repro.harness.supervise import FailedOutcome, RetryPolicy
from repro.obs.fabric import FabricTelemetry

log = get_logger("campaign")


class CampaignError(ReproError):
    """A worker process failed while executing a campaign point."""


# -- serialisation ------------------------------------------------------------


def result_to_dict(result: RunResult) -> dict:
    """JSON-encodable payload for one :class:`RunResult`."""
    spec = dataclasses.asdict(result.spec)
    spec["design"] = result.spec.design.value
    return {
        "spec": spec,
        "cycles": result.cycles,
        "txns": result.txns,
        "throughput": result.throughput,
        "sq_full_cycles": result.sq_full_cycles,
        "log_entries": result.log_entries,
        "source_logged": result.source_logged,
        "log_writes": result.log_writes,
        "stats": result.stats,
    }


def result_from_dict(payload: dict) -> RunResult:
    """Inverse of :func:`result_to_dict`."""
    spec_d = dict(payload["spec"])
    spec_d["design"] = Design(spec_d["design"])
    return RunResult(
        spec=RunSpec(**spec_d),
        cycles=payload["cycles"],
        txns=payload["txns"],
        throughput=payload["throughput"],
        sq_full_cycles=payload["sq_full_cycles"],
        log_entries=payload["log_entries"],
        source_logged=payload["source_logged"],
        log_writes=payload["log_writes"],
        stats=payload["stats"],
    )


# -- worker entry points ------------------------------------------------------
#
# Pool targets must be importable top-level functions.  They return
# ("ok", payload) / ("err", message) tuples instead of raising so that a
# crashing worker surfaces a readable CampaignError in the parent rather
# than an unpicklable exception or a hung pool.


def _execute_run(spec: RunSpec) -> RunResult:
    """Run one simulation point (also the determinism-test target)."""
    return run_spec(spec)


def _run_worker(spec: RunSpec) -> tuple:
    try:
        return ("ok", result_to_dict(_execute_run(spec)))
    except BaseException as exc:  # noqa: BLE001 — reported in the parent
        return ("err", f"{spec!r}\n{type(exc).__name__}: {exc}\n"
                       f"{traceback.format_exc()}")


def _crash_worker(spec: "CrashSpec") -> tuple:
    try:
        return ("ok", _crash_outcome_dict(execute_crash_point(spec)))
    except BaseException as exc:  # noqa: BLE001
        return ("err", f"{spec!r}\n{type(exc).__name__}: {exc}\n"
                       f"{traceback.format_exc()}")


# -- the supervised persistent worker pool ------------------------------------


def _pool_worker_main(conn, chaos=None) -> None:
    """Worker loop: receive tasks on a private duplex pipe, reply inline.

    Each task frame is ``(index, attempt, worker_fn, spec)``; the reply
    is one binary pickle frame ``(index, attempt, (status, payload))``.
    An empty frame is the shutdown sentinel.  Worker functions arrive by
    reference, so the model modules they live in are imported once per
    worker (on first use) and stay warm for every following point —
    this is what kills the per-batch spawn + import cost of a
    fork-per-batch pool.

    ``chaos`` is an optional :class:`repro.harness.chaos.ChaosPlan`:
    injected fabric faults (worker death, hangs, torn result frames)
    fire here, keyed deterministically by (task index, attempt), so the
    supervisor in the parent can be tested against real process death.
    """
    try:
        while True:
            frame = conn.recv_bytes()
            if not frame:
                break
            index, attempt, worker_fn, spec = pickle.loads(frame)
            action = (chaos.action_for(index, attempt)
                      if chaos is not None else None)
            if action is not None:
                if action.kind == "kill":
                    os._exit(137)
                elif action.kind == "hang":
                    time.sleep(action.seconds)
            try:
                reply = worker_fn(spec)
            except BaseException as exc:  # noqa: BLE001 — surfaced in parent
                reply = ("err", f"{spec!r}\n{type(exc).__name__}: {exc}\n"
                                f"{traceback.format_exc()}")
            if action is not None and action.kind == "corrupt-frame":
                from repro.harness.chaos import CHAOS_GARBAGE_FRAME

                conn.send_bytes(CHAOS_GARBAGE_FRAME)
            else:
                conn.send_bytes(
                    pickle.dumps((index, attempt, reply),
                                 pickle.HIGHEST_PROTOCOL)
                )
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _Worker:
    """Parent-side record of one pool worker and its in-flight tasks."""

    __slots__ = ("proc", "conn", "inflight", "head_started")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        #: FIFO of ``(index, attempt)`` sent but not yet answered.  The
        #: head is the task the worker is executing *right now* (tasks
        #: behind it sit unread in the pipe) — exact in-flight
        #: attribution, which is what makes supervision possible.
        self.inflight: deque = deque()
        #: Monotonic time the current head became head (watchdog clock).
        self.head_started = 0.0


class WorkerPool:
    """Supervised, self-healing persistent campaign worker pool.

    Forked once (lazily) per :class:`Campaign` and reused for every
    batch it dispatches — workers keep their interpreter, imports, and
    warm allocator across batches, so small-point campaigns (litmus
    grids, fault matrices) don't pay process start-up per batch.  The
    parent dispatches tasks directly to idle workers over per-worker
    duplex pipes (bounded depth, so a worker never idles between
    points) and multiplexes replies with
    ``multiprocessing.connection.wait``.

    Directed dispatch is what makes the pool *supervisable*: the parent
    always knows exactly which (index, spec) each worker holds, and no
    state is shared between workers, so killing one can never corrupt
    another.  The supervisor reacts to three fault classes, all driven
    by the :class:`~repro.harness.supervise.RetryPolicy`:

    * **death** (SIGKILL, segfault, OOM): the pipe EOFs; the worker is
      respawned and its in-flight task requeued with deterministic
      exponential backoff.
    * **hang**: a worker whose head task outlives the kind's soft
      deadline is killed, logged with the spec it held, and replaced;
      the task is retried.
    * **corrupt result frame**: an unparseable reply discredits the
      worker — it is killed and replaced, and the task re-executed.

    A task that fails ``max_retries + 1`` times is *poison*: it is
    quarantined with a ``("failed", ...)`` reply so the batch completes
    and only that cell is marked failed.  When respawns exhaust the
    pool's budget, the pool degrades to inline execution in the parent
    and still finishes the batch.
    """

    def __init__(self, procs: int, retry: "RetryPolicy | None" = None,
                 chaos=None, telemetry: FabricTelemetry | None = None):
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        #: Fabric telemetry sink (shared with the owning Campaign so
        #: counts aggregate across batches).
        self.telemetry = telemetry if telemetry is not None \
            else FabricTelemetry()
        self._ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._size = procs
        self._respawns = 0
        self._degraded = False
        self._closed = False
        for _ in range(procs):
            self._spawn_worker()
        atexit.register(self.close)

    # Kept as a property: tests and tooling identify the pool's
    # processes through ``pool._procs``.
    @property
    def _procs(self) -> list:
        return [w.proc for w in self._workers]

    def __len__(self) -> int:
        return len(self._workers)

    # -- worker lifecycle -----------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.chaos),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc, parent_conn)
        self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker, kill: bool = False) -> None:
        """Remove a worker from service (its tasks already requeued)."""
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            if kill and worker.proc.is_alive():
                worker.proc.kill()
            worker.conn.close()
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=2.0)
        except (OSError, ValueError):
            pass

    def _respawn_or_degrade(self) -> None:
        """Replace a lost worker, or give up on process parallelism."""
        if self._degraded:
            return
        budget = self.retry.budget_for(self._size)
        if self._respawns >= budget:
            log.warning(f"campaign pool spent its respawn budget "
                        f"({budget}); degrading to inline execution to "
                        f"finish the batch")
            self.telemetry.emit("degrade", budget=budget)
            self._degraded = True
            for worker in list(self._workers):
                self._retire(worker, kill=True)
            return
        self._respawns += 1
        try:
            self._spawn_worker()
            self.telemetry.emit("respawn", respawns=self._respawns,
                                budget=budget)
        except OSError as exc:
            log.warning(f"campaign pool could not respawn a worker "
                        f"({exc}); degrading to inline execution")
            self.telemetry.emit("degrade", error=str(exc))
            self._degraded = True
            for worker in list(self._workers):
                self._retire(worker, kill=True)

    # -- the supervised map loop ----------------------------------------------

    def map(self, specs: Sequence, worker, kind: str = "task") -> list[tuple]:
        """Run ``worker`` over ``specs`` on the pool; order-preserving.

        Every reply is ``(status, payload)``: ``"ok"``/``"err"`` from
        the worker function itself, or ``"failed"`` synthesised here for
        a quarantined poison task.  The batch always completes — worker
        death, hangs, and torn frames are absorbed by retry/backoff,
        quarantine, and (past the respawn budget) inline fallback.
        """
        if self._closed:
            raise CampaignError("worker pool already closed")
        retry = self.retry
        tel = self.telemetry
        total = len(specs)
        out: list = [None] * total
        done = [False] * total
        attempts = [0] * total
        remaining = total
        ready: deque[int] = deque(range(total))
        delayed: list[tuple[float, int]] = []  # (due, index) heap
        depth = 2  # tasks buffered per worker: one running, one queued
        deadline = retry.timeout_for(kind)

        def describe(index: int) -> str:
            return describe_spec(specs[index], kind=kind, index=index)

        def finish(index: int, reply: tuple) -> None:
            nonlocal remaining
            if done[index]:
                return  # stale duplicate (task was requeued) — ignore
            done[index] = True
            out[index] = reply
            remaining -= 1
            # attempts[] counts failed executions; a non-failed reply
            # means one more execution succeeded after them.
            executions = attempts[index] + (reply[0] != "failed")
            tel.task_finished(index, status=reply[0], kind=kind,
                              attempts=executions)

        def task_failed(index: int, reason: str) -> None:
            if done[index]:
                return
            attempts[index] += 1
            if attempts[index] > retry.max_retries:
                log.warning(f"quarantined poison task after "
                            f"{attempts[index]} attempt(s): "
                            f"{describe(index)} ({reason})")
                tel.emit("quarantine", task=index,
                         attempts=attempts[index], reason=reason)
                finish(index, ("failed", {
                    "error": reason,
                    "attempts": attempts[index],
                    "spec": describe(index),
                }))
                return
            delay = retry.backoff(attempts[index])
            log.warning(f"{reason}; retrying in "
                        f"{delay:.2f}s (attempt {attempts[index]}/"
                        f"{retry.max_retries})")
            tel.emit("retry", task=index, attempt=attempts[index],
                     delay_s=round(delay, 3))
            heapq.heappush(delayed, (time.monotonic() + delay, index))

        def worker_lost(lost: _Worker, reason: str, kill: bool = False,
                        event: str = "worker-death") -> None:
            """Retire + replace a worker; requeue everything it held.

            Only the head task — the one actually executing — takes the
            failure penalty; tasks still buffered in the pipe were
            innocent bystanders and requeue freely.
            """
            inflight = list(lost.inflight)
            lost.inflight.clear()
            tel.emit(event,
                     task=inflight[0][0] if inflight else None,
                     reason=reason)
            self._retire(lost, kill=kill)
            if inflight:
                task_failed(inflight[0][0], reason)
                for index, _attempt in inflight[1:]:
                    if not done[index]:
                        ready.appendleft(index)
            self._respawn_or_degrade()

        while remaining:
            if self._degraded or not self._workers:
                self._finish_inline(specs, worker, done, finish)
                break
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index = heapq.heappop(delayed)
                if not done[index]:
                    ready.append(index)
            # Dispatch to idle capacity (round-robin over the workers).
            for w in list(self._workers):
                while ready and len(w.inflight) < depth:
                    index = ready.popleft()
                    if done[index]:
                        continue
                    try:
                        w.conn.send_bytes(pickle.dumps(
                            (index, attempts[index], worker, specs[index]),
                            pickle.HIGHEST_PROTOCOL,
                        ))
                    except (OSError, ValueError):
                        ready.appendleft(index)
                        worker_lost(w, "campaign worker died (task send "
                                       "failed)")
                        break
                    tel.task_dispatched(index, attempts[index], kind=kind)
                    w.inflight.append((index, attempts[index]))
                    if len(w.inflight) == 1:
                        w.head_started = time.monotonic()
            if not remaining:
                break
            if self._degraded or not self._workers:
                continue
            # Sleep until the next event can possibly need us: a reply,
            # a due requeue, or a watchdog deadline.
            wakeups = [due for due, _ in delayed[:1]]
            wakeups += [w.head_started + deadline
                        for w in self._workers if w.inflight]
            now = time.monotonic()
            timeout = max(0.0, min(wakeups) - now) if wakeups else 5.0
            conns = {w.conn: w for w in self._workers}
            for conn in _conn_wait(list(conns), timeout=timeout) or []:
                w = conns[conn]
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    head = (f" on {describe(w.inflight[0][0])}"
                            if w.inflight else "")
                    worker_lost(w, f"campaign worker exited mid-batch "
                                   f"(killed or crashed hard){head}")
                    continue
                try:
                    index, _attempt, reply = pickle.loads(frame)
                except Exception:  # noqa: BLE001 — any decode failure
                    head = (f" for {describe(w.inflight[0][0])}"
                            if w.inflight else "")
                    worker_lost(w, f"campaign worker sent a corrupt "
                                   f"result frame{head}", kill=True,
                                event="corrupt-frame")
                    continue
                if w.inflight and w.inflight[0][0] == index:
                    w.inflight.popleft()
                else:  # defensive: out-of-order reply
                    w.inflight = deque(
                        entry for entry in w.inflight if entry[0] != index
                    )
                w.head_started = time.monotonic()
                finish(index, reply)
            # Watchdog: kill workers whose head task blew its deadline.
            now = time.monotonic()
            for w in list(self._workers):
                if w.inflight and now - w.head_started > deadline:
                    worker_lost(
                        w, f"campaign worker hung >{deadline:.0f}s on "
                           f"{describe(w.inflight[0][0])}; killed",
                        kill=True, event="watchdog-kill",
                    )
        return out

    def _finish_inline(self, specs, worker, done, finish) -> None:
        """Degraded mode: execute every unfinished task in-process."""
        for index in range(len(specs)):
            if done[index]:
                continue
            self.telemetry.emit("inline-exec", task=index)
            try:
                reply = worker(specs[index])
            except BaseException as exc:  # noqa: BLE001
                reply = ("err", f"{specs[index]!r}\n"
                                f"{type(exc).__name__}: {exc}\n"
                                f"{traceback.format_exc()}")
            finish(index, reply)

    def close(self) -> None:
        """Stop the workers (idempotent; also registered atexit)."""
        if self._closed:
            return
        self._closed = True
        try:
            for w in self._workers:
                try:
                    w.conn.send_bytes(b"")  # shutdown sentinel
                except (OSError, ValueError):
                    pass
            for w in self._workers:
                w.proc.join(timeout=2.0)
            for w in self._workers:
                if w.proc.is_alive():
                    w.proc.kill()
                    w.proc.join(timeout=2.0)
                try:
                    w.conn.close()
                except OSError:
                    pass
            self._workers = []
        except (OSError, ValueError):
            pass


# -- seed replication ---------------------------------------------------------


@dataclass
class ReplicatedResult:
    """One spec run at N seeds, with mean/CI summary statistics."""

    spec: RunSpec
    results: list[RunResult]

    @property
    def seeds(self) -> int:
        return len(self.results)

    @property
    def throughput_mean(self) -> float:
        return mean_ci([r.throughput for r in self.results])[0]

    @property
    def throughput_ci(self) -> float:
        return mean_ci([r.throughput for r in self.results])[1]

    def metric(self, fn) -> tuple[float, float]:
        """(mean, CI half-width) of ``fn(result)`` across the seeds."""
        return mean_ci([fn(r) for r in self.results])


def aggregate_results(results: Sequence[RunResult]) -> RunResult:
    """Mean-aggregate seed replicas into one representative result.

    Counter fields become rounded means; the per-seed throughput spread
    is preserved under ``stats["campaign"]`` so reports can surface the
    confidence interval.
    """
    if len(results) == 1:
        return results[0]
    # Quarantined replicas (poison seeds) don't contribute numbers; if
    # every replica failed, the group's verdict is the first failure.
    failed = [r for r in results if isinstance(r, FailedOutcome)]
    if failed:
        results = [r for r in results if not isinstance(r, FailedOutcome)]
        if not results:
            return failed[0]
        if len(results) == 1:
            return results[0]
    tp_mean, tp_ci = mean_ci([r.throughput for r in results])

    def imean(fn) -> int:
        return round(sum(fn(r) for r in results) / len(results))

    return RunResult(
        spec=results[0].spec,
        cycles=imean(lambda r: r.cycles),
        txns=imean(lambda r: r.txns),
        throughput=tp_mean,
        sq_full_cycles=imean(lambda r: r.sq_full_cycles),
        log_entries=imean(lambda r: r.log_entries),
        source_logged=imean(lambda r: r.source_logged),
        log_writes=imean(lambda r: r.log_writes),
        stats={"campaign": {
            "seeds": len(results),
            "throughput_mean": tp_mean,
            "throughput_ci": tp_ci,
            "throughputs": [r.throughput for r in results],
        }},
    )


# -- the campaign itself ------------------------------------------------------


class Campaign:
    """A worker pool + result cache for batches of simulation points.

    ``jobs``:  worker processes (1 = run inline in this process;
               0 = one per CPU).
    ``seeds``: replicas per point; each spec runs at seeds
               ``spec.seed .. spec.seed + seeds - 1`` and ``run()``
               returns the mean-aggregated result per point.
    ``cache``: a :class:`ResultCache`, or ``None`` to disable caching.
    ``retry``: a :class:`~repro.harness.supervise.RetryPolicy` for the
               supervised pool (``None`` = defaults).
    ``chaos``: a :class:`~repro.harness.chaos.ChaosPlan` injected into
               pool workers (test net only; ``None`` in production).
    ``telemetry_log``: path for an append-only JSONL stream of fabric
               events (``None`` = in-memory telemetry only).
    ``progress``: repaint a live status line on stderr while batches
               run (for long campaigns; off by default).
    """

    def __init__(self, jobs: int = 1, seeds: int = 1,
                 cache: ResultCache | None = None,
                 retry: RetryPolicy | None = None, chaos=None,
                 telemetry_log=None, progress: bool = False):
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        self.jobs = jobs or (os.cpu_count() or 1)
        self.seeds = seeds
        self.cache = cache
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        #: Supervision event log + counts, shared with the worker pool
        #: and summarised by :attr:`metrics`.
        self.telemetry = FabricTelemetry(jsonl_path=telemetry_log,
                                         progress=progress)
        #: Points computed by workers (cache misses) this session.
        self.computed = 0
        #: Quarantined poison points (:class:`FailedOutcome` records),
        #: accumulated across batches.  Never cached — a poison verdict
        #: is an infrastructure observation, not a simulation result.
        self.quarantined: list[FailedOutcome] = []
        #: Persistent worker pool, forked on the first parallel batch
        #: and reused for every one after (see :class:`WorkerPool`).
        self._pool: WorkerPool | None = None

    # -- pool lifecycle -------------------------------------------------------

    def pool(self) -> WorkerPool:
        """The campaign's persistent pool (created on first use)."""
        if self._pool is None or self._pool._closed:
            self._pool = WorkerPool(self.jobs, retry=self.retry,
                                    chaos=self.chaos,
                                    telemetry=self.telemetry)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (safe to call repeatedly)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.telemetry.close()

    @property
    def metrics(self) -> dict:
        """Fabric telemetry summary, embedded in report artifacts.

        Combines the supervision event counts and per-task wall timing
        with the campaign's compute/cache balance, so any artifact
        records how its numbers were produced (cold vs. warm, how many
        retries/quarantines the fabric absorbed).
        """
        summary = self.telemetry.metrics()
        summary["computed"] = self.computed
        summary["quarantined"] = len(self.quarantined)
        summary["jobs"] = self.jobs
        summary["seeds"] = self.seeds
        if self.cache is not None:
            summary["cache"] = {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "corrupt_evictions": self.cache.corrupt_evictions,
                "disabled": self.cache.disabled,
            }
        return summary

    def __enter__(self) -> "Campaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- generic cached fan-out ----------------------------------------------

    def _map(self, specs: Sequence, worker, from_dict, kind: str) -> list:
        """Resolve each spec via cache or worker pool; order-preserving."""
        tel = self.telemetry
        tel.begin_batch(len(specs), kind)
        try:
            return self._map_inner(specs, worker, from_dict, kind)
        finally:
            tel.end_batch()

    def _map_inner(self, specs: Sequence, worker, from_dict,
                   kind: str) -> list:
        tel = self.telemetry
        evictions_before = (
            self.cache.corrupt_evictions if self.cache is not None else 0
        )
        keys = [
            spec_key(s, kind=kind) if self.cache is not None else None
            for s in specs
        ]
        out: list = [None] * len(specs)
        pending: dict[int, object] = {}
        resolved_keys: dict[str, object] = {}
        for i, (spec, key) in enumerate(zip(specs, keys)):
            if key is not None:
                if key in resolved_keys:
                    out[i] = resolved_keys[key]
                    tel.emit("cache-alias", kind=kind, task=i)
                    tel.note_cached()
                    continue
                payload = self.cache.get(key)
                if payload is not None:
                    out[i] = from_dict(payload)
                    resolved_keys[key] = out[i]
                    tel.emit("cache-hit", kind=kind, task=i)
                    tel.note_cached()
                    continue
                tel.emit("cache-miss", kind=kind, task=i)
            pending[i] = spec
        for _ in range(self.cache.corrupt_evictions - evictions_before
                       if self.cache is not None else 0):
            tel.emit("cache-corrupt-evict", kind=kind)

        if pending:
            # Identical points in one batch compute once: duplicates
            # alias the first occurrence's reply.
            primary: dict[str, int] = {}
            todo_indices: list[int] = []
            alias: dict[int, int] = {}
            for i in pending:
                key = keys[i]
                if key is not None and key in primary:
                    alias[i] = primary[key]
                    continue
                if key is not None:
                    primary[key] = i
                todo_indices.append(i)
            replies = dict(zip(
                todo_indices,
                self._dispatch([pending[i] for i in todo_indices], worker,
                               kind),
            ))
            for i, (status, payload) in replies.items():
                if status == "failed":
                    # Quarantined poison point: the batch completes and
                    # only this cell carries the failure (never cached).
                    out[i] = self._failed_outcome(kind, pending[i], payload)
                    continue
                if status != "ok":
                    raise CampaignError(
                        f"campaign worker failed on point "
                        f"[{describe_spec(pending[i], kind=kind)}]:"
                        f"\n{payload}"
                    )
                self.computed += 1
                if keys[i] is not None:
                    self.cache.put(keys[i], payload)
                out[i] = from_dict(payload)
            for i, src in alias.items():
                out[i] = out[src]
        return out

    def _dispatch(self, specs: list, worker, kind: str) -> list[tuple]:
        if self.jobs == 1 or len(specs) == 1:
            tel = self.telemetry
            out = []
            for i, s in enumerate(specs):
                tel.task_dispatched(i, 0, kind=kind, mode="inline")
                reply = worker(s)
                tel.task_finished(i, status=reply[0], kind=kind,
                                  attempts=1)
                out.append(reply)
            return out
        return self.pool().map(specs, worker, kind=kind)

    def _failed_outcome(self, kind: str, spec, info: dict):
        """Fold a quarantined task into the kind's outcome type.

        Sweep kinds have a structured per-point verdict with an
        ``error`` field, so the existing renderers and failure counts
        pick the poison cell up unchanged; plain ``run`` points return
        the generic :class:`FailedOutcome`.  Every quarantine is also
        recorded on :attr:`quarantined`.
        """
        error = (f"quarantined after {info['attempts']} attempt(s): "
                 f"{info['error']}")
        failed = FailedOutcome(kind=kind, spec=spec, error=error,
                               attempts=info["attempts"])
        self.quarantined.append(failed)
        if kind == "crash":
            return CrashOutcome(spec=spec, ok=False, error=error)
        if kind == "fault":
            from repro.faults.sweep import FaultOutcome

            return FaultOutcome(spec=spec, ok=False, error=error)
        if kind == "litmus":
            from repro.litmus.explorer import LitmusOutcome

            return LitmusOutcome(point=spec, state=None, error=error)
        return failed

    # -- simulation points ----------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Run a batch of points; returns results in submission order.

        With ``seeds > 1`` every spec is expanded into seed replicas
        (all sharing the pool and the cache) and the aggregated result
        is returned per original spec.
        """
        specs = list(specs)
        expanded: list[RunSpec] = [
            replace(spec, seed=spec.seed + k)
            for spec in specs
            for k in range(self.seeds)
        ]
        flat = self._map(expanded, _run_worker, result_from_dict, "run")
        return [
            aggregate_results(flat[i * self.seeds:(i + 1) * self.seeds])
            for i in range(len(specs))
        ]

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]

    def run_replicated(self, spec: RunSpec,
                       seeds: int | None = None) -> ReplicatedResult:
        """Run ``spec`` at N consecutive seeds; keep per-seed results."""
        n = seeds if seeds is not None else max(2, self.seeds)
        points = [replace(spec, seed=spec.seed + k) for k in range(n)]
        flat = self._map(points, _run_worker, result_from_dict, "run")
        return ReplicatedResult(spec=spec, results=flat)

    # -- crash sweep ----------------------------------------------------------

    def run_crash(self, specs: Sequence["CrashSpec"]) -> list["CrashOutcome"]:
        """Differential-check a batch of crash points (cached, pooled).

        Consecutive points of one run share its simulated prefix (see
        :func:`execute_crash_point`), so submit each run's points
        together in ascending crash-cycle order, as :func:`crash_grid`
        does.
        """
        try:
            return self._map(list(specs), _crash_worker,
                             _crash_outcome_from_dict, "crash")
        finally:
            _drop_live_run()

    # -- litmus points --------------------------------------------------------

    def run_litmus(self, points: Sequence) -> list:
        """Run litmus crash points (cached, pooled).

        ``points`` are :class:`repro.litmus.explorer.LitmusPoint`s; the
        result is order-preserving :class:`LitmusOutcome`s.  Imported
        lazily so the campaign layer has no hard litmus dependency.
        """
        from repro.litmus.explorer import _outcome_from_dict, litmus_worker

        return self._map(list(points), litmus_worker,
                         _outcome_from_dict, "litmus")

    # -- fault points ---------------------------------------------------------

    def run_faults(self, specs: Sequence) -> list:
        """Run fault-injection points (cached, pooled).

        ``specs`` are :class:`repro.faults.sweep.FaultSpec`s; the result
        is order-preserving :class:`FaultOutcome`s.  Imported lazily,
        like the litmus hook.
        """
        from repro.faults.sweep import _outcome_from_dict, fault_worker

        return self._map(list(specs), fault_worker,
                         _outcome_from_dict, "fault")


# -- crash sweep --------------------------------------------------------------


@dataclass
class CrashSpec:
    """One point of the exhaustive crash matrix."""

    design: Design
    workload: str
    crash_cycle: int
    seed: int = 7
    entry_bytes: int = 512
    threads: int = 4
    txns_per_thread: int = 8
    initial_items: int = 12
    num_cores: int = 4
    workload_kw: dict = field(default_factory=dict)


@dataclass
class CrashOutcome:
    """Differential-check verdict for one crash point."""

    spec: CrashSpec
    ok: bool
    commits: int = 0
    updates_rolled_back: int = 0
    #: Recovery-time analytics of the point's recovery pass
    #: (:meth:`repro.faults.analytics.RecoveryCost.to_dict`).
    recovery_cost: dict = field(default_factory=dict)
    error: str = ""


def _crash_outcome_dict(outcome: CrashOutcome) -> dict:
    payload = dataclasses.asdict(outcome)
    payload["spec"]["design"] = outcome.spec.design.value
    return payload


def _crash_outcome_from_dict(payload: dict) -> CrashOutcome:
    spec_d = dict(payload["spec"])
    spec_d["design"] = Design(spec_d["design"])
    return CrashOutcome(
        spec=CrashSpec(**spec_d),
        ok=payload["ok"],
        commits=payload["commits"],
        updates_rolled_back=payload["updates_rolled_back"],
        recovery_cost=payload.get("recovery_cost", {}),
        error=payload["error"],
    )


class _LiveRun:
    """The machine of one crash-sweep run, standing at a crash cycle.

    Built by :func:`~repro.harness.testbed.start_crash_run` (the path
    ``crash_run`` takes), with a pause scheduled where ``crash_run``
    schedules its crash, so the pause takes that crash's insertion
    sequence number.  Re-arming the pause keeps the number
    (``Engine.rearm``): at every later crash cycle the run stops at
    exactly the dispatch position a fresh run crashing there would, and
    cutting power on the paused machine reproduces that run's crash bit
    for bit.
    """

    __slots__ = ("key", "system", "workload", "pause")

    def __init__(self, spec: CrashSpec):
        from repro.harness.testbed import start_crash_run

        #: Every field of the run's specs but the crash cycle.
        self.key = replace(spec, crash_cycle=0)
        self.system, self.workload = start_crash_run(
            spec.workload, spec.design, seed=spec.seed,
            entry_bytes=spec.entry_bytes, threads=spec.threads,
            txns_per_thread=spec.txns_per_thread,
            initial_items=spec.initial_items, num_cores=spec.num_cores,
            **spec.workload_kw,
        )
        self.pause = None

    def serves(self, spec: CrashSpec) -> bool:
        """Whether ``spec``'s crash state lies at or ahead of this one.

        A paused machine serves its own cycle and every later one.  A
        run that ended before its pause (all threads finished, or the
        cycle limit) serves only cycles strictly past its end: a crash
        scheduled exactly at the end cycle fires before the last
        thread's finishing event.
        """
        if replace(spec, crash_cycle=0) != self.key:
            return False
        now = self.system.engine.now
        if self.system.paused:
            return spec.crash_cycle >= now
        return spec.crash_cycle > now

    def advance(self, cycle: int) -> None:
        """Run on to ``cycle`` (a no-op at it or past the run's end)."""
        from repro.harness.testbed import CRASH_RUN_MAX_CYCLES

        system = self.system
        if self.pause is None:
            self.pause = system.pause_at(cycle)
        elif system.paused and cycle > system.engine.now:
            system.engine.rearm(self.pause, cycle)
        else:
            return
        system.run(max_cycles=CRASH_RUN_MAX_CYCLES)


#: This process's live crash-sweep machine (see execute_crash_point).
#: Per process, not per campaign: pool workers call the executor by
#: reference, one point at a time.  No outcome depends on it — a point
#: the machine cannot serve exactly rebuilds it.
_live: _LiveRun | None = None


def _drop_live_run() -> None:
    """Forget this process's live machine and recycle its image."""
    global _live
    if _live is not None:
        _live.system.image.recycle()
        _live = None


def execute_crash_point(spec: CrashSpec) -> CrashOutcome:
    """Run one crash point and differential-check it.

    Each process keeps one live machine (:class:`_LiveRun`).  When
    ``spec`` differs from that machine's run only in a crash cycle at
    or past where the machine stands, the machine advances to the cycle
    instead of re-simulating the prefix from cycle 0; otherwise it is
    rebuilt.  A forked child then cuts power, recovers and checks
    (:func:`_fork_crash_point`) while the parent keeps the machine for
    the next point.  Points of one run submitted in ascending cycle
    order therefore simulate the run once.

    A failed differential check (or a modelled-hardware deadlock) is an
    *outcome*, not an infrastructure error — it is recorded with
    ``ok=False`` so a sweep reports every divergence instead of dying on
    the first one.
    """
    global _live
    if _live is not None and not _live.serves(spec):
        _drop_live_run()
    try:
        if _live is None:
            _live = _LiveRun(spec)
        _live.advance(spec.crash_cycle)
    except (WorkloadError, SimulationError) as exc:
        _drop_live_run()
        return CrashOutcome(spec=spec, ok=False,
                            error=f"{type(exc).__name__}: {exc}")
    except BaseException:
        _drop_live_run()
        raise
    return _fork_crash_point(spec, _live.system, _live.workload)


def _crash_point_outcome(spec: CrashSpec, system, workload) -> CrashOutcome:
    """Cut power on a machine standing at ``spec``'s crash, recover, check."""
    from repro.harness.testbed import finish_crash_run

    try:
        report = finish_crash_run(system, workload)
    except (WorkloadError, SimulationError) as exc:
        return CrashOutcome(spec=spec, ok=False,
                            error=f"{type(exc).__name__}: {exc}")
    cost = getattr(report, "cost", None)
    return CrashOutcome(
        spec=spec, ok=True, commits=workload.commits,
        updates_rolled_back=getattr(report, "updates_rolled_back", 0),
        recovery_cost=cost.to_dict() if cost is not None else {},
    )


def _fork_crash_point(spec: CrashSpec, system, workload) -> CrashOutcome:
    """Check ``spec``'s crash in a forked child; the parent's machine lives on.

    The child pipes back its pickled :class:`CrashOutcome`.  A child
    that raises, or dies without a complete reply, ends the point as an
    error naming the spec — never as a pass, and never a hang: the
    reply pipe reaches end-of-file the moment the child is gone.
    """
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            pid = os.fork()
            if pid == 0:
                _crash_point_child(spec, system, workload, write_fd)
        finally:
            os.close(write_fd)
        reply = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(reply)
    except Exception:  # noqa: BLE001 — empty or torn reply
        code = os.waitstatus_to_exitcode(status)
        how = (f"killed by signal {-code}" if code < 0
               else f"exit code {code}")
        return CrashOutcome(
            spec=spec, ok=False,
            error=f"crash-point child died without replying ({how}) on "
                  f"[{describe_spec(spec, kind='crash')}]",
        )


def _crash_point_child(spec: CrashSpec, system, workload, write_fd: int):
    """Body of the forked child: check the crash, reply, ``os._exit``.

    The child never returns and leaves only through ``os._exit``: stdio
    and telemetry buffers, atexit hooks and pool handles it inherited
    belong to the parent.
    """
    try:
        try:
            outcome = _crash_point_outcome(spec, system, workload)
        except BaseException as exc:  # noqa: BLE001 — the reply reports it
            outcome = CrashOutcome(
                spec=spec, ok=False,
                error=f"crash-point child failed on "
                      f"[{describe_spec(spec, kind='crash')}]: "
                      f"{type(exc).__name__}: {exc}\n"
                      f"{traceback.format_exc()}",
            )
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


#: Designs with a recovery story (the crash sweep's default axis).
CRASH_DESIGNS = [Design.BASE, Design.ATOM, Design.ATOM_OPT, Design.REDO]
CRASH_WORKLOADS = ["hash", "queue", "rbtree", "btree", "sdg", "sps"]


def crash_grid(
    designs: Iterable[Design] = CRASH_DESIGNS,
    workloads: Iterable[str] = CRASH_WORKLOADS,
    crash_cycles: Iterable[int] = range(2_000, 30_001, 4_000),
    seeds: Iterable[int] = (7,),
) -> list[CrashSpec]:
    """Enumerate the (design × workload × seed × crash-cycle) grid.

    The crash cycle varies fastest, so each run's points are adjacent
    and share its simulated prefix (see :func:`execute_crash_point`).
    """
    return [
        CrashSpec(design=d, workload=w, crash_cycle=c, seed=s)
        for d, w, s, c in itertools.product(
            designs, workloads, seeds, crash_cycles
        )
    ]


@dataclass
class CrashSweepResult:
    """Outcome of one exhaustive crash sweep."""

    outcomes: list[CrashOutcome]

    @property
    def failures(self) -> list[CrashOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def render(self) -> str:
        """Per-(design, workload) pass/fail summary table."""
        cells: dict[tuple[str, str], list[CrashOutcome]] = {}
        for o in self.outcomes:
            cells.setdefault(
                (o.spec.design.value, o.spec.workload), []
            ).append(o)

        def mean_cycles(group: list[CrashOutcome]) -> str:
            # Failed points carry no recovery_cost; averaging their
            # zeros in would dilute the metric.
            cycles = [o.recovery_cost["cycles"] for o in group
                      if o.recovery_cost]
            if not cycles:
                return "-"
            return f"{sum(cycles) / len(cycles):,.0f}"

        rows = [
            [design, workload, f"{sum(o.ok for o in group)}/{len(group)}",
             sum(o.commits for o in group),
             sum(o.updates_rolled_back for o in group),
             mean_cycles(group)]
            for (design, workload), group in sorted(cells.items())
        ]
        out = format_table(
            ["design", "workload", "points ok", "commits", "rolled back",
             "mean rec. cycles"],
            rows,
            title=f"== Crash sweep: {len(self.outcomes)} points, "
                  f"{len(self.failures)} failures ==",
        )
        for bad in self.failures:
            out += (f"\nFAIL {bad.spec.design.value}/{bad.spec.workload}"
                    f"@{bad.spec.crash_cycle} seed={bad.spec.seed}: "
                    f"{bad.error}")
        return out

    def to_json(self) -> dict:
        """Verdict + recovery-figure artifact (``--crash-sweep --out``).

        ``recovery_figure`` is the ROADMAP's mean-recovery-cycles vs.
        crash-cycle curve per design, aggregated from the
        ``RecoveryCost`` every outcome already carries.
        """
        from repro.obs.analyze import (recovery_figure,
                                       recovery_records_from_outcomes)

        cells: dict[tuple[str, str], list[CrashOutcome]] = {}
        for o in self.outcomes:
            cells.setdefault(
                (o.spec.design.value, o.spec.workload), []
            ).append(o)
        return {
            "kind": "crash-sweep",
            "points_total": len(self.outcomes),
            "summary": {
                "cells": len(cells),
                "failures": len(self.failures),
            },
            "recovery_figure": recovery_figure(
                recovery_records_from_outcomes(self.outcomes)
            ),
            "cells": [
                {
                    "design": design,
                    "workload": workload,
                    "points": len(group),
                    "points_ok": sum(o.ok for o in group),
                    "commits": sum(o.commits for o in group),
                    "rolled_back": sum(o.updates_rolled_back
                                       for o in group),
                }
                for (design, workload), group in sorted(cells.items())
            ],
            "failures": [
                {
                    "design": bad.spec.design.value,
                    "workload": bad.spec.workload,
                    "crash_cycle": bad.spec.crash_cycle,
                    "seed": bad.spec.seed,
                    "error": bad.error,
                }
                for bad in self.failures
            ],
        }


def crash_sweep(campaign: Campaign,
                specs: Sequence[CrashSpec] | None = None) -> CrashSweepResult:
    """Run the full differential crash matrix through a campaign."""
    if specs is None:
        specs = crash_grid()
    return CrashSweepResult(outcomes=campaign.run_crash(specs))
