"""Deterministic, fault-tolerant multi-process campaign execution.

A :class:`ParallelCampaignExecutor` runs the pending chunks of one
:class:`InjectionCampaign` plan across N fork-based worker processes; the
run folds their results into exactly what a serial run would have
produced.  The determinism argument
has three legs, all properties the serial design already guarantees:

1. **The plan is drawn in the parent.**  ``InjectionCampaign._plan`` makes
   every random decision (input choice, site location, per-injection seed)
   with batched generator calls before any forward runs, so the parent's
   RNG stream — and hence any later ``run()`` — is byte-identical to the
   serial path.
2. **Every injection carries a pinned seed.**  Error-model draws come from
   a per-injection ``default_rng(seed)``, so an injection's outcome does
   not depend on which process executes it, in what order, or alongside
   which batch mates — the chunk layout is the serial one.
3. **Replay is bitwise-exact regardless of cache state.**  The resume
   engine produces identical logits whether a chunk resumes from a cached
   checkpoint or runs a full forward, so workers' private (forked,
   copy-on-write warm) caches cannot change outcomes.

Given those, chunk → worker assignment is pure scheduling: *any*
assignment — including re-executing a dead worker's chunk on a different
process — reproduces the serial outcomes bit for bit.  That is what makes
the failure handling in this module sound:

* **Chunk retry.**  Chunks are dispatched one at a time to idle workers.
  A worker that dies (SIGKILL, OOM), hangs past the per-chunk watchdog
  deadline, or raises mid-chunk has its chunk requeued and re-executed by
  a surviving worker (or a bounded number of respawned replacements, with
  exponential backoff).  A chunk that keeps failing is *quarantined* after
  ``RecoveryPolicy.max_chunk_attempts`` and reported explicitly instead of
  crashing the campaign.
* **Crash-consistent journal.**  Each worker's chunk record comes home to
  the parent's run state, which appends it to ``run(..., journal=path)``
  as one checksummed, fsync'd record (:mod:`repro.campaign.recovery`)
  before counting it, so a campaign killed outright — ``kill -9``
  included — resumes exactly where it stopped.
* **Graceful shutdown.**  SIGINT/SIGTERM drain in-flight chunks into the
  journal, flush every sink, and terminate all children — no orphan
  processes, no lost completed work.  Even a ``kill -9`` of the parent
  leaves no orphans: workers poll for work with a timeout and self-exit
  when they notice they have been reparented.

The executor is step 4 of ``InjectionCampaign.run``'s pipeline and
nothing else: planning, the journal, folding chunk records, and building
the result happen in the runner for both execution strategies.  Every
merge is order-independent: per-layer tallies are integer sums,
per-chunk perf deltas add (``apply_chunk_perf`` and
:meth:`MetricsRegistry.merge_snapshot` stay associative and commutative),
observe events are keyed by plan position (``index``) and stable-sorted
into serial emission order — which also dedupes the rare double execution
of a retried chunk, since re-executions are bitwise identical — and worker
profiler spans become per-pid Chrome-trace lanes (``perf_counter`` reads
``CLOCK_MONOTONIC``, which is system-wide on Linux, so forked workers
share the parent's timeline).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import time
import traceback
import warnings
from collections import deque
from multiprocessing import connection as mp_connection
from pathlib import Path

from ..observe.sinks import JsonlEventSink
from .recovery import coerce_policy

_JOIN_TIMEOUT_S = 30.0
_POLL_TIMEOUT_S = 1.0


def _worker_main(campaign, wid, state, tracer, shard_path, in_queue, results,
                 profile_enabled):
    """Body of one forked campaign worker.

    Runs in the child process over forked (copy-on-write) campaign state:
    the model, pool, activation cache, plan, and attached tracer arrive
    warm from the parent.  Pulls chunk ids from ``in_queue`` one at a time
    (``None`` is the stop sentinel) and reports per-chunk completion
    records through ``results`` — the write end of the worker's own
    one-way pipe, which no other process writes to — as soon as each
    chunk finishes.  A SIGKILL can therefore only tear this worker's own
    channel, never wedge a lock its siblings need.  A worker that dies
    mid-campaign has already shipped (and, when observing to JSONL,
    persisted to ``shard_path``) everything it completed.  A chunk whose
    execution raises is reported as ``chunk_failed`` and the worker moves
    on; the parent decides between retry and quarantine.
    """
    # The parent coordinates shutdown: a terminal Ctrl-C lands on the whole
    # process group, and workers must keep draining their current chunk
    # while the parent runs its graceful-shutdown protocol.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        # The parent's telemetry bus forked along with the campaign, but a
        # copy-on-write clone of its queues goes nowhere.  Replace it with
        # a relay: publishes buffer in-process and ride home inside each
        # chunk's completion payload, where the parent republishes them.
        relay = None
        if campaign.telemetry is not None:
            from ..telemetry import WorkerTelemetryRelay

            relay = WorkerTelemetryRelay(wid)
        campaign.telemetry = relay
        if profile_enabled:
            from ..profile.profiler import Profiler

            campaign.profiler = Profiler()
        else:
            from ..profile.profiler import NULL_PROFILER

            campaign.profiler = NULL_PROFILER
        engine = campaign._resume
        if engine is not None:
            engine.profiler = campaign.profiler
        if shard_path is not None:
            tracer.sink = JsonlEventSink(shard_path,
                                         flush_every=tracer.sink.flush_every)
    except BaseException:
        results.send(("fatal", wid, traceback.format_exc()))
        raise

    parent_pid = os.getppid()
    while True:
        try:
            task = in_queue.get(timeout=_POLL_TIMEOUT_S)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                # Orphaned: the parent was killed outright (kill -9) and
                # could not run its shutdown protocol.  Exit hard — nobody
                # reads the results pipe any more, so a final report could
                # block on a full pipe.  Everything completed so far is
                # already shipped (and journaled parent-side).
                os._exit(1)
            continue
        if task is None:
            break
        chunk_id = int(task)
        results.send(("start", wid, chunk_id))
        try:
            captures_before = tracer.clean_captures if tracer is not None else 0
            payload = {}
            campaign._execute_plan(
                state.chunks, [chunk_id], state.plan, observer=tracer,
                record_events=state.record_events,
                on_chunk=lambda cid, record: payload.update(record))
            if tracer is not None:
                events = tracer.take_events(state.chunks[chunk_id])
                if shard_path is not None:
                    for event in events:
                        tracer.sink.emit(event)
                    tracer.sink.flush()
                else:
                    payload["observe_events"] = events
                payload["clean_captures"] = int(
                    tracer.clean_captures - captures_before)
            if relay is not None:
                payload["telemetry"] = relay.take()
            results.send(("chunk", wid, chunk_id, payload))
        except BaseException:
            if relay is not None:
                relay.take()  # drop the failed attempt's partial events
            results.send(("chunk_failed", wid, chunk_id,
                          traceback.format_exc()))

    metrics_snapshot = None
    spans = None
    if profile_enabled:
        from ..profile.export import span_records

        metrics_snapshot = campaign.profiler.metrics.snapshot()
        spans = span_records(campaign.profiler)
    if shard_path is not None:
        tracer.close()
    results.send(("done", wid, {
        "pid": os.getpid(),
        "metrics": metrics_snapshot,
        "spans": spans,
    }))


class _WorkerHandle:
    """Parent-side view of one worker: process, channels, and current chunk."""

    __slots__ = ("wid", "proc", "queue", "conn", "current", "started_at",
                 "injections", "finished")

    def __init__(self, wid, proc, queue, conn):
        self.wid = wid
        self.proc = proc
        self.queue = queue
        self.conn = conn  # read end of the worker's results pipe; None once closed
        self.current = None  # chunk id dispatched to (or running on) the worker
        self.started_at = None  # monotonic time the current chunk started
        self.injections = 0
        self.finished = False  # worker sent its "done" report


class ParallelCampaignExecutor:
    """Execute one run's pending chunks on N forked workers.

    Constructed by ``InjectionCampaign.run(..., workers=N)`` when ``fork``
    is available, once per run: :meth:`execute` is the run pipeline's
    execution step (spawn, dispatch, schedule, reap, drain), folding each
    chunk record into the run state as it arrives, and :meth:`merge`
    folds the per-worker payloads in afterwards.  ``merge`` leaves the
    campaign's ``parallel_info`` dict recording the worker count actually
    used, per-worker injection counts and pids, the fleet's wall clock,
    and the recovery ledger (retries, requeues, quarantined chunks, worker
    failures/respawns) — the numbers ``repro inject --json`` reports.
    ``recovery`` is a :class:`~repro.campaign.recovery.RecoveryPolicy` (or
    kwargs dict) tuning the failure handling.
    """

    def __init__(self, campaign, workers, recovery=None):
        self.campaign = campaign
        self.workers = int(workers)
        self.policy = coerce_policy(recovery)
        self.state = None  # the run's _RunState, set by execute()
        self.tracer = None
        self.observe_base = None  # JSONL log whose per-worker shards merge back
        self.backlog = deque()
        self.attempts = {}
        self.handles = {}
        self.shard_ids = []
        self.done_payloads = {}
        self.fatal_errors = {}
        self.reaped = set()
        self.stopping = False
        self.chunk_retries = 0
        self.requeued = 0
        self.worker_failures = 0
        self.respawns = 0
        self.memory_events = []
        self.clean_captures = 0

    def _publish(self, source, kind, data, worker=None):
        """Publish one telemetry envelope if the campaign has a bus."""
        bus = self.campaign.telemetry
        if bus is not None:
            bus.publish(source, kind, data, worker=worker)

    def _dump_flight(self, reason):
        """Dump the flight recorder (if any) next to the journal."""
        bus = self.campaign.telemetry
        if bus is not None:
            journal = self.state.journal
            bus.dump_flight(reason, out_dir=Path(journal.path).parent
                            if journal is not None else None)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, state, tracer):
        """Run every chunk ``state`` has not folded yet on the worker fleet.

        Completed chunks fold into ``state`` (journaled first) as their
        records arrive; the run survives worker death, hangs, and poisoned
        chunks (see the module docstring).  On SIGINT/SIGTERM the fleet
        drains in-flight chunks into the journal, every child is
        terminated, and the ``KeyboardInterrupt`` propagates.
        """
        self.state, self.tracer = state, tracer
        if tracer is not None and isinstance(tracer.sink, JsonlEventSink):
            # Workers append to ``<path>.shard<wid>`` files, merged with
            # torn-line tolerance; other sinks get events shipped home.
            self.observe_base = Path(tracer.sink.path)
        self.backlog = deque(state.pending())
        if not self.backlog:
            return
        ctx = multiprocessing.get_context("fork")
        n_workers = min(self.workers, len(self.backlog))
        prof = self.campaign.profiler
        try:
            with prof.span("campaign.parallel", cat="campaign",
                           workers=n_workers,
                           injections=state.n_injections) as pspan:
                for wid in range(n_workers):
                    self._spawn(ctx, wid)
                for handle in self.handles.values():
                    self._dispatch(handle)
                try:
                    self._schedule(ctx)
                    self._collect_done()
                except KeyboardInterrupt:
                    self._graceful_shutdown()
                    raise
                pspan.annotate(pids=[self.handles[w].proc.pid
                                     for w in self.shard_ids])
        finally:
            for handle in self.handles.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=_JOIN_TIMEOUT_S)
                self._close_channel(handle)

    def _shard_path(self, wid):
        base = self.observe_base
        return base.with_name(f"{base.name}.shard{wid}")

    def _spawn(self, ctx, wid):
        """Fork one worker (initial fleet or respawned replacement)."""
        shard_path = None
        if self.observe_base is not None:
            shard_path = self._shard_path(wid)
            if shard_path.exists():
                shard_path.unlink()  # stale shard from a prior run
        in_queue = ctx.Queue()
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(self.campaign, wid, self.state, self.tracer, shard_path,
                  in_queue, writer, self.campaign.profiler.enabled),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end: once it exits, its
        # channel reads as EOF after everything it sent, and workers forked
        # later do not inherit (and so cannot keep open) this pipe.
        writer.close()
        handle = _WorkerHandle(wid, proc, in_queue, reader)
        self.handles[wid] = handle
        self.shard_ids.append(wid)
        self._publish("worker", "spawn", {"wid": wid, "pid": proc.pid})
        return handle

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    @property
    def outstanding(self):
        """Chunk ids still needing a successful execution."""
        inflight = {h.current for h in self.handles.values()
                    if h.current is not None}
        return ((set(self.backlog) | inflight) - self.state.done
                - set(self.state.quarantined))

    def _live_workers(self):
        return [h for h in self.handles.values()
                if h.proc.is_alive() and not h.finished]

    def _dispatch(self, handle):
        """Hand the next backlog chunk to an idle worker (if any remain)."""
        if handle.current is not None or handle.finished or self.stopping:
            return
        if not self.backlog:
            return
        cid = self.backlog.popleft()
        handle.current = cid
        handle.started_at = None  # watchdog clock starts at the "start" msg
        handle.queue.put(cid)

    def _requeue(self, cid):
        self.requeued += 1
        self.backlog.appendleft(cid)
        # An idle surviving worker picks the retry up immediately.
        for handle in self._live_workers():
            if handle.current is None:
                self._dispatch(handle)
                break

    def _schedule(self, ctx):
        """The parent's event loop: results, failures, watchdog, respawns."""
        policy = self.policy
        respawn_at = None
        while self.outstanding:
            now = time.monotonic()
            if respawn_at is not None and now >= respawn_at:
                respawn_at = None
                wid = len(self.shard_ids)
                handle = self._spawn(ctx, wid)
                self.respawns += 1
                self._publish("recovery", "worker_respawned",
                              {"wid": wid, "respawns": self.respawns})
                self._dispatch(handle)
            for msg in self._receive():
                kind, wid = msg[0], msg[1]
                handle = self.handles[wid]
                if kind == "start":
                    # A reaped worker's in-flight "start" is stale: its chunk
                    # was already requeued when the death was detected.
                    if wid not in self.reaped:
                        handle.current = msg[2]
                        handle.started_at = time.monotonic()
                elif kind == "chunk":
                    self._on_chunk(handle, msg[2], msg[3])
                    self._dispatch(handle)
                elif kind == "chunk_failed":
                    handle.current = None
                    handle.started_at = None
                    self._chunk_failed(msg[2], msg[3])
                    self._dispatch(handle)
                elif kind == "fatal":
                    # Setup crashed before the task loop; the liveness scan
                    # below reaps the worker and requeues its chunk.
                    self.fatal_errors[wid] = msg[2]
                elif kind == "done":
                    self._note_done(wid, msg[2])
            self._reap_failures()
            if (not self._live_workers() and self.outstanding
                    and respawn_at is None):
                if self.respawns >= policy.max_respawns:
                    unfinished = len(self.outstanding)
                    self._publish("recovery", "fleet_exhausted", {
                        "respawns": self.respawns,
                        "unfinished_chunks": unfinished})
                    self._dump_flight("fleet_exhausted")
                    journal = self.state.journal
                    raise RuntimeError(
                        f"campaign fleet exhausted: every worker died, "
                        f"{self.respawns} respawn(s) already used "
                        f"(RecoveryPolicy.max_respawns={policy.max_respawns}), "
                        f"{unfinished} chunk(s) unfinished"
                        + (f"; completed work is journaled at {journal.path}"
                           if journal is not None else ""))
                backoff = policy.respawn_backoff_s * (2 ** self.respawns)
                respawn_at = time.monotonic() + backoff

    def _reap_failures(self):
        """Detect dead and hung workers; requeue their chunks."""
        policy = self.policy
        now = time.monotonic()
        for handle in list(self.handles.values()):
            if handle.finished or not handle.proc.is_alive():
                # A dead worker is reaped only once its channel is drained:
                # a chunk it completed just before dying is kept, not rerun.
                if (not handle.finished and handle.wid not in self.reaped
                        and not self._channel_pending(handle)):
                    self.reaped.add(handle.wid)
                    self.worker_failures += 1
                    detail = self.fatal_errors.get(
                        handle.wid,
                        f"exit code {handle.proc.exitcode}")
                    warnings.warn(
                        f"campaign worker {handle.wid} died ({detail}); "
                        f"requeueing its work", RuntimeWarning, stacklevel=3)
                    self._publish("worker", "died", {
                        "wid": handle.wid, "pid": handle.proc.pid,
                        "detail": detail.splitlines()[-1] if detail else detail})
                    if handle.current is not None:
                        cid, handle.current = handle.current, None
                        if handle.started_at is None:
                            # Never started: no attempt burned, plain requeue.
                            self._requeue(cid)
                        else:
                            self._chunk_failed(
                                cid, f"worker {handle.wid} died "
                                f"({detail}) while executing the chunk")
                continue
            if (policy.watchdog_s is not None and handle.started_at is not None
                    and now - handle.started_at > policy.watchdog_s):
                self.reaped.add(handle.wid)
                self.worker_failures += 1
                cid = handle.current
                warnings.warn(
                    f"campaign worker {handle.wid} exceeded the "
                    f"{policy.watchdog_s:g}s per-chunk watchdog on chunk "
                    f"{cid}; terminating it", RuntimeWarning, stacklevel=3)
                self._publish("recovery", "watchdog_kill", {
                    "wid": handle.wid, "chunk": cid,
                    "watchdog_s": policy.watchdog_s})
                self._publish("worker", "died", {
                    "wid": handle.wid, "pid": handle.proc.pid,
                    "detail": "watchdog"})
                handle.proc.kill()
                handle.proc.join(timeout=_JOIN_TIMEOUT_S)
                handle.current = None
                self._chunk_failed(
                    cid,
                    f"watchdog: chunk exceeded {policy.watchdog_s:g}s "
                    f"on worker {handle.wid}")

    def _note_done(self, wid, payload):
        """Record one worker's exit report (idempotent across drain paths)."""
        handle = self.handles[wid]
        if not handle.finished:
            handle.finished = True
            self._publish("worker", "exit",
                          {"wid": wid, "pid": payload.get("pid")})
        self.done_payloads[wid] = payload

    def _on_chunk(self, handle, cid, payload):
        handle.started_at = None
        if handle.current == cid:
            handle.current = None
        state = self.state
        if cid in state.done or cid in state.quarantined:
            return  # duplicate completion of a retried chunk; results identical
        bus = self.campaign.telemetry
        if bus is not None:
            # Republish the worker's buffered telemetry with this process's
            # sequence numbers.  A retried chunk's duplicate rows never get
            # here — the dedup above discards them with the payload.
            for source, kind, data, worker in payload.get("telemetry") or ():
                bus.publish(source, kind, data, worker=worker)
        self.memory_events.extend(payload.get("observe_events") or [])
        self.clean_captures += payload.get("clean_captures", 0)
        # The worker's counters advanced in its own process, not this one.
        state.fold_chunk(cid, payload, apply_perf=True)
        handle.injections += payload["injections"]

    def _chunk_failed(self, cid, detail):
        """One failed execution attempt: retry or quarantine."""
        state = self.state
        if cid in state.done or cid in state.quarantined:
            return
        self.attempts[cid] = self.attempts.get(cid, 0) + 1
        self.chunk_retries += 1
        if self.attempts[cid] >= self.policy.max_chunk_attempts:
            self.chunk_retries -= 1  # the terminal attempt is not retried
            state.quarantine(cid, detail)
            self._publish("recovery", "chunk_quarantined", {
                "chunk": cid, "attempts": self.attempts[cid],
                "error": detail.splitlines()[-1] if detail else detail})
            warnings.warn(
                f"chunk {cid} quarantined after "
                f"{self.policy.max_chunk_attempts} failed attempt(s): "
                f"{detail.splitlines()[-1] if detail else detail}",
                RuntimeWarning, stacklevel=3)
        else:
            self._publish("recovery", "chunk_requeued", {
                "chunk": cid, "attempts": self.attempts[cid]})
            self._requeue(cid)

    def _collect_done(self):
        """Stop the fleet and gather every worker's exit report."""
        self.stopping = True
        for handle in self.handles.values():
            if handle.proc.is_alive() and not handle.finished:
                handle.queue.put(None)
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        # A worker's exit report can still sit in its channel after the
        # process has died; give up on a worker only once its channel has
        # closed (everything it sent was read) or the deadline passes.
        while (any(not h.finished and h.conn is not None
                   for h in self.handles.values())
               and time.monotonic() < deadline):
            for msg in self._receive():
                kind, wid = msg[0], msg[1]
                if kind == "done":
                    self._note_done(wid, msg[2])
                elif kind == "chunk":
                    self._on_chunk(self.handles[wid], msg[2], msg[3])
        for handle in self.handles.values():
            if handle.finished:
                handle.proc.join(timeout=_JOIN_TIMEOUT_S)

    def _graceful_shutdown(self):
        """Drain in-flight chunks into the run state; terminate all children."""
        self.stopping = True
        deadline = time.monotonic() + self.policy.drain_timeout_s
        try:
            for handle in self.handles.values():
                if handle.proc.is_alive():
                    handle.queue.put(None)  # stop after the current chunk
            while (any(h.current is not None and h.proc.is_alive()
                       for h in self.handles.values())
                   and time.monotonic() < deadline):
                for msg in self._receive():
                    kind, wid = msg[0], msg[1]
                    handle = self.handles[wid]
                    if kind == "chunk":
                        self._on_chunk(handle, msg[2], msg[3])
                    elif kind == "start":
                        handle.current = msg[2]
                        handle.started_at = time.monotonic()
                    elif kind == "chunk_failed":
                        handle.current = None
                    elif kind == "done":
                        self._note_done(wid, msg[2])
        except KeyboardInterrupt:
            pass  # second interrupt: stop draining, terminate now
        finally:
            for handle in self.handles.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=_JOIN_TIMEOUT_S)

    # ------------------------------------------------------------------ #
    # Result channels
    # ------------------------------------------------------------------ #

    def _receive(self, timeout=_POLL_TIMEOUT_S):
        """Wait up to ``timeout`` s for worker messages; return those read.

        Reads at most one message per ready channel, so one chatty worker
        cannot starve the rest.  ``EOFError`` means the worker has exited
        and everything it sent has been read; ``OSError`` means a SIGKILL
        tore its last message mid-send.  Either way the channel is closed.
        """
        channels = {h.conn: h for h in self.handles.values()
                    if h.conn is not None}
        if not channels:
            time.sleep(timeout)
            return []
        messages = []
        for conn in mp_connection.wait(list(channels), timeout):
            try:
                messages.append(conn.recv())
            except (EOFError, OSError):
                self._close_channel(channels[conn])
        return messages

    @staticmethod
    def _channel_pending(handle):
        """Whether the worker's channel still holds unread data or EOF."""
        return handle.conn is not None and handle.conn.poll()

    @staticmethod
    def _close_channel(handle):
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #

    def merge(self, wall):
        """Fold the per-worker payloads in; set the campaign's ``parallel_info``.

        Chunk records already folded into the run state as they arrived.
        What is left is per worker and order-independent: the recovery
        ledger, metrics snapshots and profiler spans, and observe event
        shards, which land in the tracer's buffer by plan position so the
        pipeline's ``finish()`` emits them in serial order.
        """
        campaign = self.campaign
        state = self.state
        prof = campaign.profiler
        shard_ids = self.shard_ids
        with prof.span("campaign.merge", cat="campaign", workers=len(shard_ids)):
            perf = campaign.perf
            perf.chunk_retries += self.chunk_retries
            perf.chunks_requeued += self.requeued
            perf.chunks_quarantined += len(state.quarantined)
            perf.worker_failures += self.worker_failures
            perf.worker_respawns += self.respawns
            if prof.enabled:
                for wid in shard_ids:
                    payload = self.done_payloads.get(wid)
                    if payload is None:
                        continue
                    if payload["metrics"] is not None:
                        prof.metrics.merge_snapshot(payload["metrics"])
                    if payload["spans"]:
                        prof.adopt_spans(payload["spans"], pid=payload["pid"],
                                         process_name=f"repro.worker[{wid}]")
            if self.tracer is not None:
                self._merge_observe()
        if state.quarantined:
            self._dump_flight("quarantine")
        campaign.parallel_info = {
            "requested_workers": self.workers,
            "workers": len(shard_ids),
            "wall_time_s": wall,
            "per_worker_injections": [self.handles[w].injections
                                      for w in shard_ids],
            "per_worker_pids": [int(self.handles[w].proc.pid)
                                for w in shard_ids],
            "retries": self.chunk_retries,
            "requeued_chunks": self.requeued,
            "quarantined_chunks": len(state.quarantined),
            "quarantined": [
                {"chunk": cid, **info}
                for cid, info in sorted(state.quarantined.items())
            ],
            "worker_failures": self.worker_failures,
            "worker_respawns": self.respawns,
        }

    def _merge_observe(self):
        """Fold worker event shards into the parent tracer, plan-ordered.

        The position-keyed buffer also dedupes re-executions of retried
        chunks (bitwise-identical events, so either copy is the serial one).
        """
        from ..observe import merge_shard_events

        tracer = self.tracer
        if self.observe_base is not None:
            shard_paths = [self._shard_path(wid) for wid in self.shard_ids]
            merged = merge_shard_events([p for p in shard_paths if p.exists()])
            for path in shard_paths:
                if path.exists():
                    path.unlink()
        else:
            merged = sorted(self.memory_events, key=lambda e: e.get("index", -1))
        for event in merged:
            p = event.get("index")
            if p is not None and 0 <= p < len(tracer._pending):
                tracer._pending[p] = event
        tracer.clean_captures += self.clean_captures
