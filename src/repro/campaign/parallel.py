"""Deterministic, fault-tolerant multi-process campaign execution.

A :class:`ParallelCampaignExecutor` runs one :class:`InjectionCampaign`
plan across N fork-based worker processes and merges the shards back into
exactly what a serial run would have produced.  The determinism argument
has three legs, all properties the serial design already guarantees:

1. **The plan is drawn in the parent.**  ``InjectionCampaign._plan`` makes
   every random decision (input choice, site location, per-injection seed)
   with batched generator calls before any forward runs, so the parent's
   RNG stream — and hence any later ``run()`` — is byte-identical to the
   serial path.
2. **Every injection carries a pinned seed.**  Error-model draws come from
   a per-injection ``default_rng(seed)``, so an injection's outcome does
   not depend on which process executes it, in what order, or alongside
   which batch mates — chunks are grouped per layer before partitioning,
   exactly as serially.
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
* **Crash-consistent journal.**  ``run(..., journal=path)`` appends one
  checksummed, fsync'd record per completed chunk
  (:mod:`repro.campaign.recovery`), so a campaign killed outright —
  ``kill -9`` included — resumes exactly where it stopped.
* **Graceful shutdown.**  SIGINT/SIGTERM drain in-flight chunks into the
  journal, flush every sink, and terminate all children — no orphan
  processes, no lost completed work.  Even a ``kill -9`` of the parent
  leaves no orphans: workers poll for work with a timeout and self-exit
  when they notice they have been reparented.

The merge is order-independent everywhere: per-layer tallies are integer
sums, per-chunk perf deltas add (:meth:`CampaignPerfCounters.merge` and
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

import numpy as np

from ..profile.heartbeat import _finish_progress, coerce_progress
from . import recovery as recovery_mod
from .recovery import coerce_policy
from .runner import CampaignResult

_JOIN_TIMEOUT_S = 30.0
_POLL_TIMEOUT_S = 1.0

#: Chunk-payload keys that belong in a journal record (observe events and
#: other bulky telemetry stay out of the journal).
_JOURNAL_KEYS = ("layer", "positions", "injections", "corruptions", "tallies",
                 "perf", "trace_events")


def partition_chunks(chunks, workers):
    """Split a chunk list into ≤ ``workers`` contiguous, balanced shards.

    Each chunk lands in the shard its injection-count midpoint falls into,
    so shards are contiguous runs of the (layer-sorted) chunk list with
    near-equal injection totals.  Deterministic — same input, same shards —
    and empty shards are dropped, so tiny campaigns simply use fewer
    workers.  (The executor now dispatches chunks dynamically; this
    partitioner remains the static-sharding primitive for callers that
    want a fixed split.)
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    chunks = list(chunks)
    total = sum(len(chunk) for chunk in chunks)
    shards = [[] for _ in range(workers)]
    cum = 0
    for chunk in chunks:
        mid = cum + len(chunk) / 2.0
        w = min(workers - 1, int(mid * workers / total)) if total else 0
        shards[w].append(chunk)
        cum += len(chunk)
    return [shard for shard in shards if shard]


def _worker_main(campaign, wid, chunks, n_injections, plan, in_queue, results,
                 observe_spec, profile_enabled, record_events):
    """Body of one forked campaign worker.

    Runs in the child process over forked (copy-on-write) campaign state:
    the model, pool, and activation cache arrive warm from the parent.
    Pulls chunk ids from ``in_queue`` one at a time (``None`` is the stop
    sentinel) and reports per-chunk completion records through
    ``results`` — the write end of the worker's own one-way pipe, which
    no other process writes to — as soon as each chunk finishes.  A
    SIGKILL can therefore only tear this worker's own channel, never
    wedge a lock its siblings need.  A worker that dies
    mid-campaign has already shipped (and, when observing to JSONL,
    persisted) everything it completed.  A chunk whose execution raises is
    reported as ``chunk_failed`` and the worker moves on; the parent
    decides between retry and quarantine.
    """
    # The parent coordinates shutdown: a terminal Ctrl-C lands on the whole
    # process group, and workers must keep draining their current chunk
    # while the parent runs its graceful-shutdown protocol.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        pool_idx, layers, coords, seeds = plan
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

        tracer = None
        jsonl_sink = False
        if observe_spec is not None:
            from ..observe import JsonlEventSink, PropagationTracer

            if observe_spec[0] == "jsonl":
                tracer = PropagationTracer(JsonlEventSink(
                    Path(observe_spec[1]), flush_every=observe_spec[2]))
                jsonl_sink = True
            else:
                tracer = PropagationTracer()
            tracer.attach(campaign)
            tracer.begin(campaign, n_injections, emit_header=False)
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
        positions = chunks[chunk_id]
        try:
            captures_before = tracer.clean_captures if tracer is not None else 0
            payload = {}
            campaign._execute_plan(
                [positions], pool_idx, layers, coords, seeds,
                observer=tracer,
                events={} if record_events else None,
                on_progress=lambda k: results.send(("progress", wid, k)),
                on_chunk=lambda cid, info: payload.update(info),
                chunk_ids=[chunk_id])
            if tracer is not None:
                events = tracer.take_events(positions)
                if jsonl_sink:
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
    if tracer is not None:
        tracer.detach()
        tracer.close()
    results.send(("done", wid, {
        "pid": os.getpid(),
        "metrics": metrics_snapshot,
        "spans": spans,
    }))


class _WorkerHandle:
    """Parent-side view of one worker: process, channels, and current chunk."""

    __slots__ = ("wid", "proc", "queue", "conn", "current", "started_at",
                 "injections", "chunks_done", "finished")

    def __init__(self, wid, proc, queue, conn):
        self.wid = wid
        self.proc = proc
        self.queue = queue
        self.conn = conn  # read end of the worker's results pipe; None once closed
        self.current = None  # chunk id dispatched to (or running on) the worker
        self.started_at = None  # monotonic time the current chunk started
        self.injections = 0
        self.chunks_done = 0
        self.finished = False  # worker sent its "done" report


class CampaignInterrupted(KeyboardInterrupt):
    """A campaign shut down gracefully on SIGINT/SIGTERM.

    Raised after in-flight chunks drained, the journal and sinks flushed,
    and every child terminated.  ``partial`` summarises what completed so
    callers (the CLI, experiment drivers) can report progress and point at
    the journal for resumption.
    """

    def __init__(self, partial):
        self.partial = partial
        super().__init__(
            f"campaign interrupted: {partial['completed_injections']}"
            f"/{partial['n_injections']} injections completed"
            + (f", journaled to {partial['journal']}" if partial.get("journal")
               else ""))


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


class ParallelCampaignExecutor:
    """Fan one campaign plan out over N forked workers; merge the shards.

    Constructed on demand by ``InjectionCampaign.run(..., workers=N)``;
    usable directly when a caller wants ``parallel_info`` without going
    through the campaign façade::

        executor = ParallelCampaignExecutor(campaign, workers=4)
        result = executor.run(10_000)

    After ``run()`` the campaign's ``parallel_info`` dict records the
    worker count actually used, per-worker injection counts and pids, the
    fleet's wall clock, and the recovery ledger (retries, requeues,
    quarantined chunks, worker failures/respawns) — the numbers ``repro
    inject --json`` reports.  ``recovery`` is a
    :class:`~repro.campaign.recovery.RecoveryPolicy` (or kwargs dict)
    tuning the failure handling.
    """

    def __init__(self, campaign, workers, recovery=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.campaign = campaign
        self.workers = int(workers)
        self.policy = coerce_policy(recovery)

    def _publish(self, source, kind, data, worker=None):
        """Publish one telemetry envelope if the campaign has a bus."""
        bus = self.campaign.telemetry
        if bus is not None:
            bus.publish(source, kind, data, worker=worker)

    # ------------------------------------------------------------------ #
    # Observer plumbing
    # ------------------------------------------------------------------ #

    def _observer_setup(self, observe, n_injections):
        """Coerce ``observe=`` and decide how workers shard their events.

        Returns ``(tracer, mode, base_path)`` where mode is ``"jsonl"``
        (workers append to ``<path>.shard<wid>`` files, merged with
        torn-line tolerance) or ``"memory"`` (workers ship event lists
        through the result queue), or ``(None, None, None)``.
        """
        if observe is None or observe is False:
            return None, None, None
        from ..observe import JsonlEventSink, coerce_tracer

        tracer = coerce_tracer(observe)
        # Surface the same error a worker's attach() would, before forking.
        if self.campaign.target != "neuron":
            raise ValueError(
                "propagation tracing requires a neuron campaign; weight campaigns "
                "perturb before the forward, so there is no injection site to trace from"
            )
        if isinstance(tracer.sink, JsonlEventSink):
            return tracer, "jsonl", Path(tracer.sink.path)
        return tracer, "memory", None

    def _shard_path(self, base_path, wid):
        return base_path.with_name(f"{base_path.name}.shard{wid}")

    def _merge_observe(self, tracer, mode, base_path, shard_ids,
                       memory_events, clean_captures):
        """Fold worker event shards into the parent tracer, plan-ordered.

        Events land in the tracer's pending buffer keyed by plan position,
        so the subsequent ``finish()`` emits them in exactly the serial
        order between the header (already written) and the footer.  The
        position-keyed buffer also dedupes re-executions of retried chunks
        (bitwise-identical events, so either copy is the serial one).
        """
        from ..observe import merge_shard_events

        if mode == "jsonl":
            shard_paths = [self._shard_path(base_path, wid)
                           for wid in shard_ids]
            merged = merge_shard_events([p for p in shard_paths if p.exists()])
            for path in shard_paths:
                if path.exists():
                    path.unlink()
        else:
            merged = sorted(memory_events, key=lambda e: e.get("index", -1))
        for event in merged:
            p = event.get("index")
            if p is not None and 0 <= p < len(tracer._pending):
                tracer._pending[p] = event
        tracer.clean_captures += clean_captures

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self, n_injections, confidence=0.99, progress=None, trace=None,
            observe=None, journal=None):
        """Execute ``n_injections`` across the worker fleet; merge results.

        Semantics match ``InjectionCampaign.run(..., workers=1)`` exactly
        (outcomes, per-layer vulnerability, trace and observe events,
        merged cache statistics); only wall clock differs — and the run
        survives worker death, hangs, and interrupts (see the module
        docstring).  Falls back to the serial path with a
        :class:`RuntimeWarning` where ``fork`` is unavailable.
        """
        campaign = self.campaign
        if n_injections < 1:
            raise ValueError(f"n_injections must be >= 1, got {n_injections}")
        if self.workers == 1:
            return campaign.run(n_injections, confidence=confidence,
                                progress=progress, trace=trace, observe=observe,
                                journal=journal)
        if "fork" not in multiprocessing.get_all_start_methods():
            warnings.warn(
                "fork start method unavailable; parallel campaign falling back "
                "to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return campaign.run(n_injections, confidence=confidence,
                                progress=progress, trace=trace, observe=observe,
                                journal=journal)

        progress = coerce_progress(progress, campaign)
        prof = campaign.profiler
        started = time.perf_counter()
        with prof.span("campaign.plan", cat="campaign", injections=n_injections):
            pool_idx, layers, coords, seeds = campaign._plan(n_injections)
        plan = (pool_idx, layers, coords, seeds)
        chunks = campaign._chunks(layers, n_injections)

        journal_log = None
        completed = {}
        if journal is not None:
            journal_log, completed = recovery_mod.open_journal(
                journal, campaign, n_injections, plan, len(chunks))
        record_events = trace is not None or journal is not None

        tracer, observe_mode, observe_base = self._observer_setup(observe, n_injections)
        if tracer is not None:
            campaign.observer = tracer
            tracer.begin(campaign, n_injections)  # header first, sized buffer
            if hasattr(tracer.sink, "flush"):
                tracer.sink.flush()  # nothing buffered crosses the fork

        state = _FleetState(campaign, chunks, n_injections, journal_log)
        for cid, record in completed.items():
            state.fold_journaled(cid, record)
        if progress is not None and state.completed_injections:
            progress(state.completed_injections, n_injections)
        if state.completed_injections:
            self._publish("campaign", "progress", {
                "done": state.completed_injections, "total": n_injections})

        # SIGTERM gets the same graceful-drain treatment as Ctrl-C.  Signal
        # handlers only install from the main thread; elsewhere a SIGTERM
        # keeps its default disposition and the journal still survives (it
        # is fsync'd per record).
        try:
            previous_sigterm = signal.signal(
                signal.SIGTERM, _raise_keyboard_interrupt)
        except ValueError:
            previous_sigterm = None
        try:
            if state.backlog:
                self._execute_fleet(state, chunks, n_injections, plan, progress,
                                    observe_mode, observe_base, record_events,
                                    prof)
        except BaseException:
            if journal_log is not None:
                journal_log.close()  # idempotent; already closed on drain paths
            raise
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        wall = time.perf_counter() - started

        return self._merge(state, n_injections, confidence, wall, tracer,
                           observe_mode, observe_base, trace, progress)

    def _spawn(self, ctx, state, wid, chunks, n_injections, plan,
               observe_mode, observe_base, record_events, profile_enabled):
        """Fork one worker (initial fleet or respawned replacement)."""
        spec = None
        if observe_mode == "jsonl":
            shard_path = self._shard_path(observe_base, wid)
            if shard_path.exists():
                shard_path.unlink()  # stale shard from a prior run
            spec = ("jsonl", str(shard_path), state.flush_every)
        elif observe_mode == "memory":
            spec = ("memory",)
        in_queue = ctx.Queue()
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(self.campaign, wid, chunks, n_injections, plan, in_queue,
                  writer, spec, profile_enabled, record_events),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only write end: once it exits, its
        # channel reads as EOF after everything it sent, and workers forked
        # later do not inherit (and so cannot keep open) this pipe.
        writer.close()
        handle = _WorkerHandle(wid, proc, in_queue, reader)
        state.workers[wid] = handle
        state.shard_ids.append(wid)
        self._publish("worker", "spawn", {"wid": wid, "pid": proc.pid})
        return handle

    def _execute_fleet(self, state, chunks, n_injections, plan, progress,
                       observe_mode, observe_base, record_events, prof):
        """Spawn the fleet and schedule every pending chunk to completion."""
        ctx = multiprocessing.get_context("fork")
        state.flush_every = (self.campaign.observer.sink.flush_every
                            if observe_mode == "jsonl" else 1)
        n_workers = min(self.workers, len(state.backlog))
        try:
            with prof.span("campaign.parallel", cat="campaign",
                           workers=n_workers, injections=n_injections) as pspan:
                for wid in range(n_workers):
                    self._spawn(ctx, state, wid, chunks, n_injections, plan,
                                observe_mode, observe_base, record_events,
                                prof.enabled)
                for handle in state.workers.values():
                    self._dispatch(state, handle)
                try:
                    self._schedule(state, chunks, n_injections, plan, ctx,
                                   observe_mode, observe_base, record_events,
                                   prof, progress)
                    self._collect_done(state)
                except KeyboardInterrupt:
                    self._graceful_shutdown(state)
                    raise CampaignInterrupted({
                        "completed_injections": state.completed_injections,
                        "n_injections": n_injections,
                        "journal": str(state.journal.path)
                        if state.journal is not None else None,
                        "completed_chunks": len(state.done),
                        "n_chunks": len(chunks),
                    }) from None
                pspan.annotate(pids=[state.workers[w].proc.pid
                                     for w in state.shard_ids])
        finally:
            for handle in state.workers.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=_JOIN_TIMEOUT_S)
                self._close_channel(handle)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _dispatch(self, state, handle):
        """Hand the next backlog chunk to an idle worker (if any remain)."""
        if handle.current is not None or handle.finished or state.stopping:
            return
        if not state.backlog:
            return
        cid = state.backlog.popleft()
        handle.current = cid
        handle.started_at = None  # watchdog clock starts at the "start" msg
        handle.queue.put(cid)

    def _schedule(self, state, chunks, n_injections, plan, ctx,
                  observe_mode, observe_base, record_events, prof, progress):
        """The parent's event loop: results, failures, watchdog, respawns."""
        policy = self.policy
        respawn_at = None
        while state.outstanding:
            now = time.monotonic()
            if respawn_at is not None and now >= respawn_at:
                respawn_at = None
                wid = len(state.shard_ids)
                handle = self._spawn(ctx, state, wid, chunks, n_injections,
                                     plan, observe_mode, observe_base,
                                     record_events, prof.enabled)
                state.respawns += 1
                self._publish("recovery", "worker_respawned",
                              {"wid": wid, "respawns": state.respawns})
                self._dispatch(state, handle)
            for msg in self._receive(state):
                kind, wid = msg[0], msg[1]
                handle = state.workers[wid]
                if kind == "progress":
                    state.done_injections += msg[2]
                    if progress is not None:
                        progress(state.completed_injections, n_injections)
                elif kind == "start":
                    # A reaped worker's in-flight "start" is stale: its chunk
                    # was already requeued when the death was detected.
                    if wid not in state.reaped:
                        handle.current = msg[2]
                        handle.started_at = time.monotonic()
                elif kind == "chunk":
                    self._on_chunk(state, handle, msg[2], msg[3])
                    self._dispatch(state, handle)
                elif kind == "chunk_failed":
                    handle.current = None
                    handle.started_at = None
                    self._chunk_failed(state, msg[2], msg[3])
                    self._dispatch(state, handle)
                elif kind == "fatal":
                    # Setup crashed before the task loop; the liveness scan
                    # below reaps the worker and requeues its chunk.
                    state.fatal_errors[wid] = msg[2]
                elif kind == "done":
                    self._note_done(state, wid, msg[2])
            self._reap_failures(state)
            if (not state.live_workers() and state.outstanding
                    and respawn_at is None):
                if state.respawns >= policy.max_respawns:
                    self._publish("recovery", "fleet_exhausted", {
                        "respawns": state.respawns,
                        "unfinished_chunks": len(state.outstanding)})
                    bus = self.campaign.telemetry
                    if bus is not None and getattr(bus, "recorder", None) is not None:
                        bus.dump_flight(
                            "fleet_exhausted",
                            out_dir=Path(state.journal.path).parent
                            if state.journal is not None else None)
                    raise RuntimeError(
                        f"campaign fleet exhausted: every worker died, "
                        f"{state.respawns} respawn(s) already used "
                        f"(RecoveryPolicy.max_respawns={policy.max_respawns}), "
                        f"{len(state.outstanding)} chunk(s) unfinished"
                        + (f"; completed work is journaled at "
                           f"{state.journal.path}" if state.journal else ""))
                backoff = policy.respawn_backoff_s * (2 ** state.respawns)
                respawn_at = time.monotonic() + backoff

    def _reap_failures(self, state):
        """Detect dead and hung workers; requeue their chunks."""
        policy = self.policy
        now = time.monotonic()
        for handle in list(state.workers.values()):
            if handle.finished or not handle.proc.is_alive():
                # A dead worker is reaped only once its channel is drained:
                # a chunk it completed just before dying is kept, not rerun.
                if (not handle.finished and handle.wid not in state.reaped
                        and not self._channel_pending(handle)):
                    state.reaped.add(handle.wid)
                    state.worker_failures += 1
                    detail = state.fatal_errors.get(
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
                            state.requeue(cid)
                        else:
                            self._chunk_failed(
                                state, cid, f"worker {handle.wid} died "
                                f"({detail}) while executing the chunk")
                continue
            if (policy.watchdog_s is not None and handle.started_at is not None
                    and now - handle.started_at > policy.watchdog_s):
                state.reaped.add(handle.wid)
                state.worker_failures += 1
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
                    state, cid,
                    f"watchdog: chunk exceeded {policy.watchdog_s:g}s "
                    f"on worker {handle.wid}")

    def _note_done(self, state, wid, payload):
        """Record one worker's exit report (idempotent across drain paths)."""
        handle = state.workers[wid]
        if not handle.finished:
            handle.finished = True
            self._publish("worker", "exit",
                          {"wid": wid, "pid": payload.get("pid")})
        state.done_payloads[wid] = payload

    def _on_chunk(self, state, handle, cid, payload):
        handle.started_at = None
        if handle.current == cid:
            handle.current = None
        if cid in state.done or cid in state.quarantined:
            return  # duplicate completion of a retried chunk; results identical
        bus = self.campaign.telemetry
        if bus is not None:
            # Republish the worker's buffered telemetry with this process's
            # sequence numbers.  A retried chunk's duplicate rows never get
            # here — the dedup above discards them with the payload.
            for source, kind, data, worker in payload.get("telemetry") or ():
                bus.publish(source, kind, data, worker=worker)
        state.fold_chunk(cid, payload)
        handle.injections += payload["injections"]
        handle.chunks_done += 1

    def _chunk_failed(self, state, cid, detail):
        """One failed execution attempt: retry or quarantine."""
        if cid in state.done or cid in state.quarantined:
            return
        state.attempts[cid] = state.attempts.get(cid, 0) + 1
        state.chunk_retries += 1
        if state.attempts[cid] >= self.policy.max_chunk_attempts:
            state.chunk_retries -= 1  # the terminal attempt is not retried
            state.quarantine(cid, detail)
            self._publish("recovery", "chunk_quarantined", {
                "chunk": cid, "attempts": state.attempts[cid],
                "error": detail.splitlines()[-1] if detail else detail})
            warnings.warn(
                f"chunk {cid} quarantined after "
                f"{self.policy.max_chunk_attempts} failed attempt(s): "
                f"{detail.splitlines()[-1] if detail else detail}",
                RuntimeWarning, stacklevel=3)
        else:
            self._publish("recovery", "chunk_requeued", {
                "chunk": cid, "attempts": state.attempts[cid]})
            state.requeue(cid)

    def _collect_done(self, state):
        """Stop the fleet and gather every worker's exit report."""
        state.stopping = True
        for handle in state.workers.values():
            if handle.proc.is_alive() and not handle.finished:
                handle.queue.put(None)
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        # A worker's exit report can still sit in its channel after the
        # process has died; give up on a worker only once its channel has
        # closed (everything it sent was read) or the deadline passes.
        while (any(not h.finished and h.conn is not None
                   for h in state.workers.values())
               and time.monotonic() < deadline):
            for msg in self._receive(state):
                kind, wid = msg[0], msg[1]
                if kind == "done":
                    self._note_done(state, wid, msg[2])
                elif kind == "chunk":
                    self._on_chunk(state, state.workers[wid], msg[2], msg[3])
        for handle in state.workers.values():
            if handle.finished:
                handle.proc.join(timeout=_JOIN_TIMEOUT_S)

    def _graceful_shutdown(self, state):
        """Drain in-flight chunks, flush everything, terminate all children."""
        state.stopping = True
        deadline = time.monotonic() + self.policy.drain_timeout_s
        try:
            for handle in state.workers.values():
                if handle.proc.is_alive():
                    handle.queue.put(None)  # stop after the current chunk
            while (any(h.current is not None and h.proc.is_alive()
                       for h in state.workers.values())
                   and time.monotonic() < deadline):
                for msg in self._receive(state):
                    kind, wid = msg[0], msg[1]
                    handle = state.workers[wid]
                    if kind == "chunk":
                        self._on_chunk(state, handle, msg[2], msg[3])
                    elif kind == "start":
                        handle.current = msg[2]
                        handle.started_at = time.monotonic()
                    elif kind == "chunk_failed":
                        handle.current = None
                    elif kind == "done":
                        self._note_done(state, wid, msg[2])
        except KeyboardInterrupt:
            pass  # second interrupt: stop draining, terminate now
        finally:
            for handle in state.workers.values():
                if handle.proc.is_alive():
                    handle.proc.terminate()
                    handle.proc.join(timeout=_JOIN_TIMEOUT_S)
            if state.journal is not None:
                state.journal.close()
            observer = self.campaign.observer
            if observer is not None and hasattr(observer.sink, "flush"):
                observer.sink.flush()

    # ------------------------------------------------------------------ #
    # Result channels
    # ------------------------------------------------------------------ #

    def _receive(self, state, timeout=_POLL_TIMEOUT_S):
        """Wait up to ``timeout`` s for worker messages; return those read.

        Reads at most one message per ready channel, so one chatty worker
        cannot starve the rest.  ``EOFError`` means the worker has exited
        and everything it sent has been read; ``OSError`` means a SIGKILL
        tore its last message mid-send.  Either way the channel is closed.
        """
        channels = {h.conn: h for h in state.workers.values()
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

    def _merge(self, state, n_injections, confidence, wall, tracer,
               observe_mode, observe_base, trace, progress):
        """Order-independent merge of every shard into serial-equivalent state."""
        campaign = self.campaign
        prof = campaign.profiler
        shard_ids = state.shard_ids
        with prof.span("campaign.merge", cat="campaign", workers=len(shard_ids)):
            perf = campaign.perf
            perf.chunk_retries += state.chunk_retries
            perf.chunks_requeued += state.requeued
            perf.chunks_quarantined += len(state.quarantined)
            perf.worker_failures += state.worker_failures
            perf.worker_respawns += state.respawns
            if prof.enabled:
                for wid in shard_ids:
                    payload = state.done_payloads.get(wid)
                    if payload is None:
                        continue
                    if payload["metrics"] is not None:
                        prof.metrics.merge_snapshot(payload["metrics"])
                    if payload["spans"]:
                        prof.adopt_spans(payload["spans"], pid=payload["pid"],
                                         process_name=f"repro.worker[{wid}]")
            # Republishes merged perf into prof.metrics, fixing the derived
            # rate gauges the snapshot merge cannot reconstruct.
            campaign._finalize_perf(state.completed_injections, wall)
            if trace is not None:
                for p in sorted(state.trace_events):
                    trace.record(**state.trace_events[p])
        if progress is not None:
            progress(state.completed_injections, n_injections)
        # A quarantined chunk leaves completed < total, so the heartbeat's
        # own final-tick bypass never fires; force its terminal line.
        _finish_progress(progress, state.completed_injections, n_injections)
        bus = campaign.telemetry
        if (bus is not None and state.quarantined
                and getattr(bus, "recorder", None) is not None):
            bus.dump_flight(
                "quarantine",
                out_dir=Path(state.journal.path).parent
                if state.journal is not None else None)
        campaign.parallel_info = {
            "requested_workers": self.workers,
            "workers": len(shard_ids),
            "wall_time_s": wall,
            "per_worker_injections": [state.workers[w].injections
                                      for w in shard_ids],
            "per_worker_pids": [int(state.workers[w].proc.pid)
                                for w in shard_ids],
            "retries": state.chunk_retries,
            "requeued_chunks": state.requeued,
            "quarantined_chunks": len(state.quarantined),
            "quarantined": [
                {"chunk": cid, **info}
                for cid, info in sorted(state.quarantined.items())
            ],
            "worker_failures": state.worker_failures,
            "worker_respawns": state.respawns,
        }
        result = CampaignResult(
            network=campaign.network_name,
            criterion=campaign.criterion_name,
            injections=state.completed_injections,
            corruptions=state.corrupted_total,
            confidence=confidence,
            per_layer_injections=state.per_layer_inj,
            per_layer_corruptions=state.per_layer_cor,
        )
        if state.journal is not None:
            if not state.quarantined:
                state.journal.write_footer(result)
                self._publish("recovery", "journal_complete", {
                    "path": str(state.journal.path),
                    "chunks_written": int(state.journal.records_written),
                })
            state.journal.close()
        if tracer is not None:
            self._merge_observe(tracer, observe_mode, observe_base, shard_ids,
                                state.memory_events, state.clean_captures)
            tracer.finish(campaign, result)
        return result


class _FleetState:
    """Every accumulator one parallel run threads through its phases."""

    def __init__(self, campaign, chunks, n_injections, journal):
        self.campaign = campaign
        self.journal = journal
        self.per_layer_inj = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.per_layer_cor = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.corrupted_total = 0
        self.completed_injections = 0
        self.done_injections = 0  # progress ticks (includes journaled work)
        self.trace_events = {}
        self.memory_events = []
        self.clean_captures = 0
        self.chunk_sizes = [len(chunk) for chunk in chunks]
        self.backlog = deque(range(len(chunks)))
        self.done = set()
        self.quarantined = {}
        self.attempts = {}
        self.workers = {}
        self.shard_ids = []
        self.done_payloads = {}
        self.fatal_errors = {}
        self.reaped = set()
        self.stopping = False
        self.chunk_retries = 0
        self.requeued = 0
        self.worker_failures = 0
        self.respawns = 0
        self.flush_every = 1

    @property
    def outstanding(self):
        """Chunk ids still needing a successful execution."""
        inflight = {h.current for h in self.workers.values()
                    if h.current is not None}
        return (set(self.backlog) | inflight) - self.done - set(self.quarantined)

    def live_workers(self):
        return [h for h in self.workers.values()
                if h.proc.is_alive() and not h.finished]

    def requeue(self, cid):
        self.requeued += 1
        self.backlog.appendleft(cid)
        # An idle surviving worker picks the retry up immediately.
        for handle in self.live_workers():
            if handle.current is None:
                handle.current = self.backlog.popleft()
                handle.started_at = None
                handle.queue.put(handle.current)
                break

    def quarantine(self, cid, detail):
        self.quarantined[cid] = {
            "layer": None,
            "positions": None,
            "injections": self.chunk_sizes[cid],
            "error": detail,
        }

    def fold_journaled(self, cid, record):
        """Replay one journaled chunk record into the accumulators."""
        self.done.add(cid)
        try:
            self.backlog.remove(cid)
        except ValueError:
            pass
        self._fold_tallies(record)

    def fold_chunk(self, cid, payload):
        """Fold one freshly executed chunk; journal it durably first."""
        if self.journal is not None:
            self.journal.write_chunk(
                cid, {k: payload[k] for k in _JOURNAL_KEYS if k in payload})
        self.done.add(cid)
        self._fold_tallies(payload)
        self.memory_events.extend(payload.get("observe_events") or [])
        self.clean_captures += payload.get("clean_captures", 0)

    def _fold_tallies(self, record):
        recovery_mod.fold_chunk_tallies(record, self.per_layer_inj,
                                        self.per_layer_cor)
        self.corrupted_total += record["corruptions"]
        self.completed_injections += record["injections"]
        recovery_mod.apply_chunk_perf(self.campaign, record["perf"])
        for p, event in recovery_mod.chunk_record_events(record).items():
            self.trace_events[p] = event
