"""Injection-campaign orchestration (the §IV-A methodology).

A campaign repeats: pick inputs the clean model classifies correctly,
corrupt one random site per batch element, run the instrumented model,
and score each element against a corruption criterion.  Results aggregate
into overall and per-layer corruption rates with confidence intervals —
the quantities behind Fig. 4 and Fig. 6.

Execution is *planned upfront and lane-packed*: every random draw (input
choice, site location, per-site error-model seed) happens before any
forward runs, then compatible sites share a batched forward with one
batch lane each — neuron sites that share a resume truncation point,
weight sites in any mix (per-lane weight deltas).  Grouping lets the
whole batch resume from one cached checkpoint (see
:mod:`repro.campaign.resume`), and pre-drawn per-site generators make the
campaign's statistics independent of execution order — a fixed seed yields
bit-identical results whether the resume fast path is on or off, and
whether lanes are packed or not.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import FaultInjection, SingleBitFlip
from ..core.fault_injection import NeuronSite, WeightSite
from ..core.injectors import _quant_for_layer, random_neuron_locations, random_weight_locations
from ..perf import CampaignPerfCounters, campaign_gauges
from ..profile.heartbeat import _finish_progress, _report_progress, coerce_progress
from ..profile.profiler import coerce_profiler
from ..tensor import Tensor, no_grad
from ..tensor import rng as _rng
from .criteria import as_criterion
from .recovery import (
    apply_chunk_perf,
    chunk_record_events,
    open_journal,
    perf_delta,
    perf_snapshot,
)
from .resume import DEFAULT_BUDGET_BYTES, CampaignResumeEngine
from .stats import Proportion
from .trace import margin

#: Chunk-record keys that belong in a journal record (observe events and
#: other bulky worker payload stay out of the journal).
_JOURNAL_KEYS = ("layer", "positions", "injections", "corruptions", "tallies",
                 "perf", "trace_events")


@dataclass
class CampaignResult:
    """Aggregated outcome of an injection campaign."""

    network: str
    criterion: str
    injections: int
    corruptions: int
    confidence: float = 0.99
    per_layer_injections: np.ndarray = field(default=None)
    per_layer_corruptions: np.ndarray = field(default=None)

    @property
    def proportion(self):
        return Proportion(self.corruptions, self.injections, self.confidence)

    @property
    def corruption_rate(self):
        return self.proportion.rate

    def layer_vulnerability(self, layer):
        """Per-layer corruption proportion (None if that layer saw no injections)."""
        n = int(self.per_layer_injections[layer])
        if n == 0:
            return None
        return Proportion(int(self.per_layer_corruptions[layer]), n, self.confidence)

    def __str__(self):
        return (
            f"CampaignResult({self.network}, {self.criterion}): "
            f"corruption rate {self.proportion}"
        )


class CampaignInterrupted(KeyboardInterrupt):
    """A campaign shut down gracefully on SIGINT/SIGTERM.

    Raised by :meth:`InjectionCampaign.run`, in-process or forked, after
    in-flight chunks drained (forked) or were abandoned unjournaled
    (in-process), the journal and sinks flushed, and every child
    terminated.  ``partial`` summarises what completed so
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


@contextmanager
def _sigterm_raises_interrupt():
    """Map SIGTERM to ``KeyboardInterrupt`` for the duration of a run.

    SIGTERM then gets the graceful treatment Ctrl-C gets: completed chunks
    stay journaled, the flight recorder dumps, and ``CampaignInterrupted``
    reports the partial progress.  Handlers only install from the main
    thread; elsewhere SIGTERM keeps its default disposition and the journal
    still survives (it is fsync'd per record).
    """
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except ValueError:
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


class InjectionCampaign:
    """Run repeated randomized injections against one model.

    Parameters
    ----------
    model:
        A trained classifier (left untouched: the campaign clones it once
        and instruments/uninstruments the clone per batch of trials).
    dataset:
        A :class:`repro.data.SyntheticClassification` used to draw inputs.
    error_model:
        The perturbation model; defaults to a single random bit flip.
    criterion:
        Corruption criterion (name or callable), default Top-1
        misclassification.
    batch_size:
        Injections performed per forward pass (each batch element gets its
        own random location — the amortisation §III-C describes).
    quantization:
        Optional per-layer :class:`QuantizationParams` list; passed into
        each injection so bit flips happen in the INT8 domain (Fig. 4).
    layer:
        Restrict injections to one instrumentable layer (per-layer
        vulnerability studies, Fig. 6).
    pool_size:
        How many candidate inputs to pre-screen for clean correctness.
    target:
        ``"neuron"`` (runtime output perturbations, the default) or
        ``"weight"`` (weight rewrites; lane packing confines each fault
        to its own batch row, so weight campaigns batch sites per forward
        just like neuron campaigns).
    strategy:
        Site-sampling strategy: ``"proportional"`` over all elements or
        ``"uniform_layer"``.
    resume:
        Enable the checkpoint-and-resume fast path when the model traces
        to a segment chain.  Falls back transparently (weight campaigns,
        non-chain models) — results are bit-identical either way.
    lane_packing:
        Pack compatible injection sites into the batch lanes of shared
        forwards (the default).  Weight faults pack freely via per-lane
        weight deltas; neuron faults pack when they share a truncation
        point (the same segment of the traced chain), or per layer on
        non-chain models.  ``False`` runs one injection per forward —
        the serial oracle lane-packed runs are verified against.
        Outcomes, per-layer tallies, and the RNG stream are identical
        either way; only forward count (and wall clock) changes.
    resume_budget_bytes:
        Memory budget for the activation checkpoint cache.
    profiler:
        Optional :class:`repro.profile.Profiler` (or ``True`` for a fresh
        one).  When set, the campaign opens spans around its phases (pool
        build, planning, each injection chunk, resume capture/plan,
        observation) annotated with cache hit/miss/eviction deltas, and
        publishes its perf counters into ``profiler.metrics``.  Profiling
        is bitwise invisible: outcomes, RNG stream, and cache statistics
        are identical with and without it.
    """

    def __init__(self, model, dataset, error_model=None, criterion="top1", batch_size=16,
                 input_shape=None, quantization=None, layer=None, pool_size=256,
                 network_name="model", rng=None, target="neuron", strategy="proportional",
                 resume=True, resume_budget_bytes=DEFAULT_BUDGET_BYTES, profiler=None,
                 layers=None, channels=None, lane_packing=True):
        if target not in ("neuron", "weight"):
            raise ValueError(f"target must be 'neuron' or 'weight', got {target!r}")
        self.dataset = dataset
        self.error_model = error_model if error_model is not None else SingleBitFlip()
        self.criterion = as_criterion(criterion)
        self.criterion_name = getattr(self.criterion, "name", str(criterion))
        self.quantization = quantization
        self.layer = layer
        # Hierarchical site restriction (the repro.scenario selectors):
        # ``layers`` limits sampling to a subset of instrumentable layer
        # indices, ``channels`` to a subset of each layer's dim-0 axis.
        # Both None means the legacy whole-network sampling with an
        # identical RNG stream.
        self.layers_subset = list(layers) if layers is not None else None
        self.channels_subset = list(channels) if channels is not None else None
        self.network_name = network_name
        self.target = target
        self.strategy = strategy
        self.rng = _rng.coerce_generator(rng)
        self.perf = CampaignPerfCounters()
        self.profiler = coerce_profiler(profiler)
        self.observer = None  # set by run(observe=...), see repro.observe
        # Live telemetry (repro.telemetry): a TelemetryBus for the duration
        # of one run() in this process, a WorkerTelemetryRelay inside forked
        # workers.  Publishing only reads campaign state — outcomes, RNG
        # stream, and cache statistics are bitwise identical with it on.
        self.telemetry = None
        shape = input_shape if input_shape is not None else dataset.input_shape
        self._work_model = model.clone()
        self._work_model.eval()
        self.fi = FaultInjection(self._work_model, batch_size=batch_size,
                                 input_shape=shape, rng=self.rng)
        self.lane_packing = bool(lane_packing)
        self._resume = None
        # Weight campaigns can resume only when lane-packed: lane hooks
        # splice per-row faulted outputs while the weights themselves stay
        # clean through the forward, so cached prefix activations remain
        # valid.  The unpacked oracle rewrites the weight tensor for the
        # whole forward and must replay nothing.
        if resume and (target == "neuron"
                       or (target == "weight" and self.lane_packing)):
            engine = CampaignResumeEngine(self.fi, resume_budget_bytes)
            if engine.available:
                engine.profiler = self.profiler
                self._resume = engine
        self.perf.resume_enabled = self._resume is not None
        # Lane-compatibility groups for neuron sites: the segment index of
        # each instrumentable layer when the model traces to a chain (sites
        # sharing a segment share a resume truncation point), else None
        # (pack per layer).  Computed regardless of the resume flag so the
        # chunk layout — and with it every batch composition — is identical
        # with resume on and off.
        self._lane_groups = None
        if self.lane_packing and target == "neuron":
            seg = (self._resume.segmented if self._resume is not None
                   else self.fi.segmented())
            if seg is not None and seg.is_chain:
                modules = [m for _, m in self.fi._iter_instrumentable(self._work_model)]
                self._lane_groups = [seg.segment_of(m) for m in modules]
        # Resident (persistent) weight faults — see repro.scenario.  The
        # active set lives here for the duration of one run() so forked
        # workers and the journal fingerprint see it; the fingerprint of the
        # set the resume cache was captured under persists across runs to
        # drive invalidation.
        self._resident_active = None
        self._resident_cache_key = None
        # Cache/capture work done elsewhere — by parallel workers' private
        # forked engines, or by the run that journaled a resumed chunk —
        # never advances this process's engine counters; the deltas
        # accumulate here so ``perf`` reports whole-campaign totals.
        self._parallel_deltas = CampaignPerfCounters()
        self.parallel_info = None  # set by parallel runs, see campaign.parallel
        with self.profiler.span("campaign.pool", cat="campaign", pool_size=pool_size):
            self._build_pool(pool_size)

    def _build_pool(self, pool_size):
        """Pre-screen inputs: keep only ones the clean model gets right.

        The screening forwards double as cache warming: when the resume
        engine is live, each chunk runs as a capture and the checkpoint
        rows of every kept element are stored under its final pool index —
        the fast path starts warm at no extra forward cost.
        """
        images, labels = self.dataset.sample(pool_size, rng=self.rng)
        keep_images, keep_labels, keep_logits = [], [], []
        kept = 0
        with no_grad():
            for start in range(0, len(images), 64):
                chunk = images[start : start + 64]
                chunk_labels = labels[start : start + 64]
                if self._resume is not None:
                    out, boundaries, acts = self._resume.capture(Tensor(chunk))
                    logits = out.data
                else:
                    logits = self._work_model(Tensor(chunk)).data
                correct = logits.argmax(axis=1) == chunk_labels
                rows = np.nonzero(correct)[0]
                if self._resume is not None and len(rows):
                    pool_indices = range(kept, kept + len(rows))
                    self._resume.store_rows(pool_indices, rows, boundaries, acts)
                kept += len(rows)
                keep_images.append(chunk[correct])
                keep_labels.append(chunk_labels[correct])
                keep_logits.append(logits[correct])
        self.pool_images = np.concatenate(keep_images)
        self.pool_labels = np.concatenate(keep_labels)
        self.pool_logits = np.concatenate(keep_logits)
        if len(self.pool_images) == 0:
            raise ValueError(
                "clean model classified no pool inputs correctly; train it before campaigning"
            )
        self.clean_accuracy = len(self.pool_images) / pool_size

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def _plan(self, n):
        """Draw every random decision for ``n`` injections upfront.

        Returns ``(pool_idx, layers, coords, seeds)`` — all sampled with
        batched generator calls.  ``seeds[i]`` later pins injection ``i``'s
        error-model draws to its own generator, so outcomes do not depend
        on the order or batching the executor chooses.
        """
        pool_idx = self.rng.integers(0, len(self.pool_images), size=n)
        if self.target == "weight":
            layers, coords = random_weight_locations(
                self.fi, n, layer=self.layer, rng=self.rng, strategy=self.strategy,
                layers=self.layers_subset, channels=self.channels_subset)
        else:
            layers, coords = random_neuron_locations(
                self.fi, n, layer=self.layer, rng=self.rng, strategy=self.strategy,
                layers=self.layers_subset, channels=self.channels_subset)
        seeds = self.rng.integers(0, np.iinfo(np.int64).max, size=n)
        return pool_idx, layers, coords, seeds

    def _chunks(self, layers, n):
        """Group plan positions into lane-compatible batches of ``batch_size``.

        With lane packing off, every position runs alone — the serial
        one-injection-per-forward oracle.  With it on, compatible sites
        share a forward, one batch lane each:

        * weight faults are all mutually compatible (any mix of layers) —
          each lane re-runs just its row through its faulted layer with a
          per-lane weight delta, so faults never stack across lanes;
        * neuron faults pack when they share a truncation point (the same
          segment of the traced chain), so one cached checkpoint replays
          the whole lane group; non-chain models pack per layer.

        Positions are laid out in stable layer-sorted order, so a site's
        batch lane — and every outcome — is a pure function of the plan.
        """
        if not self.lane_packing:
            return [[p] for p in range(n)]
        if self.target == "weight":
            keys = np.zeros(n, dtype=np.int64)
        elif self._lane_groups is not None:
            keys = np.asarray([self._lane_groups[int(l)] for l in layers])
        else:
            keys = np.asarray(layers)
        batch = self.fi.batch_size
        chunks = []
        current = []
        for p in np.argsort(layers, kind="stable"):
            if current and (keys[p] != keys[current[0]] or len(current) == batch):
                chunks.append(current)
                current = []
            current.append(int(p))
        if current:
            chunks.append(current)
        return chunks

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _execute_chunk(self, layer_idx, positions, pool_idx, coords, seeds,
                       observer=None, layers=None):
        """Run one instrumented forward for one lane-compatible chunk.

        ``layer_idx`` is the chunk's *base* layer (its shallowest site —
        the resume truncation point); ``layers`` carries each position's
        own layer for mixed-layer lane groups, and defaults to every site
        sitting at the base layer.  Returns ``(logits, resumed)``.  The
        resume plan (including any cache refills, which need clean
        forwards) is assembled *before* the model is instrumented, and so
        are the observer's clean reference activations — its
        graceful-degradation capture forward must run on the
        uninstrumented model.
        """
        idx = pool_idx[positions]
        prof = self.profiler
        site_layers = ([int(layers[p]) for p in positions] if layers is not None
                       else [int(layer_idx)] * len(positions))
        resume_plan = None
        if self._resume is not None:
            resume_plan = self._resume.plan_chunk(layer_idx, list(idx), self.pool_images)
        if observer is not None:
            with prof.span("campaign.observe", cat="campaign", phase="prepare",
                           layer=layer_idx):
                observer.prepare_chunk(layer_idx, [int(i) for i in idx],
                                       self.pool_images[idx])
        if self.target == "weight":
            sites = [
                WeightSite(layer=site_layers[b], coords=coords[p],
                           error_model=self.error_model,
                           quantization=_quant_for_layer(self.quantization,
                                                         site_layers[b]),
                           rng=np.random.default_rng(int(seeds[p])),
                           batch=b if self.lane_packing else -1)
                for b, p in enumerate(positions)
            ]
            model = self.fi.instrument(weight_sites=sites, clone=False)
        else:
            sites = [
                NeuronSite(layer=site_layers[b], batch=b, coords=coords[p],
                           error_model=self.error_model,
                           quantization=_quant_for_layer(self.quantization,
                                                         site_layers[b]),
                           rng=np.random.default_rng(int(seeds[p])))
                for b, p in enumerate(positions)
            ]
            model = self.fi.instrument(neuron_sites=sites, clone=False)
        observing = observer.observing() if observer is not None else nullcontext()
        try:
            # Injected values (especially exponent bit flips) legitimately
            # overflow float32 downstream; that is the fault model, not a
            # numerical bug, so the warnings are silenced here.
            with no_grad(), np.errstate(all="ignore"), observing:
                if resume_plan is not None:
                    seg_index, boundary, stub_pairs, skipped = resume_plan
                    mode = "stub" if seg_index is None else "chain"
                    with prof.span("campaign.replay", cat="campaign", mode=mode,
                                   layer=layer_idx, skipped=skipped):
                        with self._resume.segmented.stub_outputs(stub_pairs):
                            if seg_index is None:
                                # Stub mode: the model's own forward re-runs,
                                # but every instrumentable layer <= target
                                # returns its cached clean output.
                                logits = model(Tensor(self.pool_images[idx])).data
                            else:
                                logits = self._resume.segmented.run_from(
                                    seg_index, boundary).data
                    self.perf.layer_forwards_skipped += skipped
                    self.perf.layer_forwards_executed += self.fi.num_layers - skipped
                    return logits, True
                with prof.span("campaign.forward", cat="campaign", layer=layer_idx):
                    logits = model(Tensor(self.pool_images[idx])).data
                self.perf.layer_forwards_executed += self.fi.num_layers
                return logits, False
        finally:
            self.fi.reset()

    def _execute_plan(self, chunks, chunk_ids, plan, *, on_chunk, observer=None,
                      record_events=False):
        """Execute the chunks named by ``chunk_ids`` of an upfront plan.

        The execution core of both strategies of :meth:`run` — in-process
        over every pending chunk, and inside each forked worker one chunk
        at a time: every random decision is already in the plan arrays, so
        this method draws from no generator and its results depend only on
        the chunks it runs.

        ``on_chunk(chunk_id, record)`` fires after every chunk with its
        JSON-serialisable completion record — its only output: layer,
        positions, injection/corruption counts, per-lane ``[layer,
        corrupted]`` tallies, the chunk's perf-counter deltas, and (with
        ``record_events``) its trace events.  The run-state accumulator
        folds these records and the journal stores them verbatim.
        """
        pool_idx, layers, coords, seeds = plan
        prof = self.profiler
        chunk_hist = prof.metrics.histogram(
            "campaign.chunk_seconds", help="wall clock per injection chunk"
        ) if prof.enabled else None
        cache = self._resume.cache if self._resume is not None else None
        for cid in chunk_ids:
            positions = chunks[cid]
            layer_idx = int(layers[positions[0]])
            idx = pool_idx[positions]
            perf_before = perf_snapshot(self)
            cache_before = (
                (cache.hits, cache.misses, cache.evictions)
                if cache is not None and prof.enabled else None
            )
            with prof.span("campaign.chunk", cat="campaign", layer=layer_idx,
                           injections=len(positions)) as chunk_span:
                chunk_started = time.perf_counter()
                logits, resumed = self._execute_chunk(
                    layer_idx, positions, pool_idx, coords, seeds,
                    observer=observer, layers=layers)
                chunk_elapsed = time.perf_counter() - chunk_started
                chunk_span.annotate(resumed=resumed)
                if cache_before is not None:
                    chunk_span.annotate(
                        cache_hits=cache.hits - cache_before[0],
                        cache_misses=cache.misses - cache_before[1],
                        cache_evictions=cache.evictions - cache_before[2])
            if chunk_hist is not None:
                chunk_hist.observe(chunk_elapsed)
            self.perf.forwards += 1
            self.perf.forwards_saved += len(positions) - 1
            self.perf.resumed_forwards += int(resumed)
            flags = self.criterion(logits, self.pool_labels[idx], self.pool_logits[idx])
            # Per-lane [layer, corrupted] pairs: lane-packed chunks may mix
            # layers, so per-layer tallies fold from these.
            tallies = [[int(layers[p]), int(bool(flags[b]))]
                       for b, p in enumerate(positions)]
            corruptions = sum(corrupted for _, corrupted in tallies)
            if observer is not None:
                with prof.span("campaign.observe", cat="campaign",
                               phase="record", layer=layer_idx):
                    observer.record_chunk(
                        positions=positions,
                        layer_idx=layer_idx,
                        layers=[int(layers[p]) for p in positions],
                        pool_indices=[int(i) for i in idx],
                        coords=[coords[p] for p in positions],
                        seeds=[int(seeds[p]) for p in positions],
                        labels=self.pool_labels[idx],
                        clean_predicted=self.pool_logits[idx].argmax(axis=1),
                        logits=logits,
                        flags=flags,
                        resumed=resumed,
                        latency_s=chunk_elapsed,
                    )
            if self.telemetry is not None:
                self.telemetry.publish("campaign", "chunk", {
                    "chunk": int(cid),
                    "layer": layer_idx,
                    "injections": len(positions),
                    "lanes": len(positions),
                    "corruptions": corruptions,
                    "resumed": bool(resumed),
                    "elapsed_s": float(chunk_elapsed),
                })
            record = {
                "layer": layer_idx,
                "positions": [int(p) for p in positions],
                "injections": len(positions),
                "corruptions": corruptions,
                "tallies": tallies,
                "perf": perf_delta(self, perf_before),
            }
            if record_events:
                labels = self.pool_labels[idx]
                margins_before = margin(self.pool_logits[idx], labels)
                margins_after = margin(logits, labels)
                record["trace_events"] = [
                    [int(p), dict(
                        layer=int(layers[p]),
                        coords=[int(c) for c in coords[p]],
                        batch_slot=b,
                        label=int(labels[b]),
                        predicted=int(logits[b].argmax()),
                        corrupted=bool(flags[b]),
                        margin_before=float(margins_before[b]),
                        margin_after=float(margins_after[b]),
                    )]
                    for b, p in enumerate(positions)
                ]
            on_chunk(cid, record)

    def _finalize_perf(self, n_injections, replayed, elapsed_s):
        """Fold one run's totals into the lifetime ``perf`` counters.

        Every other tally is already live: the run state refreshes them on
        each fold.
        """
        self.perf.injections += n_injections
        self.perf.injections_replayed += replayed
        self.perf.elapsed_seconds += elapsed_s
        if self.profiler.enabled:
            self.perf.publish(self.profiler.metrics)

    # ------------------------------------------------------------------ #
    # Resident (persistent) faults
    # ------------------------------------------------------------------ #

    def _begin_resident_session(self, resident):
        """Apply a resident fault set for one run; invalidate stale caches.

        The activation checkpoint cache holds *clean* layer outputs; those
        are only valid for the weights they were captured under.  Whenever
        the resident set differs from the one the cache was filled under
        (including the transitions to and from "no residents"), the cache
        is cleared and the resume engine re-captures lazily — under the
        currently-resident weights — so replayed chunks stay bitwise
        identical to full forwards of the faulted model.
        """
        key = resident.fingerprint if resident is not None else None
        if key != self._resident_cache_key:
            if self._resume is not None:
                self._resume.cache.clear()
            self._resident_cache_key = key
        if resident is not None:
            resident.apply(self.fi)
        self._resident_active = resident

    def _end_resident_session(self):
        """Restore the resident set's weights (verified bitwise) and detach."""
        resident, self._resident_active = self._resident_active, None
        if resident is not None:
            resident.restore()

    def run(self, n_injections, confidence=0.99, progress=None, trace=None, observe=None,
            workers=1, journal=None, recovery=None, resident=None, telemetry=None):
        """Perform ``n_injections`` randomized injections; aggregate results.

        Pass an :class:`~repro.campaign.trace.InjectionTrace` as ``trace``
        to record one :class:`InjectionEvent` per injection (layer, coords,
        outcome, decision-margin erosion); events are emitted in plan
        order, not execution order.

        Pass ``observe=`` to trace fault propagation through the network:
        a :class:`~repro.observe.PropagationTracer`, a JSONL log path, or
        ``True`` for an in-memory tracer (kept on ``self.observer``).  The
        tracer records per-layer clean-vs-perturbed divergence and emits
        one telemetry event per injection; observation never changes the
        campaign's outcomes, RNG stream, or cache statistics.

        ``progress`` accepts a ``callable(done, total)``, or ``True`` for
        the default :class:`~repro.profile.CampaignHeartbeat` printing
        injections/sec, cache hit rate, and ETA to stderr at a fixed
        interval.

        ``workers=N`` (N > 1) shards the plan's chunks across N fork-based
        worker processes via
        :class:`~repro.campaign.parallel.ParallelCampaignExecutor`.  Only
        the execution step differs from ``workers=1``: the plan is drawn,
        the journal opened, chunk records folded, and the result finished
        here either way, and every injection carries a pinned seed, so
        outcomes, per-layer vulnerability, and telemetry events are
        bitwise-identical to ``workers=1`` — only wall clock changes.  On
        platforms without ``fork`` the campaign runs in-process with a
        :class:`RuntimeWarning`.

        ``journal=`` names a crash-consistent write-ahead log
        (:mod:`repro.campaign.recovery`): every completed chunk is
        fsync'd to it, and a rerun against the same journal path (same
        campaign construction, same seed, same ``n_injections``) resumes
        exactly where the interrupted run stopped — including after
        ``kill -9`` — with bitwise-identical results.  A journal written
        for a different plan or model is rejected with
        :class:`~repro.campaign.recovery.JournalMismatchError`.

        SIGINT and SIGTERM (when ``run`` is called from the main thread)
        stop the run gracefully, with or without workers: completed chunks
        stay journaled and :class:`CampaignInterrupted` is raised, its
        ``partial`` naming the completed injection count and the journal
        to resume from.

        ``recovery=`` (parallel runs only) is a
        :class:`~repro.campaign.recovery.RecoveryPolicy` (or kwargs dict)
        tuning chunk retry, worker respawn, the per-chunk watchdog, and
        graceful-shutdown draining.

        ``resident=`` installs a persistent fault set (e.g. a
        :class:`~repro.scenario.ResidentFaultSet` of stuck-at weight
        faults) on the work model for the *whole* run: the faults survive
        across every inference — pool evaluations, resume re-captures,
        forked workers inherit them — and the original weights are
        restored, verified bitwise, when the run ends.  The resume cache
        is invalidated whenever the resident set changes between runs,
        and the journal fingerprint pins the set so a journal written for
        a different resident configuration is rejected.

        ``telemetry=`` attaches a live event bus
        (:class:`~repro.telemetry.TelemetryBus`, or ``True`` for a fresh
        one with a flight recorder): the run publishes its lifecycle,
        per-chunk completions, heartbeat ticks, recovery/journal events,
        worker liveness, and observe events as schema-versioned envelopes
        any number of consumers (stream server, sampler, flight recorder,
        ``repro top``) subscribe to.  Publishing never blocks the hot
        path and never perturbs the science: outcomes, RNG stream, and
        cache statistics are bitwise identical with telemetry on.  On an
        abnormal end (interrupt, fleet exhausted, unhandled exception)
        the attached flight recorder dumps its ring of recent events next
        to the journal (or into its configured directory).
        """
        if n_injections < 1:
            raise ValueError(f"n_injections must be >= 1, got {n_injections}")
        if workers is None:
            workers = 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        from ..telemetry import coerce_bus

        executor = None
        if workers > 1:
            if "fork" in multiprocessing.get_all_start_methods():
                from .parallel import ParallelCampaignExecutor

                executor = ParallelCampaignExecutor(self, workers, recovery=recovery)
            else:
                warnings.warn(
                    "fork start method unavailable; parallel campaign falling "
                    "back to serial execution", RuntimeWarning, stacklevel=2)
        self.parallel_info = None
        self._begin_resident_session(resident)
        tel = self.telemetry = coerce_bus(telemetry)
        recorder = getattr(tel, "recorder", None)
        # Failure sites closer to the fault (fleet-exhausted, quarantine)
        # dump the flight recorder themselves with a sharper reason; the
        # mark keeps this outer catch-all from dumping a second time.
        dump_mark = len(recorder.dumps) if recorder is not None else None
        if tel is not None:
            tel.publish("campaign", "run_start", {
                "network": self.network_name,
                "n_injections": int(n_injections),
                "workers": int(workers),
                "target": self.target,
                "journal": str(journal) if journal is not None else None,
            })
        try:
            with _sigterm_raises_interrupt():
                result = self._run_pipeline(n_injections, confidence, progress,
                                            trace, observe, journal, executor)
            if tel is not None:
                tel.publish("campaign", "run_end", {
                    "injections": int(result.injections),
                    "corruptions": int(result.corruptions),
                })
            return result
        except BaseException as err:
            if tel is not None:
                reason = ("interrupt" if isinstance(err, KeyboardInterrupt)
                          else type(err).__name__.lower())
                tel.publish("campaign", "run_aborted",
                            {"reason": reason, "error": str(err)})
                if recorder is not None and len(recorder.dumps) == dump_mark:
                    out_dir = (Path(journal).parent
                               if journal is not None else None)
                    tel.dump_flight(reason, out_dir=out_dir)
            raise
        finally:
            self.telemetry = None
            self._end_resident_session()

    def _run_pipeline(self, n_injections, confidence, progress, trace, observe,
                      journal, executor):
        """Plan, journal, fold, execute, finish — the body of :meth:`run`.

        Only step 4 depends on the execution strategy: in-process
        :meth:`_execute_plan` when ``executor`` is None, else the forked
        fleet.  Both feed the same :class:`_RunState`, whose fold journals
        each chunk record before counting it.
        """
        progress = coerce_progress(progress, self)
        tracer = journal_log = None
        try:
            if observe is not None and observe is not False:
                from ..observe import coerce_tracer

                tracer = coerce_tracer(observe)
                # Raises for weight campaigns — before any fork.  Forked
                # workers inherit the attached tracer.
                tracer.attach(self)
                self.observer = tracer
            started = time.perf_counter()
            # 1. Plan and chunk.
            with self.profiler.span("campaign.plan", cat="campaign",
                                    injections=n_injections):
                plan = self._plan(n_injections)
            chunks = self._chunks(plan[1], n_injections)
            # 2. Open the journal.
            completed = {}
            if journal is not None:
                journal_log, completed = open_journal(
                    journal, self, n_injections, plan, len(chunks))
            # A journal always captures trace events: the run that resumes
            # it may ask for a trace even if this (interrupted) one did not.
            state = _RunState(self, n_injections, plan, chunks, journal_log,
                              progress, trace is not None or journal is not None)
            if tracer is not None:
                tracer.begin(self, n_injections)  # header first, sized buffer
                if hasattr(tracer.sink, "flush"):
                    tracer.sink.flush()  # nothing buffered crosses a fork
            # 3. Fold the journaled records.
            state.fold_journaled(completed)
            # 4. Execute the pending chunks.
            try:
                if executor is not None:
                    executor.execute(state, tracer)
                else:
                    self._execute_plan(chunks, state.pending(), plan,
                                       observer=tracer,
                                       record_events=state.record_events,
                                       on_chunk=state.fold_chunk)
            except KeyboardInterrupt:
                raise CampaignInterrupted(state.partial()) from None
            # 5. Finish.
            elapsed = time.perf_counter() - started
            if executor is not None:
                executor.merge(elapsed)
            self._finalize_perf(state.completed_injections,
                                state.replayed_injections, elapsed)
            if trace is not None:
                for p in sorted(state.trace_events):
                    trace.record(**state.trace_events[p])
            result = CampaignResult(
                network=self.network_name,
                criterion=self.criterion_name,
                injections=state.completed_injections,
                corruptions=state.corrupted_total,
                confidence=confidence,
                per_layer_injections=state.per_layer_inj,
                per_layer_corruptions=state.per_layer_cor,
            )
            if journal_log is not None and not state.quarantined:
                journal_log.write_footer(result)
                if self.telemetry is not None:
                    self.telemetry.publish("recovery", "journal_complete", {
                        "path": str(journal_log.path),
                        "chunks_written": int(journal_log.records_written),
                    })
            if tracer is not None:
                tracer.finish(self, result)
            # A quarantined chunk leaves completed < total, so a heartbeat's
            # own final-tick bypass never fires; force its terminal line.
            _finish_progress(progress, state.completed_injections, n_injections)
            return result
        finally:
            if journal_log is not None:
                journal_log.close()
            if tracer is not None:
                if hasattr(tracer.sink, "flush"):
                    tracer.sink.flush()
                tracer.detach()


class _RunState:
    """The accumulator one :meth:`InjectionCampaign.run` folds chunks into.

    Journaled records, in-process executions, and worker payloads all
    arrive as the same chunk record (see ``_execute_plan``), so per-layer
    tallies, trace events, and progress have one fold whatever executed
    the chunk.  Perf deltas are applied only for records this process's
    counters did not already count: journaled chunks and workers' chunks.

    The fold is also the only producer of campaign gauges: each one leaves
    ``campaign.perf`` current and publishes the snapshot
    :func:`~repro.perf.campaign_gauges` derives from it, as the data of a
    ``campaign/progress`` envelope and to the progress reporter.
    """

    def __init__(self, campaign, n_injections, plan, chunks, journal, progress,
                 record_events):
        self.campaign = campaign
        self.n_injections = n_injections
        self.plan = plan
        self.chunks = chunks
        self.journal = journal
        self.progress = progress
        self.record_events = record_events
        self.per_layer_inj = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.per_layer_cor = np.zeros(campaign.fi.num_layers, dtype=np.int64)
        self.corrupted_total = 0
        self.completed_injections = 0
        self.replayed_injections = 0  # folded from the journal, not executed
        self.executing_since = None  # perf_counter when execution began
        self.trace_events = {}
        self.done = set()
        self.quarantined = {}

    def pending(self):
        """Chunk ids not yet folded, in plan order."""
        return [cid for cid in range(len(self.chunks)) if cid not in self.done]

    def fold_journaled(self, completed):
        """Replay journaled chunk records without executing them.

        Execution starts once this returns, so the throughput clock does.
        """
        for cid, record in completed.items():
            self._fold(cid, record, apply_perf=True)
        self.replayed_injections = self.completed_injections
        self.executing_since = time.perf_counter()
        self._publish(report=self.completed_injections > 0)

    def fold_chunk(self, cid, record, apply_perf=False):
        """Fold one freshly executed chunk; journal it durably first."""
        if self.journal is not None:
            self.journal.write_chunk(
                cid, {k: record[k] for k in _JOURNAL_KEYS if k in record})
        self._fold(cid, record, apply_perf)
        self._publish()

    def _fold(self, cid, record, apply_perf):
        self.done.add(cid)
        for layer, corrupted in record["tallies"]:
            self.per_layer_inj[layer] += 1
            self.per_layer_cor[layer] += corrupted
        self.corrupted_total += record["corruptions"]
        self.completed_injections += record["injections"]
        if apply_perf:
            apply_chunk_perf(self.campaign, record["perf"])
        self.trace_events.update(chunk_record_events(record))

    def _publish(self, report=True):
        """Bring ``campaign.perf`` up to date; hand its gauges to every reader.

        Cache statistics are absolute reads of this process's engine plus
        the deltas journaled chunks and forked workers reported (their
        engines never advance ours).
        """
        campaign = self.campaign
        perf, engine = campaign.perf, campaign._resume
        if engine is not None:
            cache, deltas = engine.cache, campaign._parallel_deltas
            perf.capture_forwards = engine.capture_forwards + deltas.capture_forwards
            perf.cache_hits = cache.hits + deltas.cache_hits
            perf.cache_misses = cache.misses + deltas.cache_misses
            perf.cache_evictions = cache.evictions + deltas.cache_evictions
            perf.cache_bytes = cache.bytes_used + deltas.cache_bytes
        bus = campaign.telemetry
        if not report or (bus is None and self.progress is None):
            return
        gauges = campaign_gauges(
            perf, self.completed_injections, self.n_injections,
            self.completed_injections - self.replayed_injections,
            time.perf_counter() - self.executing_since)
        if bus is not None:
            bus.publish("campaign", "progress", gauges)
        if self.progress is not None:
            _report_progress(self.progress, gauges)

    def quarantine(self, cid, detail):
        """Give up on a chunk: record its base layer, positions, and error."""
        positions = self.chunks[cid]
        self.quarantined[cid] = {
            "layer": int(self.plan[1][positions[0]]),
            "positions": [int(p) for p in positions],
            "injections": len(positions),
            "error": detail,
        }

    def partial(self):
        """What completed before an interrupt (``CampaignInterrupted.partial``)."""
        return {
            "completed_injections": self.completed_injections,
            "n_injections": self.n_injections,
            "journal": str(self.journal.path) if self.journal is not None else None,
            "completed_chunks": len(self.done),
            "n_chunks": len(self.chunks),
        }
