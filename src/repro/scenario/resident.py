"""Resident (persistent) weight faults — stuck-at bit-cells that survive.

A transient campaign injection perturbs one value for one inference; a
*resident* fault models a broken storage cell: the affected weight bit
reads the same wrong value on every inference until the hardware is
replaced.  :class:`ResidentFaultSet` owns a set of such faults and knows
how to apply them to a :class:`~repro.core.FaultInjection` engine's model
and how to undo them with a *verified bitwise* restoration — the original
weight bytes are checksummed before mutation and the checksum is
re-verified after restore, so a scenario can never leak corrupted weights
into the next sweep point.

The set is applied directly to the work model's weight arrays rather than
through ``fi.instrument``: instrumentation is per-chunk (and per-chunk
``fi.reset()`` would silently heal the "broken" cells), whereas resident
faults must persist across every forward of a run — pool screening,
resume re-captures, forked parallel workers (which inherit the mutated
weights copy-on-write), and each planned injection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..core import bitflip
from ..core.injectors import random_weight_locations


@dataclass(frozen=True)
class ResidentWeightFault:
    """One stuck-at bit-cell in one weight element.

    ``bit`` indexes into the storage representation: the weight's own
    IEEE-754 pattern, or the quantized integer domain when the owning
    :class:`ResidentFaultSet` carries per-layer quantization params.
    """

    layer: int
    coords: tuple
    bit: int
    stuck: int

    def __post_init__(self):
        if self.stuck not in (0, 1):
            raise ValueError(f"stuck must be 0 or 1, got {self.stuck!r}")
        if self.bit < 0:
            raise ValueError(f"bit must be >= 0, got {self.bit}")

    def describe(self):
        return {
            "layer": int(self.layer),
            "coords": [int(c) for c in self.coords],
            "bit": int(self.bit),
            "stuck": int(self.stuck),
        }


class ResidentFaultSet:
    """A set of stuck-at weight faults applied for the duration of a run.

    Parameters
    ----------
    faults:
        Iterable of :class:`ResidentWeightFault`.
    quantization:
        ``None`` for faults in the float32 bit pattern, or a per-layer
        sequence of :class:`~repro.core.QuantizationParams` describing the
        *weight* integer domain (see :func:`repro.quant.weight_params`):
        each faulted weight is quantized, its bit forced, and the result
        dequantized back — the stuck-at model on INT8 weight memories.

    Lifecycle: :meth:`apply` snapshots the originals and writes the
    faulted values; :meth:`restore` writes the originals back and verifies
    the affected arrays byte-for-byte against pre-apply checksums.  The
    set is reusable (apply/restore any number of times) but not
    re-entrant — a second ``apply`` without an intervening ``restore``
    raises.

    A swap costs a handful of numpy calls per affected layer, not per
    fault: the faults are grouped once into a columnar per-layer form
    (int64 coordinate columns, a bit array and a stuck mask), and each
    layer is then validated, gathered, forced and scattered as a whole.
    The set is immutable, so that form and :attr:`fingerprint` are both
    computed once and reused by every later swap.
    """

    def __init__(self, faults, quantization=None):
        self.faults = tuple(faults)
        if len({(f.layer, f.coords) for f in self.faults}) != len(self.faults):
            raise ValueError("resident fault set targets the same weight twice")
        self.quantization = list(quantization) if quantization is not None else None
        self._applied = None
        self._columns = None
        self._fingerprint = None

    def __len__(self):
        return len(self.faults)

    def __repr__(self):
        domain = "int8" if self.quantization is not None else "float32"
        return f"ResidentFaultSet({len(self.faults)} faults, domain={domain})"

    @property
    def fingerprint(self):
        """Stable digest of the fault set (journal/cache identity)."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for fault in sorted(self.faults, key=lambda f: (f.layer, f.coords)):
                h.update(repr((fault.layer, tuple(fault.coords), fault.bit,
                               fault.stuck)).encode())
            if self.quantization is not None:
                for params in self.quantization:
                    h.update(repr((float(params.scale), int(params.bits))).encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def describe(self):
        return [fault.describe() for fault in self.faults]

    def _layer_columns(self):
        """Per-layer columnar form of the faults, in first-appearance order.

        Each entry is ``(layer, positions, coords, bits, stuck)``: the
        faults' indices into :attr:`faults`, their coordinates as an
        ``(n, ndim)`` int64 array (``None`` when the coordinate lengths
        differ, which no weight shape can accept), the bit indices, and a
        boolean stuck-at-1 mask.
        """
        if self._columns is None:
            groups = {}
            for pos, fault in enumerate(self.faults):
                groups.setdefault(int(fault.layer), []).append(pos)
            columns = []
            for layer, positions in groups.items():
                picked = [self.faults[p] for p in positions]
                ndims = {len(f.coords) for f in picked}
                coords = (np.array([f.coords for f in picked], dtype=np.int64)
                          .reshape(len(picked), ndims.pop())
                          if len(ndims) == 1 else None)
                columns.append((
                    layer,
                    np.asarray(positions, dtype=np.int64),
                    coords,
                    np.array([f.bit for f in picked], dtype=np.int64),
                    np.array([f.stuck == 1 for f in picked], dtype=bool),
                ))
            self._columns = columns
        return self._columns

    def _validate(self, fi, columns):
        """Raise ``ValueError`` for the first fault no weight can take."""
        first_bad = None
        for layer, positions, coords, _, _ in columns:
            shape = fi.layer(layer).weight_shape
            if shape is None:
                bad = positions
            elif coords is None:
                bad = positions[[
                    len(self.faults[p].coords) != len(shape)
                    or any(not 0 <= c < bound for c, bound in
                           zip(self.faults[p].coords, shape))
                    for p in positions]]
            elif coords.shape[1] != len(shape):
                bad = positions
            else:
                bad = positions[((coords < 0) | (coords >= shape)).any(axis=1)]
            if bad.size and (first_bad is None or bad[0] < first_bad):
                first_bad = int(bad[0])
        if first_bad is None:
            return
        fault = self.faults[first_bad]
        info = fi.layer(fault.layer)
        if info.weight_shape is None:
            raise ValueError(f"layer {fault.layer} ({info.name}) has no weights")
        raise ValueError(
            f"weight coords {fault.coords} invalid for layer "
            f"{fault.layer} ({info.name}, shape {info.weight_shape})")

    def apply(self, fi):
        """Write the stuck-at values into ``fi``'s model weights.

        Validates every site against the engine's profile and computes
        every faulted value before any weight is written, checksumming
        each affected weight array on the way.
        """
        if self._applied is not None:
            raise RuntimeError("resident fault set is already applied")
        columns = self._layer_columns()
        self._validate(fi, columns)
        modules = [m for _, m in fi._iter_instrumentable(fi.model)]
        checksums = {}
        writes = []
        for layer, _, coords, bits, stuck in columns:
            weight = modules[layer].weight
            checksums[layer] = (
                weight, hashlib.sha256(weight.data.tobytes()).hexdigest())
            index = tuple(coords.T)
            original = weight.data[index]
            quant = (self.quantization[layer]
                     if self.quantization is not None else None)
            stored = quant.quantize(original) if quant is not None else original
            forced = np.where(stuck, bitflip.set_bits(stored, bits),
                              bitflip.clear_bits(stored, bits))
            if quant is not None:
                forced = quant.dequantize(forced).astype(original.dtype)
            writes.append((weight, index, original, forced))
        for weight, index, _, forced in writes:
            weight.data[index] = forced
        self._applied = (writes, checksums)
        return self

    def restore(self):
        """Undo :meth:`apply`; verify affected arrays restored bitwise."""
        if self._applied is None:
            raise RuntimeError("resident fault set is not applied")
        writes, checksums = self._applied
        for weight, index, original, _ in writes:
            weight.data[index] = original
        for layer, (weight, digest) in checksums.items():
            if hashlib.sha256(weight.data.tobytes()).hexdigest() != digest:
                raise RuntimeError(
                    f"bitwise weight restoration failed for layer {layer}: "
                    f"the restored array does not match its pre-fault bytes")
        self._applied = None
        return self


def sample_resident_faults(fi, k, rng, bit=None, stuck=1, layers=None,
                           channels=None, quantization=None, bits=None):
    """Sample ``k`` distinct stuck-at weight faults; returns a fault set.

    Sites are drawn with :func:`~repro.core.random_weight_locations`
    (proportional over all eligible weight elements, honouring the
    ``layers``/``channels`` selector subsets), de-duplicated, and re-drawn
    until ``k`` distinct sites exist.  ``bit=None`` draws a uniform bit
    index per fault over the storage width — ``bits`` (default: the
    quantization bit width, else 32 for float32 weights).  All randomness
    comes from ``rng``, so a seeded generator makes the set deterministic.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    if bits is None:
        bits = quantization[0].bits if quantization else 32
    if bit is not None and not 0 <= bit < bits:
        raise ValueError(f"bit {bit} out of range [0, {bits})")
    candidates = [info for info in fi.layers if info.weight_shape]
    shapes = {info.index: info.weight_shape for info in candidates}
    offsets = dict(zip(shapes, np.cumsum(
        [0] + [info.weights for info in candidates]).tolist()))
    sites = []
    seen = np.empty(0, dtype=np.int64)
    stagnant = 0
    while len(sites) < k:
        want = k - len(sites)
        layer_idx, coords = random_weight_locations(
            fi, want, rng=rng, layers=layers, channels=channels)
        # One flat key per site — the layer's offset into the concatenated
        # weight space plus the raveled coordinate — so de-duplication is
        # a couple of array set operations rather than a tuple set.
        keys = np.empty(len(coords), dtype=np.int64)
        for layer in np.unique(layer_idx).tolist():
            slots = np.nonzero(layer_idx == layer)[0]
            shape = shapes[layer]
            block = np.fromiter(
                chain.from_iterable(coords[i] for i in slots.tolist()),
                dtype=np.int64, count=len(slots) * len(shape))
            keys[slots] = offsets[layer] + np.ravel_multi_index(
                tuple(block.reshape(len(slots), len(shape)).T), shape)
        _, first = np.unique(keys, return_index=True)
        first.sort()  # first-occurrence (draw) order
        fresh = first[~np.isin(keys[first], seen)]
        seen = np.concatenate([seen, keys[fresh]])
        sites.extend((int(layer_idx[i]), coords[i]) for i in fresh.tolist())
        # Re-draws replace collisions; many consecutive all-collision
        # rounds means k approaches (or exceeds) the number of distinct
        # eligible sites, which deserves an error rather than a hang.
        stagnant = 0 if fresh.size else stagnant + 1
        if stagnant >= 100:
            raise ValueError(
                f"cannot sample {k} distinct weight sites under the "
                f"selector (found {len(sites)}); reduce the fault count "
                f"or widen the selection")
    faults = []
    for layer, coord in sites:
        chosen = int(rng.integers(0, bits)) if bit is None else int(bit)
        faults.append(ResidentWeightFault(layer=layer, coords=coord,
                                          bit=chosen, stuck=stuck))
    return ResidentFaultSet(faults, quantization=quantization)
