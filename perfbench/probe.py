"""Clean vs. one-fault forwards of one model: the paper's Fig. 3 protocol.

A probe owns one zoo model and two :class:`~repro.core.FaultInjection`
engines: batch 16 for the throughput phase (one declared neuron fault on
a clone, timed against the clean model) and batch 1 for the latency
phase (declare -> forward -> ``fi.reset()`` per injection, in place).
The error model flips a fixed bit, so every forward is deterministic and
traced and untraced runs can be compared bitwise.
"""

from __future__ import annotations

import time

import numpy as np

from repro import models
from repro.core import FaultInjection, SingleBitFlip, random_neuron_locations
from repro.tensor import Tensor, no_grad

THROUGHPUT_BATCH = 16
N_SITES = 64
# Bit 23 is the lowest float32 exponent bit: the faulted neuron doubles
# or halves, which changes the output without overflowing to inf/NaN.
FLIP = SingleBitFlip(bit=23)


def _dims(coords):
    """``coords`` padded to the (dim1, dim2, dim3) declare arguments."""
    dims = list(coords) + [None] * (3 - len(coords))
    return dict(dim1=dims[0], dim2=dims[1], dim3=dims[2])


class FIProbe:
    """Forwards of one model with and without one declared neuron fault."""

    def __init__(self, name, dataset, scale, seed, net=None):
        self.name = name
        if net is None:
            net = models.get_model(name, dataset, scale=scale, rng=seed)
            net.eval()
        self.net = net
        _, size = models.dataset_preset(dataset)
        shape = (3, size, size)
        self.fi16 = FaultInjection(net, batch_size=THROUGHPUT_BATCH,
                                   input_shape=shape, rng=seed)
        self.fi1 = FaultInjection(net, batch_size=1, input_shape=shape, rng=seed)
        gen = np.random.default_rng((seed, 0xF13))
        self.x16 = Tensor(gen.standard_normal(
            (THROUGHPUT_BATCH, *shape)).astype(np.float32))
        self.x1 = Tensor(self.x16.data[:1].copy())
        layers, coords = random_neuron_locations(self.fi1, N_SITES, rng=gen)
        self.sites = [(int(layer), tuple(int(c) for c in coord))
                      for layer, coord in zip(layers, coords)]
        layer, coords = self.sites[0]
        self.corrupted = self.fi16.declare_neuron_fault_injection(
            layer, **_dims(coords), function=FLIP)

    def clean_forward(self):
        with no_grad():
            return self.net(self.x16).data

    def fi_forward(self):
        with no_grad(), np.errstate(all="ignore"):
            return self.corrupted(self.x16).data

    def cycle(self, index):
        """One batch-1 declare -> forward -> reset.

        Returns ``(cycle_s, instrument_and_reset_s, output)``.
        """
        layer, coords = self.sites[index % len(self.sites)]
        t0 = time.perf_counter()
        model = self.fi1.declare_neuron_fault_injection(
            layer, **_dims(coords), function=FLIP, clone=False)
        t1 = time.perf_counter()
        with no_grad(), np.errstate(all="ignore"):
            out = model(self.x1).data
        t2 = time.perf_counter()
        self.fi1.reset()
        t3 = time.perf_counter()
        return t3 - t0, (t1 - t0) + (t3 - t2), out

    def check(self):
        """Untimed correctness checks; returns a list of failure messages.

        A repeated one-fault forward must be bitwise identical, and
        ``fi.reset()`` must restore the clean output bitwise after a
        neuron fault and after a weight fault declared in place.
        """
        failures = []
        if not np.array_equal(self.fi_forward(), self.fi_forward()):
            failures.append(f"{self.name}: repeated one-fault forwards differ")
        with no_grad(), np.errstate(all="ignore"):
            clean = self.net(self.x1).data.copy()
            layer, coords = self.sites[1]
            self.fi1.declare_neuron_fault_injection(
                layer, **_dims(coords), function=SingleBitFlip(bit=30),
                clone=False)(self.x1)
            self.fi1.reset()
            if not np.array_equal(self.net(self.x1).data, clean):
                failures.append(f"{self.name}: neuron fault survived fi.reset()")
            weight_coords = tuple(0 for _ in self.fi1.weight_size(layer))
            self.fi1.declare_weight_fault_injection(
                layer, coords=weight_coords, function=SingleBitFlip(bit=30),
                clone=False)(self.x1)
            self.fi1.reset()
            if not np.array_equal(self.net(self.x1).data, clean):
                failures.append(f"{self.name}: weight fault survived fi.reset()")
        return failures
