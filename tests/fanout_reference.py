"""The reference interpreter as it stood before the source-sorted synapse
table: one (targets, weights, delays) array triple per neuron, built in a
Python loop over the synapses, one scatter per fired neuron, and a delay
ring of ``max_delay + 1`` slots. Test-only: the differential tests drive it
and ``snnmesh.model.reference_run`` with the same networks and require
identical rasters."""

from __future__ import annotations

import numpy as np

from snnmesh.model import Network, SpikeRaster, lif_bounds, lif_step_arrays, neuron_arrays


def fanout_reference_run(net: Network) -> SpikeRaster:
    """Sequential time-driven interpreter with per-neuron fanout arrays."""
    net.validate()
    n = net.n_neurons
    if n == 0 or net.t_max == 0:
        return SpikeRaster([])

    tau, g, vr, vth, v = neuron_arrays(net.neurons)
    bounds = lif_bounds(tau, g, vr)

    # Adjacency: per-neuron fanout as (targets, weights, delays) arrays.
    fan_dst: list[list[int]] = [[] for _ in range(n)]
    fan_w: list[list[int]] = [[] for _ in range(n)]
    fan_d: list[list[int]] = [[] for _ in range(n)]
    for s in net.synapses:
        fan_dst[s.src].append(s.dst)
        fan_w[s.src].append(s.weight)
        fan_d[s.src].append(s.delay)
    fanout = [
        (np.array(fan_dst[i], dtype=np.int64),
         np.array(fan_w[i], dtype=np.int64),
         np.array(fan_d[i], dtype=np.int64))
        for i in range(n)
    ]

    ext: dict[int, list[tuple[int, int]]] = {}
    for nid, events in net.inputs.items():
        for t, cur in events:
            ext.setdefault(t, []).append((nid, cur))

    n_ring = net.max_delay + 1
    ring = np.zeros((n_ring, n), dtype=np.int64)
    spikes: list[tuple[int, int]] = []

    for t in range(net.t_max):
        slot = t % n_ring
        acc = ring[slot]
        for nid, cur in ext.get(t, ()):
            acc[nid] += cur
        v, fired, _ = lif_step_arrays(v, acc, tau, g, vr, vth, bounds)
        ring[slot] = 0
        fired_ids = np.nonzero(fired)[0]
        for i in fired_ids:
            spikes.append((int(i), t))
            dst, w, d = fanout[i]
            if len(dst):
                np.add.at(ring, ((t + d) % n_ring, dst), w)
    return SpikeRaster(spikes, t_max=net.t_max)
