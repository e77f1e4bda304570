"""Test-only reference for the workload generators: ``gen_synthetic`` and
``gen_layered`` as they were written before their random draws were taken
in bulk, one ``rng.random()`` call per draw. ``snnmesh.model``'s
generators must return the same ``Network`` and leave their ``Random`` in
the same state. Argument checks are left out: the tests only pass valid
arguments."""

from __future__ import annotations

import random

from snnmesh.fixedpoint import fx
from snnmesh.model import (
    _V_TH,
    Network,
    NeuronParams,
    Synapse,
    rate_knobs_for_level,
)


def gen_synthetic(n_neurons, n_synapses, frac_inhibitory=0.2, rate_knobs=None,
                  seed=0, *, t_max=100, max_delay=2, input_rate=0.05,
                  input_amp=18.0):
    if n_neurons == 0:
        return Network(neurons=[], synapses=[], inputs={}, t_max=t_max, max_delay=max_delay)
    knobs = rate_knobs_for_level(0.5) if rate_knobs is None else rate_knobs
    tau_lo, tau_hi, vr_lo, vr_hi = knobs
    rng = random.Random(seed)
    v_th = fx(_V_TH)

    neurons = []
    inhibitory = []
    for i in range(n_neurons):
        tau = fx(rng.uniform(tau_lo, tau_hi))
        vr = fx(min(rng.uniform(vr_lo, vr_hi), _V_TH - 2.0))
        neurons.append((NeuronParams(tau_m=tau, v_rst=vr, g_l=fx(1.0), v_th=v_th), vr))
        inhibitory.append(rng.random() < frac_inhibitory)

    synapses = []
    for _ in range(n_synapses):
        src = rng.randrange(n_neurons)
        dst = rng.randrange(n_neurons)
        mag = fx(rng.uniform(1.0, 4.0))
        w = -mag if inhibitory[src] else mag
        synapses.append(Synapse(src=src, dst=dst, weight=w, delay=rng.randint(1, max_delay)))

    amp = fx(input_amp)
    inputs = {}
    for i in range(n_neurons):
        events = [(t, amp) for t in range(t_max) if rng.random() < input_rate]
        if events:
            inputs[i] = events

    return Network(neurons=neurons, synapses=synapses, inputs=inputs,
                   t_max=t_max, max_delay=max_delay)


def gen_layered(layer_sizes, fanin, seed=0, *, t_max=100, max_delay=1,
                input_rate=0.1, input_amp=40.0, weight_scale=7.0,
                background_rate=0.05, background_amp=12.0):
    rng = random.Random(seed)
    v_th = fx(_V_TH)
    params = NeuronParams(tau_m=fx(2.0), v_rst=fx(0.0), g_l=fx(1.0), v_th=v_th)
    n_total = sum(layer_sizes)
    neurons = [(params, 0)] * n_total

    w_mid = _V_TH * weight_scale / fanin
    starts = [0]
    for sz in layer_sizes:
        starts.append(starts[-1] + sz)

    synapses = []
    for li in range(1, len(layer_sizes)):
        prev_lo, prev_hi = starts[li - 1], starts[li]
        for dst in range(starts[li], starts[li + 1]):
            srcs = rng.sample(range(prev_lo, prev_hi), fanin)
            for src in sorted(srcs):
                w = fx(rng.uniform(0.7 * w_mid, 1.3 * w_mid))
                synapses.append(Synapse(src=src, dst=dst, weight=w,
                                        delay=rng.randint(1, max_delay)))

    amp = fx(input_amp)
    bg_amp = fx(background_amp)
    inputs = {}
    for i in range(layer_sizes[0]):
        events = [(t, amp) for t in range(t_max) if rng.random() < input_rate]
        if events:
            inputs[i] = events
    for i in range(layer_sizes[0], n_total):
        events = [(t, bg_amp) for t in range(t_max) if rng.random() < background_rate]
        if events:
            inputs[i] = events

    return Network(neurons=neurons, synapses=synapses, inputs=inputs,
                   t_max=t_max, max_delay=max_delay, layers=list(layer_sizes))
