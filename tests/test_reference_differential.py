"""Differential tests: ``snnmesh.model.reference_run``, which keeps the
synapses once as a source-sorted table and scatters a timestep's spikes in
one call, against the per-neuron-fanout interpreter kept in
``fanout_reference``. Both must produce identical rasters."""

from hypothesis import given, settings, strategies as st

from fanout_reference import fanout_reference_run
from snnmesh.model import (
    Network,
    NeuronParams,
    Synapse,
    gen_layered,
    gen_synthetic,
    reference_run,
)

ONE = 1 << 16  # 1.0 in Q16.16
EDGE = 1 << 31  # the Q16.16 limits are -EDGE and EDGE - 1


def near(x, spread):
    return st.integers(x - spread, x + spread)


# weights and input currents: ordinary values that make neurons fire, and
# values near the Q16.16 limits, whose sums saturate
currents = st.one_of(st.integers(-8 * ONE, 48 * ONE), near(EDGE, 1 << 20), near(-EDGE, 1 << 20))
params = st.builds(
    lambda tau, g, vr, dth: NeuronParams(tau_m=tau, v_rst=vr, g_l=g, v_th=vr + dth),
    st.one_of(st.integers(ONE // 2, 4 * ONE), st.integers(1, EDGE - 1)),
    st.one_of(near(ONE, 1 << 12), st.integers(1, 4 * ONE)),
    st.integers(-4 * ONE, 8 * ONE),
    st.integers(1, 32 * ONE),
)
potentials = st.one_of(st.integers(-16 * ONE, 16 * ONE), near(EDGE - (1 << 20), 1 << 19))


@st.composite
def networks(draw):
    n = draw(st.integers(0, 40))
    t_max = draw(st.integers(0, 12))
    max_delay = draw(st.integers(1, 4))
    neurons = draw(st.lists(st.tuples(params, potentials), min_size=n, max_size=n))
    synapses, inputs = [], {}
    if n:
        # neurons from n_src on have no fanout
        n_src = draw(st.integers(1, n))
        delays = st.one_of(st.just(max_delay), st.integers(1, max_delay))
        general = st.builds(Synapse, st.integers(0, n_src - 1), st.integers(0, n - 1),
                            currents, delays)
        self_synapse = st.builds(lambda i, w, d: Synapse(i, i, w, d),
                                 st.integers(0, n_src - 1), currents, delays)
        synapses = draw(st.lists(st.one_of(general, self_synapse), max_size=4 * n))
    if n and t_max:
        events = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, t_max - 1),
                                         currents), max_size=3 * n))
        # the same (neuron, timestep) pair more than once
        if events:
            events += draw(st.lists(st.sampled_from(events), max_size=6))
        for nid, t, cur in events:
            inputs.setdefault(nid, []).append((t, cur))
    return Network(neurons=neurons, synapses=synapses, inputs=inputs,
                   t_max=t_max, max_delay=max_delay)


@given(networks())
@settings(max_examples=200, deadline=None)
def test_random_networks_match_fanout_reference(net):
    assert reference_run(net) == fanout_reference_run(net)


def test_generated_workloads_match_fanout_reference():
    nets = [gen_synthetic(120, 900, seed=s, t_max=25, max_delay=d, input_rate=0.2)
            for s, d in ((0, 1), (1, 2), (2, 4))]
    nets.append(gen_layered([30, 20, 10], fanin=8, seed=2, t_max=40, max_delay=3))
    for net in nets:
        got = reference_run(net)
        assert len(got) > 0
        assert got == fanout_reference_run(net)


def test_spikes_consumed_past_the_horizon_are_dropped():
    # a delay past t_max changes nothing, however large max_delay is
    net = gen_layered([6, 4], fanin=3, seed=5, t_max=8, max_delay=2)
    want = fanout_reference_run(net)
    assert len(want) > 0
    far = [Synapse(s.src, s.dst, s.weight, 10**12) for s in net.synapses]
    huge = Network(neurons=net.neurons, synapses=net.synapses + far, inputs=net.inputs,
                   t_max=net.t_max, max_delay=10**12)
    assert reference_run(huge) == want
