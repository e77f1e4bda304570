import hashlib
import json
import random
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import generator_reference
from lif_reference import lif_step
from snnmesh import model
from snnmesh.fixedpoint import fx
from snnmesh.model import (
    Network,
    NeuronParams,
    SpikeRaster,
    Synapse,
    WorkloadError,
    gen_layered,
    gen_synthetic,
    lif_step_arrays,
    load_workload,
    network_to_dict,
    random_floats,
    rate_knobs_for_level,
    reference_run,
    save_workload,
)


def params(tau=2.0, vr=0.0, g=1.0, vth=16.0):
    return NeuronParams(tau_m=fx(tau), v_rst=fx(vr), g_l=fx(g), v_th=fx(vth))


class TestLifStep:
    def test_equilibrium_is_fixed_point(self):
        p = params(tau=3.0, vr=4.0)
        v, fired, _ = lif_step(fx(4.0), 0, p)
        assert not fired
        assert v == fx(4.0)

    def test_single_euler_step(self):
        # tau=2, g=1, vr=0, v=0, acc=4 -> v' = 0 + (1/2)(-0 + 4) = 2
        v, fired, _ = lif_step(0, fx(4.0), params())
        assert not fired
        assert v == fx(2.0)

    def test_threshold_and_reset(self):
        # v=15, acc=4: 15 + (1/2)(-15 + 4) = 9.5 < 16 -> no fire
        v, fired, _ = lif_step(fx(15.0), fx(4.0), params())
        assert not fired
        assert v == fx(9.5)
        # v=15, acc=20: 15 + (1/2)(-15 + 20) = 17.5 >= 16 -> fire, reset to 0
        v, fired, _ = lif_step(fx(15.0), fx(20.0), params())
        assert fired
        assert v == 0

    def test_overflow_saturates_and_counts(self):
        # acc/g_l with g_l = 0.25 quadruples an already-maximal accumulator
        p = params(g=0.25, vth=32000.0)
        v, _, clamps = lif_step(0, 2**31 - 1, p)
        assert clamps > 0
        assert v <= 2**31 - 1

    @given(
        v=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        acc=st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        tau=st.integers(min_value=1, max_value=1 << 20),
        g=st.integers(min_value=1, max_value=1 << 20),
        vr=st.integers(min_value=-(1 << 20), max_value=1 << 20),
        dv=st.integers(min_value=1, max_value=1 << 20),
    )
    @settings(max_examples=200)
    def test_scalar_matches_vectorized(self, v, acc, tau, g, vr, dv):
        p = NeuronParams(tau_m=tau, v_rst=vr, g_l=g, v_th=vr + dv)
        v_scalar, fired, _ = lif_step(v, acc, p)
        arr = lambda x: np.array([x], dtype=np.int64)
        v_new, fired_vec, _ = lif_step_arrays(
            arr(v), arr(acc), arr(tau), arr(g), arr(vr), arr(p.v_th)
        )
        assert int(v_new[0]) == v_scalar
        assert bool(fired_vec[0]) == fired

    @given(st.lists(
        st.tuples(
            st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
            st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
            st.integers(min_value=1, max_value=(1 << 31) - 1),
            st.integers(min_value=1, max_value=(1 << 31) - 1),
            st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 2),
        ),
        max_size=8,
    ))
    @settings(max_examples=200)
    def test_vectorized_clamp_count_matches_scalar(self, rows):
        scalar_clamps = 0
        scalar = []
        for v, acc, tau, g, vr in rows:
            p = NeuronParams(tau_m=tau, v_rst=vr, g_l=g, v_th=vr + 1)
            v_new, fired, clamps = lif_step(v, acc, p)
            scalar_clamps += clamps
            scalar.append((v_new, fired))
        cols = [np.array(c, dtype=np.int64) for c in zip(*rows)] or [
            np.zeros(0, dtype=np.int64)] * 5
        v, acc, tau, g, vr = cols
        v_new, fired_vec, clamps = lif_step_arrays(v, acc, tau, g, vr, vr + 1)
        assert clamps == scalar_clamps
        assert [(int(a), bool(b)) for a, b in zip(v_new, fired_vec)] == scalar

    @given(
        acc=st.integers(min_value=0, max_value=1 << 28),
        bump=st.integers(min_value=0, max_value=1 << 10),
    )
    @settings(max_examples=100)
    def test_more_input_never_lowers_potential(self, acc, bump):
        p = params()
        lo, _, _ = lif_step(fx(1.0), acc, p)
        hi, fired, _ = lif_step(fx(1.0), acc + bump, p)
        if not fired:
            assert hi >= lo


class TestNeuronParamsValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(WorkloadError):
            NeuronParams(tau_m=0, v_rst=0, g_l=fx(1), v_th=fx(1))
        with pytest.raises(WorkloadError):
            NeuronParams(tau_m=fx(1), v_rst=0, g_l=0, v_th=fx(1))
        with pytest.raises(WorkloadError):
            NeuronParams(tau_m=fx(1), v_rst=fx(2), g_l=fx(1), v_th=fx(1))


class TestSpikeRaster:
    def test_rejects_duplicates_and_bad_timesteps(self):
        with pytest.raises(WorkloadError):
            SpikeRaster([(0, 1), (0, 1)])
        with pytest.raises(WorkloadError):
            SpikeRaster([(0, 9)], t_max=5)

    def test_ordering_and_divergence(self):
        a = SpikeRaster([(3, 1), (0, 0), (1, 1)])
        assert a.ordered() == [(0, 0), (1, 1), (3, 1)]
        b = SpikeRaster([(3, 1), (0, 0)])
        assert a.first_divergence(b) == (1, 1)
        assert a.first_divergence(a) is None


def two_neuron_chain(t_max=8):
    p = params()
    neurons = [(p, 0), (p, 0)]
    synapses = [Synapse(src=0, dst=1, weight=fx(40.0), delay=1)]
    # drive neuron 0 over threshold exactly at t=3: with tau=2 and pulses of
    # 12 at t in {2,3}: v(3-) accumulates 6 then 6 + 9 = ... hand trace below
    inputs = {0: [(2, fx(20.0)), (3, fx(20.0))]}
    return Network(neurons=neurons, synapses=synapses, inputs=inputs,
                   t_max=t_max, max_delay=1)


class TestReferenceRun:
    def test_quiescent_net_gives_empty_raster(self):
        p = params()
        net = Network(neurons=[(p, 0)] * 4, synapses=[],
                      inputs={}, t_max=10, max_delay=1)
        assert len(reference_run(net)) == 0

    def test_two_neuron_chain_hand_trace(self):
        # neuron 0: v starts 0. t=2: acc=20 -> v' = 0 + (-(0)+20)/2 = 10 < 16.
        # t=3: acc=20 -> v' = 10 + (-10+20)/2 = 15 < 16. Hmm: raise amplitude.
        net = two_neuron_chain()
        net.inputs[0] = [(2, fx(20.0)), (3, fx(24.0))]
        # t=3: v' = 10 + (-10+24)/2 = 17 >= 16 -> fire at t=3.
        # neuron 1 gets w=40 at t=4: v' = 0 + 40/2 = 20 >= 16 -> fire at t=4.
        raster = reference_run(net)
        assert (0, 3) in raster
        assert (1, 4) in raster
        assert len(raster) == 2

    def test_zero_t_max_is_empty_not_an_error(self):
        net = two_neuron_chain(t_max=0)
        net.inputs = {}
        assert len(reference_run(net)) == 0

    def test_deterministic(self):
        net = gen_synthetic(80, 600, seed=5, t_max=30)
        assert reference_run(net) == reference_run(net)

    def test_neuron_order_independence(self):
        net = gen_synthetic(60, 500, seed=9, t_max=25, input_rate=0.2)
        base = reference_run(net)
        n = net.n_neurons
        perm = list(reversed(range(n)))  # new id of old neuron i is perm[i]
        neurons = [None] * n
        for old, new in enumerate(perm):
            neurons[new] = net.neurons[old]
        synapses = [Synapse(perm[s.src], perm[s.dst], s.weight, s.delay)
                    for s in net.synapses]
        inputs = {perm[k]: v for k, v in net.inputs.items()}
        permuted = Network(neurons=neurons, synapses=synapses, inputs=inputs,
                           t_max=net.t_max, max_delay=net.max_delay)
        got = reference_run(permuted)
        mapped_back = SpikeRaster([(perm.index(nid), t) for nid, t in got])
        assert mapped_back == base

    def test_raster_well_formed(self):
        net = gen_synthetic(50, 300, seed=3, t_max=15, input_rate=0.3)
        raster = reference_run(net)
        for _nid, t in raster:
            assert 0 <= t < net.t_max


# The three bench workload shapes, with the spike count and the sha256 of
# ``reference_run(net).ordered()`` as JSON, taken from the per-neuron-fanout
# interpreter the oracle replaced.
BENCH_PINS = {
    "wide-4x4": (lambda: gen_synthetic(16000, 32000, seed=7, input_rate=0.01, t_max=150),
                 65, "80bf512df6df9b9d31bbe3b877d7720164b674527bb59ee580aeae2707b25493"),
    "dense-8x8": (lambda: gen_synthetic(1280, 32000, frac_inhibitory=0.5,
                                        rate_knobs=rate_knobs_for_level(0.8), seed=404,
                                        input_rate=0.1, t_max=6),
                  210, "1a606f1b83ed036f2c8d014e70c93847a741a6c976c88ecd4c02883f74f50142"),
    "layered-4x4": (lambda: gen_layered([256, 256, 128], fanin=12, seed=1, t_max=60),
                    4892, "b5b923b93894878ad7bf96fbe38a31d612d27d17866c48277f371dc0d1502986"),
}


@pytest.mark.parametrize("name", sorted(BENCH_PINS))
def test_reference_raster_pinned_on_bench_shapes(name):
    make, n_spikes, digest = BENCH_PINS[name]
    ordered = reference_run(make()).ordered()
    assert len(ordered) == n_spikes
    assert hashlib.sha256(json.dumps(ordered).encode()).hexdigest() == digest


class TestGenerators:
    def test_synthetic_exact_counts_at_scale(self):
        net = gen_synthetic(10240, 903718, seed=0, t_max=1)
        assert net.n_neurons == 10240
        assert len(net.synapses) == 903718

    def test_synthetic_empty(self):
        net = gen_synthetic(0, 0, seed=1)
        assert net.n_neurons == 0
        assert net.synapses == []

    def test_synthetic_rejects_bad_counts(self):
        with pytest.raises(WorkloadError):
            gen_synthetic(3, 10, seed=0)  # > n^2
        with pytest.raises(WorkloadError):
            gen_synthetic(-1, 0, seed=0)

    def test_synthetic_seed_determinism_bytes(self):
        import json
        a = json.dumps(network_to_dict(gen_synthetic(40, 200, seed=11, t_max=10)))
        b = json.dumps(network_to_dict(gen_synthetic(40, 200, seed=11, t_max=10)))
        assert a == b

    def test_synthetic_inhibitory_fraction(self):
        net = gen_synthetic(200, 3000, frac_inhibitory=0.2, seed=4, t_max=5)
        neg = sum(1 for s in net.synapses if s.weight < 0)
        assert 0.05 < neg / len(net.synapses) < 0.45

    def test_firing_rate_monotone_in_level(self):
        rates = []
        for level in (0.0, 0.5, 1.0):
            net = gen_synthetic(150, 1500, rate_knobs=rate_knobs_for_level(level),
                                seed=21, t_max=60, input_rate=0.08)
            raster = reference_run(net)
            rates.append(len(raster) / (150 * 60))
        assert rates[0] < rates[1] < rates[2], rates

    def test_layered_complete_bipartite(self):
        net = gen_layered([4, 2], fanin=4, seed=0, t_max=5)
        assert net.n_neurons == 6
        assert len(net.synapses) == 8
        assert all(s.src < 4 and s.dst >= 4 for s in net.synapses)

    def test_layered_single_synapse(self):
        net = gen_layered([1, 1], fanin=1, seed=0, t_max=5)
        assert len(net.synapses) == 1

    def test_layered_rejects_fanin_too_large(self):
        with pytest.raises(WorkloadError):
            gen_layered([2, 4], fanin=3, seed=0)

    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
    def test_synthetic_rejects_rate_outside_unit_interval(self, rate):
        with pytest.raises(WorkloadError, match="input_rate"):
            gen_synthetic(10, 10, seed=0, t_max=5, input_rate=rate)

    @pytest.mark.parametrize("name", ["input_rate", "background_rate"])
    @pytest.mark.parametrize("rate", [float("nan"), -0.1, 1.5])
    def test_layered_rejects_rate_outside_unit_interval(self, name, rate):
        with pytest.raises(WorkloadError, match=name):
            gen_layered([4, 2], fanin=2, seed=0, t_max=5, **{name: rate})

    def test_unit_interval_rates_accepted(self):
        for rate in (0.0, 1.0):
            net = gen_synthetic(4, 4, seed=0, t_max=3, input_rate=rate)
            assert sum(map(len, net.inputs.values())) == 4 * 3 * rate
            net = gen_layered([2, 2], fanin=1, seed=0, t_max=3,
                              input_rate=rate, background_rate=rate)
            assert sum(map(len, net.inputs.values())) == 4 * 3 * rate

    def test_layered_is_acyclic(self):
        # Kahn's algorithm as an independent cycle check
        net = gen_layered([10, 8, 6], fanin=4, seed=7, t_max=5)
        n = net.n_neurons
        indeg = [0] * n
        adj = [[] for _ in range(n)]
        for s in net.synapses:
            adj[s.src].append(s.dst)
            indeg[s.dst] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for w in adj[u]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        assert seen == n

    def test_layered_activity_propagates(self):
        net = gen_layered([30, 20, 10], fanin=8, seed=2, t_max=40)
        raster = reference_run(net)
        deep = [nid for nid, _t in raster if nid >= 50]
        assert deep, "no spikes reached the last layer"


def _generated(module, name, *args, **kwargs):
    """``module.<name>(*args, **kwargs)`` and the final state of every
    ``random.Random`` it made."""
    made = []

    def recording(seed):
        made.append(random.Random(seed))
        return made[-1]

    with mock.patch.object(module, "random", SimpleNamespace(Random=recording)):
        net = getattr(module, name)(*args, **kwargs)
    return net, [rng.getstate() for rng in made]


def _assert_same_as_reference(name, *args, **kwargs):
    net, states = _generated(model, name, *args, **kwargs)
    ref, ref_states = _generated(generator_reference, name, *args, **kwargs)
    assert net == ref
    assert list(net.inputs) == list(ref.inputs)
    assert states == ref_states


_BLOCK_EDGES = [2**16 - 1, 2**16, 2**16 + 1]
_RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_KNOBS = st.one_of(st.none(), st.builds(rate_knobs_for_level, st.floats(0.0, 1.0)))


@st.composite
def _synthetic_args(draw):
    n, t_max = draw(st.one_of(
        st.tuples(st.integers(0, 40), st.sampled_from([0, 1, 2, 7, 30])),
        # per-neuron draws and input draws across a block edge
        st.tuples(st.sampled_from([2**16 // 3, 2**16 // 3 + 1]), st.sampled_from([0, 1, 3, 4])),
        st.tuples(st.integers(0, 2), st.sampled_from(_BLOCK_EDGES)),
    ))
    return dict(n_neurons=n, n_synapses=draw(st.integers(0, min(n * n, 200))),
                frac_inhibitory=draw(_RATES), rate_knobs=draw(_KNOBS),
                seed=draw(st.integers(0, 2**32)), t_max=t_max,
                max_delay=draw(st.integers(1, 4)), input_rate=draw(_RATES))


@st.composite
def _layered_args(draw):
    t_max = draw(st.one_of(st.sampled_from([0, 1, 2, 9]), st.sampled_from(_BLOCK_EDGES)))
    top = 12 if t_max < 2**16 else 1
    sizes = draw(st.lists(st.integers(1, top), min_size=2, max_size=4))
    return dict(layer_sizes=sizes, fanin=draw(st.integers(1, min(sizes[:-1]))),
                seed=draw(st.integers(0, 2**32)), t_max=t_max,
                max_delay=draw(st.integers(1, 3)), input_rate=draw(_RATES),
                background_rate=draw(_RATES))


class TestBulkDraws:
    """The generators draw their uniforms in bulk; the reference draws one
    ``rng.random()`` at a time, as the generators once did."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), k=st.integers(0, 300), before=st.integers(0, 3))
    def test_random_floats_are_the_next_random_calls(self, seed, k, before):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(before):  # odd offsets into the 32-bit output stream
            rng.getrandbits(32), ref.getrandbits(32)
        got = random_floats(rng, k)
        assert got.dtype == np.float64
        assert got.tolist() == [ref.random() for _ in range(k)]
        assert rng.getstate() == ref.getstate()

    @settings(max_examples=40, deadline=None)
    @given(args=_synthetic_args())
    def test_gen_synthetic_equals_reference(self, args):
        _assert_same_as_reference("gen_synthetic", **args)

    @settings(max_examples=40, deadline=None)
    @given(args=_layered_args())
    def test_gen_layered_equals_reference(self, args):
        _assert_same_as_reference("gen_layered", **args)

    @pytest.mark.parametrize("name", sorted(BENCH_PINS))
    def test_bench_shapes_equal_reference(self, name):
        make, _n_spikes, _digest = BENCH_PINS[name]
        net = make()
        with mock.patch.dict(globals(), gen_synthetic=generator_reference.gen_synthetic,
                             gen_layered=generator_reference.gen_layered):
            ref = make()
        assert network_to_dict(net) == network_to_dict(ref)


class TestWorkloadFile:
    def test_round_trip(self, tmp_path):
        net = gen_synthetic(30, 150, seed=8, t_max=12)
        path = tmp_path / "w.json"
        save_workload(net, path)
        back = load_workload(path)
        assert network_to_dict(back) == network_to_dict(net)

    def test_layers_key_preserved(self, tmp_path):
        net = gen_layered([4, 4], fanin=2, seed=1, t_max=5)
        path = tmp_path / "w.json"
        save_workload(net, path)
        assert load_workload(path).layers == [4, 4]

    def test_malformed_document_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"neurons": []}', encoding="utf-8")
        with pytest.raises(WorkloadError, match="malformed workload document"):
            load_workload(path)

    def test_invalid_synapse_rejected(self, tmp_path):
        net = two_neuron_chain()
        doc = network_to_dict(net)
        doc["synapses"][0]["dst"] = 99
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(WorkloadError, match="unknown neuron"):
            load_workload(path)
