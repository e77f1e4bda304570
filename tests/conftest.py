"""Shared builders: hand-crafted workloads with known structure and timing.

Also hosts the acceptance-criteria summary: each criterion test registers its
outcome and the terminal summary prints one pass/fail line per criterion.
"""

from __future__ import annotations

import pytest

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, description: str, ok: bool, detail: str = ""):
    ACCEPTANCE_RESULTS[number] = (description, bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        desc, ok, detail = ACCEPTANCE_RESULTS[n]
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {n:2d}: {desc}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)

from snnmesh.compiler import compile_network
from snnmesh.fixedpoint import fx
from snnmesh.model import Network, NeuronParams, Synapse


def memoryless_params(v_th: float = 16.0) -> NeuronParams:
    """tau_m = g_l = 1, v_rst = 0: the update collapses to v' = acc, so a
    neuron fires exactly when its summed input reaches threshold."""
    return NeuronParams(tau_m=fx(1.0), v_rst=fx(0.0), g_l=fx(1.0), v_th=fx(v_th))


def build_staircase_net(
    core_sizes: list[int],
    chain: list[tuple[int, int]],
    t_max: int,
    pulses: dict[int, list[int]] | None = None,
    local_fan: dict[int, int] | None = None,
    pulse_amp: float = 35.0,
) -> tuple[Network, list[int]]:
    """A network whose neurons are grouped into explicit cores.

    ``chain`` lists (src_core, dst_core) edges realized by one weak synapse
    each. ``pulses`` maps core -> timesteps at which every neuron of that core
    is driven to fire; ``local_fan`` gives those cores per-neuron local
    fanout (inhibitory), which makes a firing timestep proportionally more
    expensive. Returns (network, neuron -> core assignment).
    """
    pulses = pulses or {}
    local_fan = local_fan or {}
    params = memoryless_params()
    assignment: list[int] = []
    first = []
    for cid, sz in enumerate(core_sizes):
        first.append(len(assignment))
        assignment.extend([cid] * sz)
    neurons = [(params, 0)] * len(assignment)

    synapses = []
    for a, b in chain:
        synapses.append(Synapse(src=first[a], dst=first[b], weight=fx(0.125), delay=1))
    for cid, fan in local_fan.items():
        lo, sz = first[cid], core_sizes[cid]
        for i in range(sz):
            for k in range(fan):
                synapses.append(Synapse(src=lo + i, dst=lo + (i + 1 + k) % sz
                                        if sz > 1 else lo,
                                        weight=fx(-1.0), delay=1))

    amp = fx(pulse_amp)
    inputs: dict[int, list[tuple[int, int]]] = {}
    for cid, times in pulses.items():
        lo, sz = first[cid], core_sizes[cid]
        for i in range(sz):
            inputs.setdefault(lo + i, []).extend((t, amp) for t in times if t < t_max)

    net = Network(neurons=neurons, synapses=synapses, inputs=inputs,
                  t_max=t_max, max_delay=1)
    net.validate()
    return net, assignment


def build_diamond_trace_program():
    """Four cores with the diamond dependency c0->{c1,c2}->c3 and speeds
    tuned so that, with m=2: the head core stalls on its forward window and
    the tail core stalls on a missing FINISH. Used by the trace-replay tests.

    Layout: c0 = 1 neuron, c1 = 2 (fires once at t=1 with local fanout),
    c2 = 2, c3 = 3. Run with c_update=10, c_spike=20.
    """
    core_sizes = [1, 2, 2, 3]
    chain = [(0, 1), (0, 2), (1, 3), (2, 3)]
    net, assignment = build_staircase_net(
        core_sizes, chain, t_max=4,
        pulses={1: [1]},
        local_fan={1: 1},
    )
    prog = compile_network(net, (2, 2), assignment=assignment)
    return net, prog


def build_imbalanced_net(t_max: int = 96, period: int = 16):
    """Three cores: a constant producer feeding a bursty consumer, plus an
    isolated core bursting in anti-phase. The barrier mode pays for every
    burst; dependency-driven forwarding overlaps them, with headroom that
    grows with the window m.

    Carries layer metadata [10, 2, 2] so the standard compile pipeline (one
    contiguous chunk per core on a 3x1 grid) reproduces this exact split.
    """
    half = period // 2
    burst_c1 = [t for t in range(t_max) if (t % period) < half]
    burst_c2 = [t for t in range(t_max) if (t % period) >= half]
    net, assignment = build_staircase_net(
        core_sizes=[10, 2, 2],
        chain=[(0, 1)],
        t_max=t_max,
        pulses={1: burst_c1, 2: burst_c2},
        local_fan={1: 14, 2: 14},
    )
    net.layers = [10, 2, 2]
    net.validate()
    return net, assignment


#: cycle costs under which the crafted workloads get their intended shape
IMBALANCED_COSTS = {"c_update": 10, "c_spike": 10}
IMBALANCED_GRID = (3, 1)


@pytest.fixture(scope="session")
def diamond_trace_program():
    return build_diamond_trace_program()


@pytest.fixture(scope="session")
def imbalanced_program():
    net, _assignment = build_imbalanced_net()
    prog = compile_network(net, IMBALANCED_GRID)
    return net, prog
