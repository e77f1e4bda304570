"""snnmesh: cycle-accurate many-core SNN accelerator simulator.

Three timestep-coordination modes (global barrier, speculative execution
with rollback, dependency-driven forwarding) over one mesh NoC model, all
producing spike rasters bit-identical to the sequential reference
interpreter.
"""

from .compiler import (
    Capacity,
    CompiledProgram,
    CompileError,
    compile_network,
    load_program,
    save_program,
)
from .engine import DeadlockError, SimConfig, SimReport, run
from .model import (
    Network,
    NeuronParams,
    SpikeRaster,
    Synapse,
    WorkloadError,
    gen_layered,
    gen_synthetic,
    load_workload,
    reference_run,
    save_workload,
)

__version__ = "0.1.0"

__all__ = [
    "Capacity",
    "CompiledProgram",
    "CompileError",
    "DeadlockError",
    "Network",
    "NeuronParams",
    "SimConfig",
    "SimReport",
    "SpikeRaster",
    "Synapse",
    "WorkloadError",
    "compile_network",
    "gen_layered",
    "gen_synthetic",
    "load_program",
    "load_workload",
    "reference_run",
    "run",
    "save_program",
    "save_workload",
    "__version__",
]
