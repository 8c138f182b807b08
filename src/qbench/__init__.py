"""Three-level quantum device benchmarking toolkit.

Component level: per-qubit gate fidelity, readout, crosstalk, coherence
times, and the derived quality factor.  System level: quantum volume,
circuit-layer throughput, and dephasing stability over time.  Application
level: the Max-Cut score under a time budget and a small volumetric
algorithm suite.  Everything runs against the built-in noisy simulator or
any backend speaking the bundled job protocol.
"""

__version__ = "0.1.0"

from .circuits import Circuit, Gate, ParamCircuit, TimingModel
from .device import DeviceModel, ideal_device, load_device, save_device, starmon5_reference_model
from .simulator import ShotTable, run_ideal, run_noisy

__all__ = [
    "Circuit",
    "Gate",
    "ParamCircuit",
    "TimingModel",
    "DeviceModel",
    "ideal_device",
    "load_device",
    "save_device",
    "starmon5_reference_model",
    "ShotTable",
    "run_ideal",
    "run_noisy",
    "__version__",
]
