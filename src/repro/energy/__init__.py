"""Area, power and energy models.

The paper estimates accelerator power/area with Synopsys Design Compiler
plus CACTI at 28 nm, and measures CPU/GPU power with RAPL/nvprof.  Offline
we provide analytical models calibrated to every absolute figure the paper
publishes (Section VI): accelerator power 389-462 mW, area 24.06-24.09 mm²,
prefetch FIFOs 4.83 mW, state-issuer comparators 0.15 mW, CPU 32.2 W,
GPU 76.4 W.
"""

from repro.energy.components import (
    AcceleratorAreaModel,
    AcceleratorEnergyModel,
    SramMacroModel,
)
from repro.energy.cpu_model import CpuSpec, CpuTimingModel, INTEL_I7_6700K

__all__ = [
    "AcceleratorAreaModel",
    "AcceleratorEnergyModel",
    "SramMacroModel",
    "CpuSpec",
    "CpuTimingModel",
    "INTEL_I7_6700K",
]
