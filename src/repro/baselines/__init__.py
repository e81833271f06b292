"""Baseline performance models: multicore CPU software and HEAX-sigma.

The paper's baselines are measured systems (a Xeon E3-1240v5 running HELib /
SEAL / HEAAN / Lola, and the HEAX FPGA accelerator).  We cannot run those, so
these modules provide *calibrated analytical models*: per-primitive costs
fitted to the baselines' published performance (Table 4's CPU columns and
HEAX's reported throughput), composed over the same homomorphic-operation
graphs F1 executes.  ROADMAP.md's "Where the evidence points now" table
records the reproduced-vs-paper numbers.
"""

from repro.baselines.cpu import CpuModel
from repro.baselines.heax import HeaxModel

__all__ = ["CpuModel", "HeaxModel"]
