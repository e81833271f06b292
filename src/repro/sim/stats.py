"""Statistics extraction: Fig. 9 breakdowns and Fig. 10 timelines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.cycle_scheduler import FU_FAMILIES, CycleSchedule
from repro.compiler.data_scheduler import DataMovementSchedule
from repro.core.config import F1Config
from repro.core.energy import EnergyModel


@dataclass
class Timeline:
    """Per-window FU activity and HBM utilization (Fig. 10)."""

    window_cycles: int
    time_us: np.ndarray            # window start times in microseconds
    active_fus: dict               # fu kind -> windowed mean busy unit count
    hbm_utilization: np.ndarray    # fraction of window bandwidth used


def utilization_timeline(schedule: CycleSchedule, *, windows: int = 64) -> Timeline:
    """Bucket FU busy intervals and HBM transfers into time windows."""
    makespan = max(1, schedule.makespan)
    window = max(1, makespan // windows)
    n_bins = (makespan + window - 1) // window
    issue = schedule.start.astype(np.float64)
    busy_until = issue + schedule.occupancy()
    active_fus = {}
    for code, fu in enumerate(FU_FAMILIES):
        mine = schedule.fu == code
        active_fus[fu] = _bin_intervals(
            issue[mine], busy_until[mine], window, n_bins) / window
    sent = schedule.transfer_start
    hbm = _bin_intervals(sent, sent + schedule.config.load_cycles(schedule.n),
                         window, n_bins)
    freq_ghz = schedule.config.frequency_ghz
    return Timeline(
        window_cycles=window,
        time_us=np.arange(n_bins) * window / (freq_ghz * 1e3),
        active_fus=active_fus,
        hbm_utilization=hbm / window,
    )


def _bin_intervals(start: np.ndarray, end: np.ndarray, window: int,
                   n_bins: int) -> np.ndarray:
    """Cycles of the ``[start, end)`` intervals falling in each window.

    An interval inside one window adds its length there; a longer one adds
    its head to its first window, its tail to its last, and a full window to
    each one between (a difference array, summed once).  Whatever lies
    outside ``[0, n_bins)`` is dropped.
    """
    bins = np.zeros(n_bins)
    first = np.floor_divide(start, window).astype(np.int64)
    last = np.floor_divide(end - 1e-9, window).astype(np.int64)

    def add(where: np.ndarray, cycles: np.ndarray, mask: np.ndarray) -> None:
        mask = mask & (where >= 0) & (where < n_bins)
        np.add.at(bins, where[mask], cycles[mask])

    short = first == last
    add(first, end - start, short)
    add(first, (first + 1) * window - start, ~short)
    add(last, end - last * window, ~short)
    full = np.zeros(n_bins + 1)
    np.add.at(full, np.clip(first[~short] + 1, 0, n_bins), window)
    np.add.at(full, np.clip(last[~short], 0, n_bins), -window)
    return bins + np.cumsum(full)[:-1]


def power_breakdown(
    schedule: CycleSchedule,
    movement: DataMovementSchedule,
    config: F1Config | None = None,
) -> dict:
    """Average power by component over the benchmark's runtime (Fig. 9b)."""
    config = config or schedule.config
    energy = EnergyModel.from_config(config)
    rvec_bytes = config.rvec_bytes(schedule.n)
    time_s = schedule.makespan / (config.frequency_ghz * 1e9)
    if time_s <= 0:
        raise ValueError("empty schedule")

    fu_nj = sum(
        busy * energy.fu_busy_nj_per_cycle[fu]
        for fu, busy in schedule.fu_busy_cycles.items()
    )
    # Each instruction reads its operands from and writes its result to the
    # register file; each operand also crosses the NoC from a scratchpad bank.
    n_ops = len(schedule.instr_id)
    operand_count = 2 * n_ops  # ~2 RF accesses (read operands, write result)
    rf_nj = operand_count * schedule.config.chunks(schedule.n) \
        * energy.rf_access_nj_per_rvec_chunk
    # Register files capture most operand reuse within a homomorphic op;
    # roughly one operand per instruction crosses the NoC from a bank.
    noc_bytes = n_ops * rvec_bytes
    noc_nj = noc_bytes * energy.noc_nj_per_byte
    scratch_bytes = noc_bytes + movement.traffic.total_rvecs() * rvec_bytes
    scratch_nj = scratch_bytes * energy.scratchpad_nj_per_byte
    hbm_bytes = movement.traffic.total_rvecs() * rvec_bytes
    hbm_nj = hbm_bytes * energy.hbm_nj_per_byte

    to_watts = 1e-9 / time_s
    return {
        "HBM": hbm_nj * to_watts,
        "Scratchpad": scratch_nj * to_watts,
        "NoC": noc_nj * to_watts,
        "RegFiles": rf_nj * to_watts,
        "FUs": fu_nj * to_watts,
        "total": (hbm_nj + scratch_nj + noc_nj + rf_nj + fu_nj) * to_watts,
    }


def traffic_fractions(movement: DataMovementSchedule, rvec_bytes: int) -> dict:
    """Fig. 9a: per-category fractions of total off-chip traffic."""
    breakdown = movement.traffic.breakdown(rvec_bytes)
    total = sum(breakdown.values())
    if total == 0:
        return {k: 0.0 for k in breakdown}
    return {k: v / total for k, v in breakdown.items()}
