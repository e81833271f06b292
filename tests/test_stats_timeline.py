"""Fig. 10's windowed utilization (repro.sim.stats.utilization_timeline)
against the per-interval loop it replaced, kept here as the oracle."""

import numpy as np
import pytest

from repro.bench.workloads import lola_mnist
from repro.compiler.cycle_scheduler import FU_FAMILIES
from repro.compiler.pipeline import compile_program
from repro.sim.stats import _bin_intervals, utilization_timeline


def _spread(bins: np.ndarray, start: float, end: float, window: int) -> None:
    """Add an interval's cycle count to the windows it overlaps."""
    lo = int(start // window)
    hi = int((end - 1e-9) // window)
    if lo == hi:
        if 0 <= lo < len(bins):
            bins[lo] += end - start
        return
    for b in range(max(lo, 0), min(hi, len(bins) - 1) + 1):
        left = max(start, b * window)
        right = min(end, (b + 1) * window)
        bins[b] += max(0.0, right - left)


def _binned_by_loop(starts, ends, window, n_bins) -> np.ndarray:
    bins = np.zeros(n_bins)
    for start, end in zip(starts, ends):
        _spread(bins, start, end, window)
    return bins


@pytest.mark.parametrize("windows", [48, 64, 7])
def test_timeline_equals_the_interval_loop_on_fig10_program(windows):
    schedule = compile_program(
        lola_mnist(encrypted_weights=False, scale=0.25)).schedule
    tl = utilization_timeline(schedule, windows=windows)
    window, n_bins = tl.window_cycles, len(tl.time_us)
    assert n_bins * window >= schedule.makespan
    issue, busy = schedule.start, schedule.occupancy()
    for fu, active in tl.active_fus.items():
        mine = schedule.fu == FU_FAMILIES.index(fu)
        want = _binned_by_loop(issue[mine].tolist(),
                               (issue + busy)[mine].tolist(), window, n_bins)
        assert want.sum() == schedule.fu_busy_cycles[fu]
        np.testing.assert_allclose(active * window, want, rtol=0, atol=1e-9)
    load_cycles = schedule.config.load_cycles(schedule.n)
    sent = schedule.transfer_start
    want = _binned_by_loop(sent.tolist(), (sent + load_cycles).tolist(),
                           window, n_bins)
    np.testing.assert_allclose(tl.hbm_utilization * window, want,
                               rtol=0, atol=1e-9)


def test_bin_intervals_edges_and_out_of_range():
    """Window-aligned ends, fractional bounds, multi-window spans, and
    intervals partly or wholly outside the binned range."""
    rng = np.random.default_rng(5)
    starts = np.concatenate([
        rng.uniform(-30, 130, 400), [0.0, 10.0, 20.0, 95.0, -25.0, 140.0]])
    ends = starts + np.concatenate([
        rng.uniform(0.01, 45, 400), [10.0, 10.0, 0.5, 30.0, 10.0, 5.0]])
    got = _bin_intervals(starts, ends, 10, 10)
    np.testing.assert_allclose(got, _binned_by_loop(starts, ends, 10, 10),
                               rtol=0, atol=1e-9)
