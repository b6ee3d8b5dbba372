//! The observability plane: a per-tenant time series of stat-delta
//! windows.
//!
//! The simulator's reporting has always been end-of-run snapshots —
//! [`CpuStats`] totals merged when a tenant finishes. This module adds the
//! *time axis*: an executor folds each op's [`CpuStats::delta_since`]
//! delta into the last [`StatWindow`] of a series it owns, opening a new
//! window every [`WINDOW_OPS`] ops (see [`record`]).
//!
//! Observed execution is bit-identical: the plane only *reads* deltas the
//! executor already computes for its totals; it never touches simulated
//! state, draws from an RNG, or reorders anything. The same A/B contract
//! as `fast_caches`/`block_engine`/`trace_engine` applies, and
//! `perfcheck --telemetry` gates it. Because every window is appended by
//! the executor that produced it, the windows of a series sum exactly to
//! the executor's totals.

use crate::CpuStats;

/// Ops per window (the time-series resolution). Every window of a series
/// holds exactly this many ops, except the last, which may hold fewer.
pub const WINDOW_OPS: u64 = 16;

/// One observation window: the stat deltas a tenant accumulated over (up
/// to) [`WINDOW_OPS`] consecutive ops. All fields are deltas over the
/// window, not running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatWindow {
    /// Position of this window in its tenant's series (0-based, dense:
    /// seq `n` is the `n`-th window the tenant opened).
    pub seq: u64,
    /// Ops folded into the window.
    pub ops: u64,
    /// Syscalls served by those ops.
    pub syscalls: u64,
    /// Simulated cycles consumed by those ops.
    pub cycles: u64,
    /// Full counter deltas over the window (block/trace hit rates, TLB
    /// and icache hits, PAC memo hits, PAC failures, IPIs, ...).
    pub stats: CpuStats,
}

/// Folds one op's attribution into the last window of `series`, first
/// opening a new window when the series is empty or its last window
/// already holds [`WINDOW_OPS`] ops.
pub fn record(series: &mut Vec<StatWindow>, syscalls: u64, cycles: u64, delta: &CpuStats) {
    if series.last().is_none_or(|w| w.ops >= WINDOW_OPS) {
        series.push(StatWindow {
            seq: series.len() as u64,
            ..StatWindow::default()
        });
    }
    let window = series.last_mut().expect("a window is open");
    window.ops += 1;
    window.syscalls += syscalls;
    window.cycles += cycles;
    window.stats.merge(delta);
}
