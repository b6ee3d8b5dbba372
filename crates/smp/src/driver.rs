//! The host-parallel fleet layer: many machines, many host threads, many
//! tenants.
//!
//! A single simulated machine is inherently serial — determinism comes
//! from one interleaving of one instruction stream. Throughput therefore
//! scales by running *independent* machines in parallel: each shard boots
//! its own machine (or cluster) from a seed derived deterministically from
//! the plan seed, serves its deterministic slice of every tenant's
//! workload, and the driver merges the per-shard counters in shard order.
//! Nothing is shared between shards, so the scaling is embarrassingly
//! parallel and the merged simulated totals — including every tenant's
//! latency histogram — are identical for every execution mode.
//!
//! [`FleetDriver`] is the general engine: an arbitrary mix of
//! [`camo_workloads::Workload`] tenants with per-tenant quotas, weights
//! and cycle budgets, interleaved on every shard by a deterministic
//! weighted-fair schedule, with per-tenant
//! [`camo_cpu::CpuStats`]/cycle attribution and simulated-cycle latency
//! percentiles. Host workers claim shards from one counter and run each
//! to completion (see the `scheduler` module): shard count is decoupled
//! from host thread count, and the host schedule — which worker runs
//! which shard — is invisible to the simulation.

use crate::scheduler::{self, TenantSched};
use camo_core::ProtectionLevel;
use camo_cpu::telemetry::StatWindow;
use camo_cpu::CpuStats;
use camo_kernel::KernelError;
use camo_workloads::{TenantSpec, TenantTotals};
use std::time::Instant;

/// Derives the boot seed of shard `index` from the plan seed
/// (splitmix64 — deterministic, well-spread, stable across runs).
pub fn shard_seed(base: u64, index: usize) -> u64 {
    camo_workloads::derive_seed(base, index as u64)
}

/// A multi-tenant fleet: an arbitrary workload mix across shards.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Number of independent machines.
    pub shards: usize,
    /// Cores per shard machine.
    pub cpus_per_shard: usize,
    /// Base seed; shard `i` boots with [`shard_seed`]`(seed, i)` and
    /// the tenant named `n` on shard `i` draws ops from
    /// [`camo_workloads::tenant_stream_seed`]`(seed, i, n)` — name-derived, so adding or
    /// removing one tenant never shifts another tenant's op stream.
    pub seed: u64,
    /// Protection level of every shard machine.
    pub protection: ProtectionLevel,
    /// Fast-path caches on every shard machine.
    pub fast_caches: bool,
    /// Block translation engine on every shard machine
    /// ([`camo_kernel::KernelConfig::block_engine`]). Architecturally
    /// invisible; `perfcheck --blocks` measures the fleet-level A/B.
    pub block_engine: bool,
    /// Trace tier of the translation engine on every shard machine
    /// ([`camo_kernel::KernelConfig::trace_engine`]). Architecturally
    /// invisible; `perfcheck --traces` measures the fleet-level A/B.
    pub trace_engine: bool,
    /// Telemetry plane on every shard machine
    /// ([`camo_kernel::KernelConfig::telemetry`]): tenants record
    /// periodic stat-delta windows into each [`TenantReport::series`].
    /// Architecturally invisible — the off arm is bit-identical;
    /// `perfcheck --telemetry` gates the A/B.
    pub telemetry: bool,
    /// Overrides every shard kernel's §5.4 panic threshold
    /// ([`camo_kernel::KernelConfig::pac_panic_threshold`]) when set. An
    /// adversarial plan that *expects* PAC failures raises this above its
    /// expected failure count so the run measures the policy instead of
    /// halting on it.
    pub pac_panic_threshold: Option<u32>,
    /// Host worker threads for [`FleetDriver::drive`]'s pool. `None`
    /// (the default) sizes the pool to
    /// `min(available_parallelism, shards)`. Purely host-side: the
    /// worker count never touches the simulated schedule, so
    /// `simulation_identical` holds across any value — the
    /// worker-count-invariance stress tests gate exactly this.
    pub workers: Option<usize>,
    /// The tenants, served by the weighted-fair simulated schedule on
    /// every shard (plain round-robin when all weights are 1); each
    /// tenant's quota is split across shards by
    /// [`camo_workloads::Quota::share`], and its [`TenantSpec::weight`]/
    /// [`TenantSpec::cycle_budget`] shape the per-sweep schedule.
    /// Names must be unique — a tenant's op stream is seeded from its
    /// name.
    pub tenants: Vec<TenantSpec>,
}

impl FleetPlan {
    /// A fully protected single-core-shard plan with caches on.
    pub fn new(shards: usize, seed: u64, tenants: Vec<TenantSpec>) -> FleetPlan {
        FleetPlan {
            shards,
            cpus_per_shard: 1,
            seed,
            protection: ProtectionLevel::Full,
            fast_caches: true,
            block_engine: true,
            trace_engine: true,
            telemetry: false,
            pac_panic_threshold: None,
            workers: None,
            tenants,
        }
    }
}

/// One tenant's merged service (per shard, or fleet-wide after merging).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name (from the [`TenantSpec`]).
    pub name: String,
    /// The workload implementation's name.
    pub workload: String,
    /// The tenant's accumulated service: ops, syscalls,
    /// instructions/cycles, full [`camo_cpu::CpuStats`] deltas, and the
    /// per-op simulated-cycle [`camo_workloads::LatencyHistogram`]
    /// (p50/p90/p99 via its `percentile`).
    pub totals: TenantTotals,
    /// The tenant's telemetry time series: its stat-delta windows in
    /// order, recorded when [`FleetPlan::telemetry`] is on (empty
    /// otherwise). Fleet-wide reports concatenate shard series in shard
    /// order, mirroring how `totals` merge; within one shard's segment
    /// `seq` is dense and ordered, every window but the last holds
    /// exactly [`camo_cpu::telemetry::WINDOW_OPS`] ops, and the windows
    /// of a segment sum exactly to that shard's contribution to
    /// `totals`.
    pub series: Vec<StatWindow>,
    /// The tenant's simulated-schedule record — sweeps served, ops
    /// served, throttled sweeps, drain point. Deterministic in the plan;
    /// it participates in this report's equality, hence in
    /// [`FleetReport::simulation_identical`].
    pub sched: TenantSched,
}

impl TenantReport {
    fn merge(&mut self, other: &TenantReport) {
        debug_assert_eq!(self.name, other.name);
        self.totals.merge(&other.totals);
        self.series.extend(other.series.iter().copied());
        self.sched.merge(&other.sched);
    }
}

/// What one shard of a fleet did.
#[derive(Debug, Clone)]
pub struct FleetShardReport {
    /// Shard index.
    pub shard: usize,
    /// The seed its machine booted with.
    pub seed: u64,
    /// Per-tenant service, in plan tenant order.
    pub tenants: Vec<TenantReport>,
    /// Syscalls served across all tenants.
    pub syscalls: u64,
    /// Simulated instructions across all tenants.
    pub instructions: u64,
    /// Simulated cycles across all tenants.
    pub cycles: u64,
    /// All tenants' counters merged.
    pub stats: CpuStats,
    /// Sweeps of the simulated weighted-fair schedule this shard ran.
    /// Deterministic in the plan (part of `simulation_identical`).
    pub sweeps: u64,
    /// This shard's own boot + serve duration on the worker that ran it.
    /// Under a parallel drive this includes host contention; under
    /// [`FleetDriver::drive_sequential`] the shard ran alone, so `instructions / wall_secs` is its
    /// isolated capacity.
    pub wall_secs: f64,
}

/// Host-side execution profile of a fleet run: how the pool ran the
/// shards. Everything here is host-dependent and excluded from
/// [`FleetReport::simulation_identical`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecProfile {
    /// Host worker threads that served the run (1 for
    /// [`FleetDriver::drive_sequential`]).
    pub workers: usize,
    /// Always 0: shards run to completion on the worker that claimed
    /// them.
    pub steals: u64,
    /// Always 0: shards run to completion on the worker that claimed
    /// them.
    pub migrations: u64,
}

/// The merged outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<FleetShardReport>,
    /// Per-tenant service merged across shards, in plan tenant order.
    pub tenants: Vec<TenantReport>,
    /// Total syscalls served.
    pub syscalls: u64,
    /// Total simulated instructions.
    pub instructions: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Every core of every shard merged.
    pub stats: CpuStats,
    /// Host wall-clock seconds for the whole fan-out.
    pub wall_secs: f64,
    /// How the host pool ran it (worker count) — wall side only,
    /// excluded from [`FleetReport::simulation_identical`].
    pub exec: ExecProfile,
}

impl FleetReport {
    /// Aggregate simulated instructions per host wall second.
    pub fn steps_per_sec(&self) -> f64 {
        self.instructions as f64 / self.wall_secs.max(1e-9)
    }

    /// Aggregate shard capacity: the sum of each shard's own
    /// `instructions / wall_secs` rate. Measured from a sequential run
    /// (shards timed in isolation), this is the pool's aggregate service
    /// rate given one unloaded core per shard; on a host with at least
    /// that many idle cores the parallel wall rate converges to it.
    pub fn capacity_steps_per_sec(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.instructions as f64 / s.wall_secs.max(1e-9))
            .sum()
    }

    /// Whether two runs of the same plan produced bit-identical simulated
    /// totals — the fleet-level invariant `perfcheck --fleet` gates on.
    /// Wall-clock fields are excluded; everything simulated (per-tenant
    /// counters, histograms, merged stats) must agree exactly.
    pub fn simulation_identical(&self, other: &FleetReport) -> bool {
        self.syscalls == other.syscalls
            && self.instructions == other.instructions
            && self.cycles == other.cycles
            && self.stats == other.stats
            && self.tenants == other.tenants
            && self.shards.len() == other.shards.len()
            && self.shards.iter().zip(&other.shards).all(|(a, b)| {
                a.shard == b.shard
                    && a.seed == b.seed
                    && a.syscalls == b.syscalls
                    && a.instructions == b.instructions
                    && a.cycles == b.cycles
                    && a.stats == b.stats
                    && a.sweeps == b.sweeps
                    && a.tenants == b.tenants
            })
    }
}

/// Runs [`FleetPlan`]s over a pool of host workers.
///
/// Each worker claims the next unclaimed shard and runs it to completion
/// (see `scheduler` module docs), so shard count is decoupled from host
/// thread count. The *simulated* weighted-fair schedule is a pure
/// function of the plan, so every drive — at any worker count, or
/// sequential — is [`FleetReport::simulation_identical`] to every other.
#[derive(Debug)]
pub struct FleetDriver;

impl FleetDriver {
    /// The default pool size for `plan`: one worker per shard, capped at
    /// the host's available parallelism (never oversubscribe, never
    /// spawn workers with no shard to serve).
    pub fn default_workers(plan: &FleetPlan) -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(plan.shards)
            .max(1)
    }

    /// Executes `plan` over the pool ([`FleetPlan::workers`] workers, or
    /// [`FleetDriver::default_workers`] when unset): boots every shard
    /// machine, serves each shard's share of every tenant's quota on the
    /// simulated weighted-fair schedule, and merges the results in shard
    /// order. Everything except `wall_secs` and [`FleetReport::exec`] is
    /// deterministic in the plan, whatever the worker count: fewer
    /// workers than shards run shards back to back, and more workers
    /// than shards exit with nothing to claim.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure (by shard order).
    ///
    /// # Panics
    ///
    /// Panics if the plan has zero shards, zero CPUs per shard, no
    /// tenants, or `workers: Some(0)`.
    pub fn drive(plan: &FleetPlan) -> Result<FleetReport, KernelError> {
        let workers = plan.workers.unwrap_or_else(|| Self::default_workers(plan));
        Self::drive_on(plan, workers)
    }

    /// Executes `plan` on one worker, the calling thread, with every
    /// shard run back to back: [`FleetDriver::drive`] at one worker
    /// whatever [`FleetPlan::workers`] says. The simulated totals are
    /// bit-identical to any other drive (shards share nothing, so the
    /// worker count is invisible to the simulation); only the wall-clock
    /// profile differs. Each shard's `wall_secs` is its isolated runtime,
    /// so [`FleetReport::capacity_steps_per_sec`] from this mode measures
    /// true per-shard capacity free of host contention.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure (by shard order).
    ///
    /// # Panics
    ///
    /// Panics like [`FleetDriver::drive`].
    pub fn drive_sequential(plan: &FleetPlan) -> Result<FleetReport, KernelError> {
        Self::drive_on(plan, 1)
    }

    fn drive_on(plan: &FleetPlan, workers: usize) -> Result<FleetReport, KernelError> {
        Self::check(plan);
        let start = Instant::now();
        let shards = scheduler::run_pool(plan, workers)?;
        let exec = ExecProfile {
            workers,
            ..ExecProfile::default()
        };
        Ok(Self::merge(shards, start.elapsed().as_secs_f64(), exec))
    }

    fn check(plan: &FleetPlan) {
        assert!(plan.shards > 0, "at least one shard");
        assert!(plan.cpus_per_shard > 0, "at least one CPU per shard");
        assert!(!plan.tenants.is_empty(), "at least one tenant");
        for (i, a) in plan.tenants.iter().enumerate() {
            for b in &plan.tenants[i + 1..] {
                assert_ne!(
                    a.name, b.name,
                    "tenant names must be unique (they seed the op streams)"
                );
            }
        }
    }

    fn merge(shards: Vec<FleetShardReport>, wall_secs: f64, exec: ExecProfile) -> FleetReport {
        let mut stats = CpuStats::default();
        let (mut syscalls, mut instructions, mut cycles) = (0, 0, 0);
        let mut tenants: Vec<TenantReport> = shards[0].tenants.clone();
        for report in &shards[1..] {
            for (merged, tenant) in tenants.iter_mut().zip(&report.tenants) {
                merged.merge(tenant);
            }
        }
        for report in &shards {
            stats.merge(&report.stats);
            syscalls += report.syscalls;
            instructions += report.instructions;
            cycles += report.cycles;
        }
        FleetReport {
            shards,
            tenants,
            syscalls,
            instructions,
            cycles,
            stats,
            wall_secs,
            exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_workloads::Quota;

    #[test]
    fn quotas_partition_exactly() {
        let quotas: Vec<u64> = (0..3).map(|i| Quota::Syscalls(100).share(3, i)).collect();
        assert_eq!(quotas, vec![34, 33, 33]);
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..8).map(|i| shard_seed(42, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| shard_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "no seed collisions: {a:?}");
    }

    #[test]
    fn multi_core_shards_spread_traffic_over_their_cores() {
        let mut plan = FleetPlan::new(1, 5, vec![TenantSpec::lmbench("lmbench", 32)]);
        plan.cpus_per_shard = 2;
        let report = FleetDriver::drive(&plan).unwrap();
        assert_eq!(report.syscalls, 32);
        assert_eq!(report.shards[0].syscalls, 32);
        // Traffic alternates between the two per-core tasks, so the shard
        // took user-mode exceptions on a 2-core cluster without faulting.
        assert!(report.stats.exceptions > 0);
    }
}
