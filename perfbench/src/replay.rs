//! The traced run: the driver's per-shard work replayed through the
//! public calls beneath it, with a host-time span around every call.
//!
//! `FleetDriver` boots each shard with `Cluster::boot`, registers its
//! tenants with `TenantRun::new`, and then serves them round-robin with
//! `TenantRun::step`, clamping syscall batches to the remaining quota.
//! [`replay`] makes the same calls in the same order, shard after shard
//! on the calling thread, so its per-tenant simulated totals must equal
//! the driver's exactly; [`first_difference`] checks that, because a
//! replay that diverged would have measured different work.

use camo_kernel::{KernelConfig, KernelError};
use camo_smp::{shard_seed, Cluster, FleetPlan, FleetReport};
use camo_workloads::{tenant_stream_seed, Quota, TenantRun, TenantTotals};
use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel configuration the driver boots shard `shard` of `plan`
/// with: the plan's engine knobs, the shard's boot seed, and the union
/// of every tenant's user blocks.
fn kernel_config(plan: &FleetPlan, shard: usize) -> KernelConfig {
    let mut cfg = KernelConfig::with_protection(plan.protection);
    cfg.cpus = plan.cpus_per_shard;
    cfg.seed = shard_seed(plan.seed, shard);
    cfg.fast_caches = plan.fast_caches;
    cfg.block_engine = plan.block_engine;
    cfg.trace_engine = plan.trace_engine;
    cfg.telemetry = plan.telemetry;
    if let Some(threshold) = plan.pac_panic_threshold {
        cfg.pac_panic_threshold = threshold;
    }
    for spec in &plan.tenants {
        for block in spec.build().user_blocks() {
            if !cfg.user_blocks.iter().any(|(n, _, _)| *n == block.0) {
                cfg.user_blocks.push(block);
            }
        }
    }
    cfg
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Boots shard `shard` of `plan` with `Cluster::boot` and registers its
/// tenants with `TenantRun::new`, as the driver does, returning the
/// host nanoseconds of the boot and of the registrations.
fn boot_shard(
    plan: &FleetPlan,
    shard: usize,
) -> Result<(Cluster, Vec<TenantRun>, u64, u64), KernelError> {
    let cfg = kernel_config(plan, shard);
    let workloads: Vec<_> = plan.tenants.iter().map(|t| t.build()).collect();
    let t = Instant::now();
    let mut cluster = Cluster::boot(cfg)?;
    let boot_ns = nanos(t);
    let mut runs = Vec::with_capacity(workloads.len());
    let mut new_ns = 0;
    for (spec, workload) in plan.tenants.iter().zip(workloads) {
        let seed = tenant_stream_seed(plan.seed, shard, &spec.name);
        let t = Instant::now();
        let run = TenantRun::new(spec.name.clone(), workload, cluster.kernel_mut(), seed)?;
        new_ns += nanos(t);
        runs.push(run);
    }
    Ok((cluster, runs, boot_ns, new_ns))
}

/// Host seconds of one whole set-up: every shard booted and every
/// tenant registered (configuration building is not timed).
///
/// # Errors
///
/// Propagates boot and spawn failures.
pub fn setup_once(plan: &FleetPlan) -> Result<f64, KernelError> {
    let mut ns = 0;
    for shard in 0..plan.shards {
        let (_cluster, _runs, boot_ns, new_ns) = boot_shard(plan, shard)?;
        ns += boot_ns + new_ns;
    }
    Ok(ns as f64 / 1e9)
}

/// Step spans of one workload mix.
#[derive(Debug, Default, Clone)]
pub struct MixSpans {
    /// Host nanoseconds of every `TenantRun::step` call, in call order.
    pub step_ns: Vec<u64>,
    /// Simulated instructions those steps retired.
    pub sim_insns: u64,
}

impl MixSpans {
    /// Total host nanoseconds inside this mix's steps.
    pub fn busy_ns(&self) -> u64 {
        self.step_ns.iter().sum()
    }
}

/// What the traced replay measured.
#[derive(Debug)]
pub struct Replay {
    /// Per-shard, per-tenant simulated totals, in plan order.
    pub totals: Vec<Vec<TenantTotals>>,
    /// Host nanoseconds of each shard's `Cluster::boot`.
    pub boot_ns: Vec<u64>,
    /// Host nanoseconds of each shard's `TenantRun::new` calls, summed.
    pub tenant_new_ns: Vec<u64>,
    /// Step spans keyed by workload mix name.
    pub mixes: BTreeMap<String, MixSpans>,
    /// Host nanoseconds of the whole replay.
    pub wall_ns: u64,
}

impl Replay {
    /// Host nanoseconds covered by a span.
    pub fn spanned_ns(&self) -> u64 {
        self.boot_ns.iter().sum::<u64>()
            + self.tenant_new_ns.iter().sum::<u64>()
            + self.mixes.values().map(MixSpans::busy_ns).sum::<u64>()
    }
}

/// Replays `plan` shard by shard, timing every boot, registration and
/// step.
///
/// # Errors
///
/// Propagates boot, spawn and step failures.
///
/// # Panics
///
/// Panics on a plan with cycle budgets: the replay serves the
/// weighted round-robin schedule only.
pub fn replay(plan: &FleetPlan) -> Result<Replay, KernelError> {
    assert!(
        plan.tenants.iter().all(|t| t.cycle_budget.is_none()),
        "the traced replay does not model cycle budgets"
    );
    let start = Instant::now();
    let mut out = Replay {
        totals: Vec::with_capacity(plan.shards),
        boot_ns: Vec::with_capacity(plan.shards),
        tenant_new_ns: Vec::with_capacity(plan.shards),
        mixes: BTreeMap::new(),
        wall_ns: 0,
    };
    for shard in 0..plan.shards {
        let (mut cluster, mut runs, boot_ns, new_ns) = boot_shard(plan, shard)?;
        out.boot_ns.push(boot_ns);
        out.tenant_new_ns.push(new_ns);
        // Spans are filed per tenant first (no map lookup inside the
        // timed loop) and folded into the per-mix map afterwards.
        let mut spans = vec![MixSpans::default(); runs.len()];
        let mut remaining: Vec<u64> = plan
            .tenants
            .iter()
            .map(|t| t.quota.share(plan.shards, shard))
            .collect();
        while remaining.iter().any(|&r| r > 0) {
            for (idx, run) in runs.iter_mut().enumerate() {
                let spec = &plan.tenants[idx];
                for _slot in 0..spec.weight.max(1) {
                    if remaining[idx] == 0 {
                        break;
                    }
                    let clamp = match spec.quota {
                        Quota::Syscalls(_) => Some(remaining[idx]),
                        Quota::Ops(_) => None,
                    };
                    let t = Instant::now();
                    let report = run.step(cluster.kernel_mut(), clamp)?;
                    spans[idx].step_ns.push(nanos(t));
                    spans[idx].sim_insns += report.instructions;
                    remaining[idx] -= match spec.quota {
                        Quota::Ops(_) => 1,
                        Quota::Syscalls(_) => report.syscalls.max(1).min(remaining[idx]),
                    };
                }
            }
        }
        let mut totals = Vec::with_capacity(runs.len());
        for (run, span) in runs.into_iter().zip(spans) {
            let mix = out
                .mixes
                .entry(run.workload_name().to_string())
                .or_default();
            mix.step_ns.extend(span.step_ns);
            mix.sim_insns += span.sim_insns;
            totals.push(run.into_totals());
        }
        out.totals.push(totals);
    }
    out.wall_ns = nanos(start);
    Ok(out)
}

/// The first shard and tenant whose replayed totals differ from the
/// driver's, or `None` when every tenant of every shard matches.
pub fn first_difference(report: &FleetReport, replay: &Replay) -> Option<String> {
    if report.shards.len() != replay.totals.len() {
        return Some(format!(
            "shard count: driver {} vs replay {}",
            report.shards.len(),
            replay.totals.len()
        ));
    }
    for (shard, replayed) in report.shards.iter().zip(&replay.totals) {
        for (tenant, totals) in shard.tenants.iter().zip(replayed) {
            if tenant.totals != *totals {
                return Some(format!(
                    "shard {} tenant {:?}: driver {} ops/{} cycles vs replay {} ops/{} cycles",
                    shard.shard,
                    tenant.name,
                    tenant.totals.ops,
                    tenant.totals.cycles,
                    totals.ops,
                    totals.cycles
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_smp::FleetDriver;
    use camo_workloads::TenantSpec;

    fn small_plan() -> FleetPlan {
        let mut plan = FleetPlan::new(
            2,
            0x5EED,
            vec![
                TenantSpec::lmbench("web", 600),
                TenantSpec::process_churn("build", 9),
                TenantSpec::module_churn("mods", 7),
                TenantSpec::tenant_mix("batch", 20).with_weight(2),
            ],
        );
        plan.cpus_per_shard = 2;
        plan
    }

    #[test]
    fn replay_reproduces_the_sequential_driver_exactly() {
        let plan = small_plan();
        let driven = FleetDriver::drive_sequential(&plan).expect("driver runs");
        let replayed = replay(&plan).expect("replay runs");
        assert_eq!(first_difference(&driven, &replayed), None);
        let ops: u64 = driven.tenants.iter().map(|t| t.totals.ops).sum();
        let spans: usize = replayed.mixes.values().map(|m| m.step_ns.len()).sum();
        assert_eq!(spans as u64, ops, "one span per step");
        assert_eq!(replayed.mixes.len(), 4, "every mix got spans");
        assert!(replayed.spanned_ns() <= replayed.wall_ns);
    }

    #[test]
    fn a_changed_plan_is_detected() {
        let plan = small_plan();
        let driven = FleetDriver::drive_sequential(&plan).expect("driver runs");
        let mut other = plan.clone();
        other.seed ^= 1;
        let replayed = replay(&other).expect("replay runs");
        assert!(first_difference(&driven, &replayed).is_some());
    }

    #[test]
    fn setup_is_timed() {
        let secs = setup_once(&small_plan()).expect("set-up runs");
        assert!(secs > 0.0);
    }
}
