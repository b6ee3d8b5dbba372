//! The host scheduler: a pool of workers that claim shards and run each
//! one to completion.
//!
//! # Pool model
//!
//! Workers share one claim counter. Each worker claims the next
//! unclaimed shard index and runs that shard from boot to report
//! ([`run_shard`]: boot, then one *sweep* of the simulated weighted-fair
//! schedule after another, then the report) before it claims the next.
//! A worker exits as soon as no shard is left to claim. Shard count is
//! decoupled from host thread count: 8 shards make progress on 2
//! workers, and a 16-core host drains 8 shards without oversubscribing.
//!
//! # Why determinism survives any pool shape
//!
//! The *simulated* schedule — which tenant's op runs next on a shard's
//! machine, when a budgeted tenant is throttled, when a drained tenant
//! leaves the rotation — is a pure function of the plan: weights, budgets
//! and quotas are plan fields, throttling credit is denominated in
//! simulated cycles, and the op streams are seeded per
//! `(plan seed, shard, tenant name)`. The *host* schedule — which worker
//! claims which shard, and when — only decides where and when those
//! deterministic shard runs execute. Shards share nothing and a shard
//! never leaves the worker that claimed it, so `simulation_identical`
//! holds across any worker count or drive mode — the same contract as
//! `fast_caches`/`block_engine`/`trace_engine`.
//!
//! The telemetry plane rides the same ownership rule: each tenant's
//! series is plain state inside its `TenantRun`, owned by the one worker
//! running the shard, so no cross-thread handoff is needed and
//! window-sums ≡ totals holds at any worker count.

use crate::cluster::Cluster;
use crate::driver::{shard_seed, FleetPlan, FleetShardReport, TenantReport};
use camo_cpu::CpuStats;
use camo_kernel::{KernelConfig, KernelError};
use camo_workloads::{tenant_stream_seed, Quota, TenantRun};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Per-tenant facts of the *simulated* schedule on one shard (or summed
/// across shards after merging). Everything here is deterministic in the
/// plan — it participates in `simulation_identical` via
/// [`TenantReport`]'s equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantSched {
    /// Sweeps in which the tenant was served at least one op.
    pub sweeps_served: u64,
    /// Ops served across all sweeps (equals `totals.ops`; kept here so
    /// weighted-fairness is checkable from the schedule record alone).
    pub ops_served: u64,
    /// Whole sweeps skipped because the tenant's simulated-cycle credit
    /// was exhausted ([`camo_workloads::TenantSpec::cycle_budget`]).
    pub throttled_sweeps: u64,
    /// The sweep (1-based) in which the tenant's quota share drained to
    /// zero and it left the rotation, freeing its weighted-fair share to
    /// the remaining tenants. `None` if its share on this shard was
    /// empty from the start (it was never in the rotation).
    pub drained_sweep: Option<u64>,
}

impl TenantSched {
    pub(crate) fn merge(&mut self, other: &TenantSched) {
        self.sweeps_served += other.sweeps_served;
        self.ops_served += other.ops_served;
        self.throttled_sweeps += other.throttled_sweeps;
        // Fleet-wide, report the latest drain point of any shard.
        self.drained_sweep = match (self.drained_sweep, other.drained_sweep) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// One tenant's live scheduling state on one shard.
struct TenantState {
    run: TenantRun,
    /// Remaining quota share (ops or syscalls, per the spec's quota).
    remaining: u64,
    /// Weighted-fair share: op slots per sweep.
    weight: u32,
    /// Simulated-cycle throttle credit; `None` = unbudgeted.
    credit: Option<i128>,
    sched: TenantSched,
}

/// A booted shard run.
struct ShardRun<'p> {
    plan: &'p FleetPlan,
    shard: usize,
    boot_seed: u64,
    cluster: Cluster,
    tenants: Vec<TenantState>,
    /// Completed sweeps (1-based during a sweep).
    sweeps: u64,
}

impl<'p> ShardRun<'p> {
    /// Boots the shard: build workloads, compile their user blocks into
    /// the machine image, boot the cluster, and set up every tenant's
    /// tasks in plan order.
    fn boot(plan: &'p FleetPlan, shard: usize) -> Result<ShardRun<'p>, KernelError> {
        let boot_seed = shard_seed(plan.seed, shard);
        let workloads: Vec<_> = plan.tenants.iter().map(|t| t.build()).collect();
        let mut cfg = KernelConfig::with_protection(plan.protection);
        cfg.cpus = plan.cpus_per_shard;
        cfg.seed = boot_seed;
        cfg.fast_caches = plan.fast_caches;
        cfg.block_engine = plan.block_engine;
        cfg.trace_engine = plan.trace_engine;
        if let Some(threshold) = plan.pac_panic_threshold {
            cfg.pac_panic_threshold = threshold;
        }
        for workload in &workloads {
            for (name, alu, mem) in workload.user_blocks() {
                match cfg.user_blocks.iter().find(|(n, _, _)| *n == name) {
                    // Identical redeclarations are fine (two tenants of
                    // the same mix); conflicting sizes under one name
                    // would silently misattribute work, so fail loudly.
                    Some((_, a, m)) => assert_eq!(
                        (*a, *m),
                        (alu, mem),
                        "user block {name:?} declared twice with different sizes"
                    ),
                    None => cfg.user_blocks.push((name, alu, mem)),
                }
            }
        }
        cfg.telemetry = plan.telemetry;
        let mut cluster = Cluster::boot(cfg)?;
        let mut tenants = Vec::with_capacity(plan.tenants.len());
        for (spec, workload) in plan.tenants.iter().zip(workloads) {
            let run = TenantRun::new(
                spec.name.clone(),
                workload,
                cluster.kernel_mut(),
                tenant_stream_seed(plan.seed, shard, &spec.name),
            )?;
            tenants.push(TenantState {
                run,
                remaining: spec.quota.share(plan.shards, shard),
                weight: spec.weight.max(1),
                // Seed the credit at one sweep's budget so a budgeted
                // tenant is servable in sweep 1.
                credit: spec.cycle_budget.map(i128::from),
                sched: TenantSched::default(),
            });
        }
        Ok(ShardRun {
            plan,
            shard,
            boot_seed,
            cluster,
            tenants,
            sweeps: 0,
        })
    }

    /// One sweep of the simulated weighted-fair schedule: every live
    /// tenant, in plan order, is served up to `weight` ops; budgeted
    /// tenants accrue one sweep of cycle credit first and are throttled
    /// (skipped whole) or cut short when it runs out. Returns whether any
    /// tenant still has quota after the sweep.
    fn sweep(&mut self) -> Result<bool, KernelError> {
        if !self.tenants.iter().any(|t| t.remaining > 0) {
            return Ok(false);
        }
        self.sweeps += 1;
        let sweep = self.sweeps;
        // Split borrows: tenant states and the cluster are disjoint
        // fields, but a single `&mut self` method call would alias them.
        let cluster = &mut self.cluster;
        let tenants = &mut self.tenants;
        for (idx, t) in tenants.iter_mut().enumerate() {
            if t.remaining == 0 {
                continue;
            }
            let quota = self.plan.tenants[idx].quota;
            if let (Some(credit), Some(budget)) =
                (t.credit.as_mut(), self.plan.tenants[idx].cycle_budget)
            {
                // Accrue one sweep of credit, burst-capped at two
                // sweeps' worth so an idle tenant cannot bank an
                // unbounded burst.
                *credit = (*credit + i128::from(budget)).min(2 * i128::from(budget));
                if *credit <= 0 {
                    // Still paying for past overdraft: throttled.
                    t.sched.throttled_sweeps += 1;
                    continue;
                }
            }
            let mut served = 0u64;
            for _slot in 0..t.weight {
                if t.remaining == 0 {
                    break;
                }
                if matches!(t.credit, Some(c) if c <= 0) {
                    break; // credit exhausted mid-sweep
                }
                let clamp = match quota {
                    Quota::Syscalls(_) => Some(t.remaining),
                    Quota::Ops(_) => None,
                };
                let report = t.run.step(cluster.kernel_mut(), clamp)?;
                t.remaining -= match quota {
                    Quota::Ops(_) => 1,
                    Quota::Syscalls(_) => report.syscalls.max(1).min(t.remaining),
                };
                if let Some(credit) = t.credit.as_mut() {
                    *credit -= i128::from(report.cycles);
                }
                served += 1;
            }
            if served > 0 {
                t.sched.sweeps_served += 1;
                t.sched.ops_served += served;
            }
            if t.remaining == 0 && t.sched.drained_sweep.is_none() {
                // Quota drained mid-run: the tenant leaves the rotation
                // and its weighted-fair share falls to the residue.
                t.sched.drained_sweep = Some(sweep);
            }
        }
        Ok(self.tenants.iter().any(|t| t.remaining > 0))
    }

    /// Assembles the shard report, taking every tenant's telemetry
    /// series; `start` marks the beginning of the boot. Consumes the run.
    fn finish(self, start: Instant) -> FleetShardReport {
        let mut stats = CpuStats::default();
        let (mut syscalls, mut instructions, mut cycles) = (0, 0, 0);
        let tenants: Vec<TenantReport> = self
            .tenants
            .into_iter()
            .map(|mut t| {
                let series = t.run.take_series();
                let workload = t.run.workload_name().to_string();
                let name = t.run.name().to_string();
                let totals = t.run.into_totals();
                stats.merge(&totals.stats);
                syscalls += totals.syscalls;
                instructions += totals.instructions;
                cycles += totals.cycles;
                TenantReport {
                    name,
                    workload,
                    totals,
                    series,
                    sched: t.sched,
                }
            })
            .collect();
        FleetShardReport {
            shard: self.shard,
            seed: self.boot_seed,
            tenants,
            syscalls,
            instructions,
            cycles,
            stats,
            sweeps: self.sweeps,
            wall_secs: start.elapsed().as_secs_f64(),
        }
    }
}

/// Runs shard `shard` of `plan` from boot to report on the calling
/// thread.
fn run_shard(plan: &FleetPlan, shard: usize) -> Result<FleetShardReport, KernelError> {
    let start = Instant::now();
    let mut run = ShardRun::boot(plan, shard)?;
    while run.sweep()? {}
    Ok(run.finish(start))
}

/// Runs every shard of `plan` over `workers` host threads (the calling
/// thread is one of them) and returns the shard reports in shard order,
/// or the first shard failure by shard order. Each worker claims the
/// next unclaimed shard from one shared counter and runs it to
/// completion; an error in one shard does not stop the others.
pub(crate) fn run_pool(
    plan: &FleetPlan,
    workers: usize,
) -> Result<Vec<FleetShardReport>, KernelError> {
    assert!(workers >= 1, "at least one worker");
    // `Relaxed`: the counter publishes no data. Helper workers hand their
    // shard reports back through `join`, which synchronises.
    let next = AtomicUsize::new(0);
    let work = || {
        std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
            .take_while(|&shard| shard < plan.shards)
            .map(|shard| (shard, run_shard(plan, shard)))
            .collect::<Vec<_>>()
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("a fleet worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(shard, _)| shard);
    done.into_iter().map(|(_, result)| result).collect()
}
