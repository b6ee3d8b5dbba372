//! The work-stealing host scheduler: resumable shard tasks over a pool
//! of host workers.
//!
//! # Task model
//!
//! A shard run is a resumable task. Its unit of host work — a *slice* —
//! is either the shard's machine boot or one *sweep* of the simulated
//! weighted-fair schedule (every live tenant served up to `weight` ops,
//! budgeted tenants throttled on simulated-cycle credit). A task yields
//! between slices, which is what lets host workers steal it: any worker
//! may run the next slice of any shard, so shard count is decoupled from
//! host thread count — 8 shards make progress on 2 workers, and a
//! 16-core host drains 8 shards without oversubscribing.
//!
//! # Why determinism survives stealing
//!
//! The *simulated* schedule — which tenant's op runs next on a shard's
//! machine, when a budgeted tenant is throttled, when a drained tenant
//! leaves the rotation — is a pure function of the plan: weights, budgets
//! and quotas are plan fields, throttling credit is denominated in
//! simulated cycles, and the op streams are seeded per
//! `(plan seed, shard, tenant name)`. The *host* schedule — which worker
//! runs which slice, and when — only decides where and when those
//! deterministic slices execute. Shards share nothing, a slice never
//! splits an op, and exactly one worker owns a task at a time (tasks move
//! between workers only through the pool's mutex-protected deques, whose
//! lock handoff gives the memory ordering), so `simulation_identical`
//! holds across any steal schedule, worker count, or drive mode — the
//! same contract as `fast_caches`/`block_engine`/`trace_engine`.
//!
//! The telemetry plane rides the same ownership rule: each tenant's
//! series is plain state inside its `TenantRun`, which moves with the
//! task, so no cross-thread handoff is needed and window-sums ≡ totals
//! survives any steal schedule.

use crate::cluster::Cluster;
use crate::driver::{shard_seed, FleetPlan, FleetShardReport, TenantReport};
use camo_cpu::CpuStats;
use camo_kernel::{KernelConfig, KernelError};
use camo_workloads::{tenant_stream_seed, Quota, TenantRun};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// The booted, resumable body of a shard run.
struct ShardRun<'p> {
    plan: &'p FleetPlan,
    shard: usize,
    boot_seed: u64,
    cluster: Cluster,
    tenants: Vec<TenantState>,
    /// Completed sweeps (1-based during a sweep).
    sweeps: u64,
    /// Host wall time accumulated across this shard's slices, on
    /// whichever workers ran them.
    wall_secs: f64,
}

impl<'p> ShardRun<'p> {
    /// The boot slice: build workloads, compile their user blocks into
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
            wall_secs: 0.0,
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
    /// series. Consumes the run.
    fn finish(self) -> FleetShardReport {
        let start = Instant::now();
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
            wall_secs: self.wall_secs + start.elapsed().as_secs_f64(),
        }
    }
}

/// What a slice left behind.
pub(crate) enum Slice {
    /// More slices to run — push the task back on a queue.
    Yielded,
    /// The shard's quota is fully served — call [`ShardTask::finish`].
    Done,
}

/// A resumable shard task: boots lazily (the boot is itself a slice, so
/// boots spread across the pool too), then runs one sweep per slice.
pub(crate) struct ShardTask<'p> {
    plan: &'p FleetPlan,
    shard: usize,
    run: Option<Box<ShardRun<'p>>>,
    last_worker: Option<usize>,
}

impl<'p> ShardTask<'p> {
    pub(crate) fn new(plan: &'p FleetPlan, shard: usize) -> ShardTask<'p> {
        ShardTask {
            plan,
            shard,
            run: None,
            last_worker: None,
        }
    }

    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    /// Records which worker is about to run a slice; returns `true` when
    /// ownership migrated from a different worker (a steal landed).
    pub(crate) fn note_worker(&mut self, worker: usize) -> bool {
        let migrated = matches!(self.last_worker, Some(prev) if prev != worker);
        self.last_worker = Some(worker);
        migrated
    }

    /// Runs one slice (boot, or one sweep) on the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates shard boot or kernel errors; an errored task is
    /// complete (do not resume it).
    pub(crate) fn run_slice(&mut self) -> Result<Slice, KernelError> {
        let start = Instant::now();
        match &mut self.run {
            None => {
                let run = Box::new(ShardRun::boot(self.plan, self.shard)?);
                self.run = Some(run);
                if let Some(run) = &mut self.run {
                    run.wall_secs += start.elapsed().as_secs_f64();
                }
                Ok(Slice::Yielded)
            }
            Some(run) => {
                let live = run.sweep()?;
                run.wall_secs += start.elapsed().as_secs_f64();
                Ok(if live { Slice::Yielded } else { Slice::Done })
            }
        }
    }

    /// Assembles the shard report. Panics if the task never booted or is
    /// resumed after an error.
    pub(crate) fn finish(self) -> FleetShardReport {
        self.run.expect("task ran to completion").finish()
    }
}

/// Runs a task to completion on the calling thread (the sequential
/// oracle and the legacy 1:1 thread-per-shard baseline both use this).
pub(crate) fn run_to_completion(mut task: ShardTask<'_>) -> Result<FleetShardReport, KernelError> {
    loop {
        match task.run_slice()? {
            Slice::Yielded => {}
            Slice::Done => return Ok(task.finish()),
        }
    }
}

/// What the pool did, host-side.
pub(crate) struct PoolOutcome {
    /// Per-shard results in shard order (every shard completes — an
    /// error in one shard does not abort the others).
    pub(crate) shards: Vec<Result<FleetShardReport, KernelError>>,
    /// Tasks popped from another worker's queue.
    pub(crate) steals: u64,
    /// Slices that ran on a different worker than the previous slice of
    /// the same shard.
    pub(crate) migrations: u64,
}

/// Executes every shard of `plan` over `workers` host threads with work
/// stealing: each worker owns a deque, pops its own tasks LIFO, and
/// steals FIFO from the others when idle. Excess workers (more than live
/// tasks) spin down politely; fewer workers than shards just means more
/// slices per worker — both ends are exercised by the worker-count
/// invariance stress tests.
pub(crate) fn run_pool(plan: &FleetPlan, workers: usize) -> PoolOutcome {
    assert!(workers >= 1, "at least one worker");
    let queues: Vec<Mutex<VecDeque<ShardTask<'_>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for shard in 0..plan.shards {
        queues[shard % workers]
            .lock()
            .unwrap()
            .push_back(ShardTask::new(plan, shard));
    }
    let remaining = AtomicUsize::new(plan.shards);
    let steals = AtomicU64::new(0);
    let migrations = AtomicU64::new(0);
    let results: Vec<Mutex<Option<Result<FleetShardReport, KernelError>>>> =
        (0..plan.shards).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let remaining = &remaining;
            let steals = &steals;
            let migrations = &migrations;
            let results = &results;
            scope.spawn(move || {
                let mut idle_spins = 0u32;
                while remaining.load(Ordering::Acquire) > 0 {
                    // Own pop in its own statement: the guard must drop
                    // before stealing, or two idle workers stealing from
                    // each other each hold the lock the other waits on.
                    let own = queues[me].lock().unwrap().pop_back();
                    let task = own.or_else(|| {
                        (1..workers).find_map(|offset| {
                            let victim = (me + offset) % workers;
                            let stolen = queues[victim].lock().unwrap().pop_front();
                            if stolen.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                            }
                            stolen
                        })
                    });
                    let Some(mut task) = task else {
                        // Nothing runnable right now (other workers hold
                        // the live tasks): yield, then back off.
                        idle_spins += 1;
                        if idle_spins > 64 {
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        } else {
                            std::thread::yield_now();
                        }
                        continue;
                    };
                    idle_spins = 0;
                    if task.note_worker(me) {
                        migrations.fetch_add(1, Ordering::Relaxed);
                    }
                    match task.run_slice() {
                        Ok(Slice::Yielded) => queues[me].lock().unwrap().push_back(task),
                        Ok(Slice::Done) => {
                            let shard = task.shard();
                            *results[shard].lock().unwrap() = Some(Ok(task.finish()));
                            remaining.fetch_sub(1, Ordering::Release);
                        }
                        Err(e) => {
                            let shard = task.shard();
                            *results[shard].lock().unwrap() = Some(Err(e));
                            remaining.fetch_sub(1, Ordering::Release);
                        }
                    }
                }
            });
        }
    });
    PoolOutcome {
        shards: results
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every shard completed"))
            .collect(),
        steals: steals.load(Ordering::Relaxed),
        migrations: migrations.load(Ordering::Relaxed),
    }
}
