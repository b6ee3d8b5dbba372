//! The op executor: applies a tenant's [`Op`] stream to one machine and
//! attributes every simulated cycle to the tenant.

use crate::hist::LatencyHistogram;
use crate::workload::{ExpectedOutcome, HostileOp, Op, Workload};
use camo_codegen::{FunctionBuilder, Program, StaticPointerTable};
use camo_cpu::pac::KeyClass;
use camo_cpu::telemetry::{self, StatWindow};
use camo_cpu::CpuStats;
use camo_isa::{encode, Insn, Reg, SysReg};
use camo_kernel::layout::{self, file_struct, task_struct, work_struct};
use camo_kernel::{FileKind, Kernel, KernelError, KernelEvent, Tid};
use camo_mem::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one executed [`Op`] did, in simulated quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpReport {
    /// Syscalls served by the op.
    pub syscalls: u64,
    /// Simulated instructions the op retired (whole-machine delta — it
    /// includes kernel-internal calls like `task_init_sp` or module
    /// signing the op triggered).
    pub instructions: u64,
    /// Simulated cycles the op consumed (whole-machine delta).
    pub cycles: u64,
}

/// A tenant's accumulated service on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantTotals {
    /// Ops executed.
    pub ops: u64,
    /// Syscalls served.
    pub syscalls: u64,
    /// Simulated instructions attributed to this tenant.
    pub instructions: u64,
    /// Simulated cycles attributed to this tenant.
    pub cycles: u64,
    /// Full per-tenant counter deltas (PAC ops, key writes, cache hits,
    /// IPIs, …) — the sum of every op's [`CpuStats::delta_since`].
    pub stats: CpuStats,
    /// Per-op simulated-cycle latency distribution.
    pub latency: LatencyHistogram,
    /// The adversarial ledger: hostile-op attribution and the benign
    /// false-positive count (all zeros for a purely benign tenant).
    pub hostile: HostileTotals,
}

impl TenantTotals {
    fn new() -> TenantTotals {
        TenantTotals {
            ops: 0,
            syscalls: 0,
            instructions: 0,
            cycles: 0,
            stats: CpuStats::default(),
            latency: LatencyHistogram::new(),
            hostile: HostileTotals::new(),
        }
    }

    /// Accumulates another tenant total (the cross-shard merge).
    pub fn merge(&mut self, other: &TenantTotals) {
        self.ops += other.ops;
        self.syscalls += other.syscalls;
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.stats.merge(&other.stats);
        self.latency.merge(&other.latency);
        self.hostile.merge(&other.hostile);
    }
}

/// One hostile op's outcome, as attributed by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostileRecord {
    /// Which attack was mounted.
    pub op: HostileOp,
    /// The outcome the op declared ([`HostileOp::expected`]).
    pub expected: ExpectedOutcome,
    /// Whether the kernel's reaction matched the declaration exactly:
    /// the right failure kind on the right task, and nothing else.
    pub matched: bool,
    /// The observed PAC-failure key class, when one fired.
    pub observed_kind: Option<KeyClass>,
    /// Simulated cycles from triggering the attack to the §5.4 kill
    /// (zero for outcomes that kill nobody).
    pub kill_cycles: u64,
}

/// A tenant's adversarial ledger.
///
/// Benign windows and hostile windows are disjoint: the executor drains
/// the kernel's event log at the end of *every* op, so a failure event is
/// attributed to exactly one op of exactly one tenant. `benign_pac_events`
/// is therefore the §5.4 false-positive numerator — failure-policy events
/// that fired inside a window no attack was mounted in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostileTotals {
    /// Hostile ops mounted.
    pub attempted: u64,
    /// Hostile ops whose kernel reaction matched their declaration.
    pub matched: u64,
    /// Benign ops executed (the false-positive denominator).
    pub benign_ops: u64,
    /// Failure-policy events (PAC failure, kernel fault, task kill)
    /// observed in benign windows — §5.4 false positives.
    pub benign_pac_events: u64,
    /// Simulated cycles from attack trigger to task kill, over every
    /// matched killing op (the §5.4 time-to-kill distribution).
    pub time_to_kill: LatencyHistogram,
    /// Per-op records in execution order (shard order after a merge).
    pub records: Vec<HostileRecord>,
}

impl HostileTotals {
    fn new() -> HostileTotals {
        HostileTotals {
            attempted: 0,
            matched: 0,
            benign_ops: 0,
            benign_pac_events: 0,
            time_to_kill: LatencyHistogram::new(),
            records: Vec::new(),
        }
    }

    /// Accumulates another ledger (the cross-shard merge).
    pub fn merge(&mut self, other: &HostileTotals) {
        self.attempted += other.attempted;
        self.matched += other.matched;
        self.benign_ops += other.benign_ops;
        self.benign_pac_events += other.benign_pac_events;
        self.time_to_kill.merge(&other.time_to_kill);
        self.records.extend(other.records.iter().copied());
    }

    /// The §5.4 false-positive rate: benign windows with failure-policy
    /// events over all benign windows.
    pub fn false_positive_rate(&self) -> f64 {
        if self.benign_ops == 0 {
            0.0
        } else {
            self.benign_pac_events as f64 / self.benign_ops as f64
        }
    }
}

impl Default for HostileTotals {
    fn default() -> Self {
        HostileTotals::new()
    }
}

impl Default for TenantTotals {
    fn default() -> Self {
        TenantTotals::new()
    }
}

/// Merged counters of every core, with the TLB fields read once from the
/// shared memory system (each core mirrors the shared totals; summing the
/// mirrors would multiply-count them — same rule as `ClusterStats`).
fn merged_stats(kernel: &Kernel) -> CpuStats {
    let mut merged = CpuStats::default();
    for cpu in kernel.cpus() {
        merged.merge(&cpu.stats());
    }
    merged.tlb_hits = kernel.mem().tlb_hits();
    merged.tlb_misses = kernel.mem().tlb_misses();
    merged
}

fn total_cycles(kernel: &Kernel) -> u64 {
    kernel.cpus().iter().map(|c| c.cycles()).sum()
}

/// One tenant executing on one machine: its long-lived tasks, its
/// deterministic RNG, and its accumulated totals.
///
/// The executor is the only component that touches the kernel; workloads
/// stay pure op generators. Latency is attributed by snapshotting the
/// machine-wide cycle and [`CpuStats`] totals around each op, so *every*
/// simulated cycle an op causes — including kernel-internal signing calls
/// — lands in the tenant's histogram.
#[derive(Debug)]
pub struct TenantRun {
    name: String,
    workload: Box<dyn Workload + Send>,
    rng: StdRng,
    tids: Vec<Tid>,
    turn: u64,
    totals: TenantTotals,
    /// Event-drain scratch, reused per op (allocation-free steady state).
    events: Vec<KernelEvent>,
    /// The tenant's telemetry series, present when the kernel booted
    /// with `telemetry` on. Purely host-side: it re-reads the per-op
    /// deltas [`TenantRun::step`] already computes, so the simulation is
    /// bit-identical with or without it.
    series: Option<Vec<StatWindow>>,
}

impl std::fmt::Debug for dyn Workload + Send {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workload({})", self.name())
    }
}

impl TenantRun {
    /// Sets a tenant up on `kernel`: spawns its long-lived tasks (named
    /// `"<name>-<i>"`, placed by the scheduler) and seeds its RNG.
    ///
    /// # Errors
    ///
    /// Propagates spawn failures.
    pub fn new(
        name: impl Into<String>,
        workload: Box<dyn Workload + Send>,
        kernel: &mut Kernel,
        seed: u64,
    ) -> Result<TenantRun, KernelError> {
        let name = name.into();
        let tasks = workload.task_count(kernel.cpu_count()).max(1);
        let mut tids = Vec::with_capacity(tasks);
        for i in 0..tasks {
            tids.push(kernel.spawn(&format!("{name}-{i}"))?);
        }
        // Leave a clean event log behind: every op window drains the log
        // at its end, so setup events must not bleed into the first op.
        let mut events = Vec::new();
        kernel.take_events(&mut events);
        events.clear();
        Ok(TenantRun {
            name,
            workload,
            rng: StdRng::seed_from_u64(seed),
            tids,
            turn: 0,
            totals: TenantTotals::new(),
            events,
            series: kernel.config().telemetry.then(Vec::new),
        })
    }

    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wrapped workload's name.
    pub fn workload_name(&self) -> &str {
        self.workload.name()
    }

    /// Accumulated totals so far.
    pub fn totals(&self) -> &TenantTotals {
        &self.totals
    }

    /// Consumes the run, returning its totals.
    pub fn into_totals(self) -> TenantTotals {
        self.totals
    }

    /// Takes the telemetry series recorded so far (empty when the plane
    /// is off).
    pub fn take_series(&mut self) -> Vec<StatWindow> {
        self.series.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The tenant's current task (round-robin over its task pool).
    fn task(&self) -> Tid {
        self.tids[self.turn as usize % self.tids.len()]
    }

    /// Executes the workload's next op. `syscall_clamp` caps the batch of
    /// an [`Op::Syscall`] (how a syscall-denominated quota is hit
    /// exactly); other ops ignore it.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors — including the §5.4 PAC panic, which a
    /// benign workload must never trigger.
    pub fn step(
        &mut self,
        kernel: &mut Kernel,
        syscall_clamp: Option<u64>,
    ) -> Result<OpReport, KernelError> {
        let op = self.workload.next_op(&mut self.rng);
        let hostile = matches!(op, Op::Hostile(_));
        let cycles0 = total_cycles(kernel);
        let stats0 = merged_stats(kernel);
        let syscalls = self.apply(kernel, op, syscall_clamp)?;
        let delta = merged_stats(kernel).delta_since(&stats0);
        let cycles = total_cycles(kernel) - cycles0;
        if !hostile {
            // End-of-window drain: any §5.4 failure-policy event fired in
            // a window with no attack in it is a false positive.
            self.events.clear();
            kernel.take_events(&mut self.events);
            let unexpected = self
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        KernelEvent::PacFailure { .. }
                            | KernelEvent::KernelFault { .. }
                            | KernelEvent::TaskKilled { .. }
                    )
                })
                .count() as u64;
            self.totals.hostile.benign_ops += 1;
            self.totals.hostile.benign_pac_events += unexpected;
        }
        self.turn += 1;
        self.totals.ops += 1;
        self.totals.syscalls += syscalls;
        self.totals.instructions += delta.instructions;
        self.totals.cycles += cycles;
        self.totals.stats.merge(&delta);
        self.totals.latency.record(cycles);
        if let Some(series) = &mut self.series {
            telemetry::record(series, syscalls, cycles, &delta);
        }
        Ok(OpReport {
            syscalls,
            instructions: delta.instructions,
            cycles,
        })
    }

    /// Applies one op, returning the syscalls it served.
    fn apply(
        &mut self,
        kernel: &mut Kernel,
        op: Op,
        syscall_clamp: Option<u64>,
    ) -> Result<u64, KernelError> {
        match op {
            Op::Syscall { nr, arg0, batch } => {
                let batch = syscall_clamp.map_or(batch, |cap| batch.min(cap)).max(1);
                let out = kernel.run_user(self.task(), "stub", batch, nr, arg0)?;
                debug_assert!(out.fault.is_none(), "benign traffic must not fault");
                Ok(out.syscalls)
            }
            Op::UserRun {
                block,
                iterations,
                nr,
                arg0,
            } => {
                let out = kernel.run_user(self.task(), &block, iterations.max(1), nr, arg0)?;
                debug_assert!(out.fault.is_none(), "benign traffic must not fault");
                Ok(out.syscalls)
            }
            Op::ProcessChurn { burst } => {
                let child = kernel.spawn(&format!("{}-child", self.name))?;
                let out = kernel.run_user(child, "stub", burst.max(1), 172, 0)?;
                debug_assert!(out.fault.is_none(), "benign traffic must not fault");
                kernel.exit_task(child)?;
                Ok(out.syscalls)
            }
            Op::ContextSwitch => {
                if self.tids.len() < 2 {
                    return self.apply(
                        kernel,
                        Op::Syscall {
                            nr: 172,
                            arg0: 0,
                            batch: 1,
                        },
                        None,
                    );
                }
                let n = self.tids.len();
                let from = self.tids[self.turn as usize % n];
                let to = self.tids[(self.turn as usize + 1) % n];
                let out = kernel.context_switch(from, to)?;
                debug_assert!(out.fault.is_none(), "benign switch must authenticate");
                Ok(0)
            }
            Op::Migrate => {
                if kernel.cpu_count() < 2 {
                    return self.apply(
                        kernel,
                        Op::Syscall {
                            nr: 172,
                            arg0: 0,
                            batch: 1,
                        },
                        None,
                    );
                }
                let tid = self.task();
                let home = kernel
                    .tasks()
                    .find(|t| t.tid == tid)
                    .map(|t| t.cpu)
                    .unwrap_or(0);
                kernel.migrate_task(tid, (home + 1) % kernel.cpu_count())?;
                // Enter user mode once so the destination core performs
                // the §6.1.1 key restore for real.
                let out = kernel.run_user(tid, "stub", 1, 172, 0)?;
                debug_assert!(out.fault.is_none(), "post-migration entry must succeed");
                Ok(out.syscalls)
            }
            Op::ModuleChurn { funcs } => {
                let cfg = kernel.codegen_config();
                let mut program = Program::new(cfg);
                let funcs = usize::from(funcs.max(1));
                let mut entry = FunctionBuilder::new("churn_entry", cfg).locals(32);
                entry.ins(Insn::AddImm {
                    rd: Reg::x(0),
                    rn: Reg::x(0),
                    imm12: 1,
                    shifted: false,
                });
                for i in 1..funcs {
                    entry.call(format!("churn_f{i}"));
                }
                program.push(entry.build());
                for i in 1..funcs {
                    let mut f = FunctionBuilder::new(format!("churn_f{i}"), cfg).locals(16);
                    f.ins(Insn::AddImm {
                        rd: Reg::x(0),
                        rn: Reg::x(0),
                        imm12: 1,
                        shifted: false,
                    });
                    program.push(f.build());
                }
                let handle = kernel.load_module(program, &StaticPointerTable::new())?;
                let entry_va = handle.image.symbol("churn_entry").expect("just built");
                let out = kernel.kexec(entry_va, &[self.turn])?;
                debug_assert!(out.fault.is_none(), "clean module must run");
                // x0 flows through the call chain: +1 in the entry, +1 in
                // each helper it calls.
                debug_assert_eq!(out.x0, self.turn + funcs as u64);
                kernel.unload_module(handle.base_va)?;
                Ok(0)
            }
            Op::Work { func } => {
                let work = kernel.init_work(func)?;
                let out = kernel.run_work(work)?;
                debug_assert!(out.fault.is_none(), "signed callback must authenticate");
                Ok(0)
            }
            Op::Hostile(hostile) => {
                self.apply_hostile(kernel, hostile)?;
                Ok(0)
            }
        }
    }

    /// Mounts one hostile op: stage the attack on sacrificial objects,
    /// trigger it, attribute the kernel's reaction against the declared
    /// expectation, and clean up so the next (benign) window starts from
    /// the same recycled-resource state the op found.
    ///
    /// # Errors
    ///
    /// Propagates *infrastructure* failures (spawn/reap, module plumbing).
    /// The attack's own outcome — including its absence — is recorded, not
    /// propagated: a missing fault is a mismatch, not an executor error.
    fn apply_hostile(&mut self, kernel: &mut Kernel, op: HostileOp) -> Result<(), KernelError> {
        match op {
            HostileOp::ForgedSavedSp | HostileOp::ReplaySavedSp => {
                let victim = kernel.spawn(&format!("{}-sac-a", self.name))?;
                let target = kernel.spawn(&format!("{}-sac-b", self.name))?;
                let kctx = kernel.mem().kernel_ctx(kernel.kernel_table());
                let slot = layout::task_struct_va(target) + u64::from(task_struct::SAVED_SP);
                if op == HostileOp::ForgedSavedSp {
                    // A raw, canonical kernel pointer where a signed one
                    // belongs — the classic forged-pointer return.
                    let raw = layout::stack_top(target) - 512;
                    kernel
                        .mem_mut()
                        .write_u64(&kctx, slot, raw)
                        .expect("task page mapped");
                } else {
                    // Replay: a *valid* signature, bound to the wrong
                    // task_struct (and replayed across a migration when
                    // the machine has a second core).
                    let donor = layout::task_struct_va(victim) + u64::from(task_struct::SAVED_SP);
                    let signed = kernel
                        .mem()
                        .read_u64(&kctx, donor)
                        .expect("task page mapped");
                    if kernel.cpu_count() >= 2 {
                        let home = kernel
                            .tasks()
                            .find(|t| t.tid == target)
                            .map(|t| t.cpu)
                            .unwrap_or(0);
                        kernel.migrate_task(target, (home + 1) % kernel.cpu_count())?;
                    }
                    kernel
                        .mem_mut()
                        .write_u64(&kctx, slot, signed)
                        .expect("task page mapped");
                }
                // Make the sacrificial task current so the §5.4 kill has a
                // deterministic victim.
                let entry = kernel.run_user(victim, "stub", 1, 172, 0)?;
                let switch = kernel.context_switch(victim, target)?;
                let triggered =
                    entry.fault.is_none() && switch.fault.is_some_and(|f| f.pac_failure);
                kernel.reap_task(victim)?;
                kernel.exit_task(target)?;
                self.record_hostile(kernel, op, Some(victim), switch.cycles, triggered);
            }
            HostileOp::ForgedFileOps => {
                let (fd, file_va) = kernel.open_file(FileKind::DevZero)?;
                let kctx = kernel.mem().kernel_ctx(kernel.kernel_table());
                // The raw (unsigned) operations-table address over the
                // signed f_ops field.
                kernel
                    .mem_mut()
                    .write_u64(
                        &kctx,
                        file_va + u64::from(file_struct::F_OPS),
                        FileKind::DevZero.ops_va(),
                    )
                    .expect("file heap mapped");
                let victim = kernel.spawn(&format!("{}-sac", self.name))?;
                let out = kernel.run_user(victim, "stub", 1, 63, fd)?;
                let triggered = out.fault.is_some_and(|f| f.pac_failure);
                kernel.reap_task(victim)?;
                // Close the forged file so its slot goes back to the heap's
                // free list, never under a live fd.
                kernel.close_fd(fd);
                self.record_hostile(kernel, op, Some(victim), out.cycles, triggered);
            }
            HostileOp::ForgedWorkFunc => {
                let work = kernel.init_work("dev_poll")?;
                let kctx = kernel.mem().kernel_ctx(kernel.kernel_table());
                // A raw kernel symbol where the signed callback belongs.
                let raw_func = kernel.symbol("dev_read");
                kernel
                    .mem_mut()
                    .write_u64(&kctx, work + u64::from(work_struct::FUNC), raw_func)
                    .expect("work heap mapped");
                let victim = kernel.spawn(&format!("{}-sac", self.name))?;
                let entry = kernel.run_user(victim, "stub", 1, 172, 0)?;
                let out = kernel.run_work(work)?;
                let triggered = entry.fault.is_none() && out.fault.is_some_and(|f| f.pac_failure);
                kernel.reap_task(victim)?;
                self.record_hostile(kernel, op, Some(victim), out.cycles, triggered);
            }
            HostileOp::UnsignedModule => {
                let cfg = kernel.codegen_config();
                let mut program = Program::new(cfg);
                let mut f = FunctionBuilder::new("evil_entry", cfg).locals(16);
                // Reading a PAuth key register is an R2 violation the §4.1
                // verifier must reject before any byte is mapped.
                f.ins(Insn::Mrs {
                    rt: Reg::x(0),
                    sr: SysReg::ApibKeyLoEl1,
                });
                program.push(f.build());
                let rejected = kernel
                    .load_module(program, &StaticPointerTable::new())
                    .is_err();
                self.record_hostile(kernel, op, None, 0, rejected);
            }
            HostileOp::CodeTamper => {
                let cfg = kernel.codegen_config();
                let mut program = Program::new(cfg);
                let mut f = FunctionBuilder::new("tamper_entry", cfg).locals(16);
                f.ins(Insn::AddImm {
                    rd: Reg::x(0),
                    rn: Reg::x(0),
                    imm12: 1,
                    shifted: false,
                });
                program.push(f.build());
                let handle = kernel.load_module(program, &StaticPointerTable::new())?;
                let entry_va = handle.image.symbol("tamper_entry").expect("just built");
                let first = kernel.kexec(entry_va, &[self.turn])?;
                // Locate the AddImm word and rewrite it with physical
                // access — no MMU, no permission check, the attacker
                // writes RAM behind the hypervisor's back.
                let marker = encode(&Insn::AddImm {
                    rd: Reg::x(0),
                    rn: Reg::x(0),
                    imm12: 1,
                    shifted: false,
                });
                let words = handle.image.to_words();
                let idx = words
                    .iter()
                    .position(|&w| w == marker)
                    .expect("marker instruction present");
                let va = handle.base_va + 4 * idx as u64;
                let entry = kernel
                    .mem()
                    .table(kernel.kernel_table())
                    .lookup(va & !(PAGE_SIZE - 1))
                    .expect("module text mapped");
                let pa = entry.frame.base() + (va & (PAGE_SIZE - 1));
                kernel
                    .mem_mut()
                    .phys_mut()
                    .write_u32(
                        pa,
                        encode(&Insn::AddImm {
                            rd: Reg::x(0),
                            rn: Reg::x(0),
                            imm12: 2,
                            shifted: false,
                        }),
                    )
                    .expect("module text backed");
                let second = kernel.kexec(entry_va, &[self.turn])?;
                // Coherent iff re-execution observes the new bytes
                // bit-exactly (the block engine must have invalidated).
                let coherent = first.fault.is_none()
                    && second.fault.is_none()
                    && first.x0 == self.turn + 1
                    && second.x0 == self.turn + 2;
                kernel.unload_module(handle.base_va)?;
                self.record_hostile(kernel, op, None, 0, coherent);
            }
        }
        Ok(())
    }

    /// Drains the hostile op's event window and scores it against the
    /// declaration: the expected reaction, on the expected victim, and
    /// *nothing else* — collateral failures or kills are mismatches.
    fn record_hostile(
        &mut self,
        kernel: &mut Kernel,
        op: HostileOp,
        victim: Option<Tid>,
        kill_cycles: u64,
        triggered: bool,
    ) {
        self.events.clear();
        kernel.take_events(&mut self.events);
        let mut pac: Option<(Tid, KeyClass)> = None;
        let mut pac_count = 0u32;
        let mut kills: Option<Tid> = None;
        let mut kill_count = 0u32;
        let mut kernel_faults = 0u32;
        let mut rejections = 0u32;
        for ev in &self.events {
            match ev {
                KernelEvent::PacFailure { tid, kind, .. } => {
                    pac_count += 1;
                    pac.get_or_insert((*tid, *kind));
                }
                KernelEvent::TaskKilled { tid } => {
                    kill_count += 1;
                    kills.get_or_insert(*tid);
                }
                KernelEvent::KernelFault { .. } => kernel_faults += 1,
                KernelEvent::ModuleRejected { .. } => rejections += 1,
                _ => {}
            }
        }
        let expected = op.expected();
        let matched = triggered
            && match expected {
                ExpectedOutcome::PacFailure { kind } => {
                    kernel_faults == 0
                        && rejections == 0
                        && pac_count == 1
                        && kill_count == 1
                        && victim.is_some_and(|v| pac == Some((v, kind)) && kills == Some(v))
                }
                ExpectedOutcome::ModuleRejected => {
                    rejections == 1 && pac_count == 0 && kill_count == 0 && kernel_faults == 0
                }
                ExpectedOutcome::CoherentTamper => {
                    rejections == 0 && pac_count == 0 && kill_count == 0 && kernel_faults == 0
                }
            };
        let hostile = &mut self.totals.hostile;
        hostile.attempted += 1;
        hostile.matched += u64::from(matched);
        if matched && matches!(expected, ExpectedOutcome::PacFailure { .. }) {
            hostile.time_to_kill.record(kill_cycles);
        }
        hostile.records.push(HostileRecord {
            op,
            expected,
            matched,
            observed_kind: pac.map(|(_, kind)| kind),
            kill_cycles,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixes::{LmbenchMix, ModuleChurn, ProcessChurn, TenantSwitchMix};
    use camo_kernel::KernelConfig;

    fn booted(cpus: usize, blocks: &[(String, usize, usize)]) -> Kernel {
        let mut cfg = KernelConfig::default();
        cfg.cpus = cpus;
        cfg.user_blocks.extend(blocks.iter().cloned());
        Kernel::boot(cfg).expect("boot")
    }

    fn drive(workload: Box<dyn Workload + Send>, cpus: usize, ops: u64, seed: u64) -> TenantTotals {
        let blocks = workload.user_blocks();
        let mut kernel = booted(cpus, &blocks);
        let mut run = TenantRun::new("t", workload, &mut kernel, seed).expect("setup");
        for _ in 0..ops {
            run.step(&mut kernel, None).expect("benign op");
        }
        run.into_totals()
    }

    #[test]
    fn every_mix_runs_cleanly_and_attributes_work() {
        let mixes: Vec<(Box<dyn Workload + Send>, usize)> = vec![
            (Box::new(LmbenchMix::new()), 1),
            (Box::new(ProcessChurn::new()), 1),
            (Box::new(ModuleChurn::new()), 1),
            (Box::new(TenantSwitchMix::new()), 2),
        ];
        for (workload, cpus) in mixes {
            let name = workload.name().to_string();
            let totals = drive(workload, cpus, 12, 7);
            assert_eq!(totals.ops, 12, "{name}");
            assert_eq!(totals.latency.count(), 12, "{name}");
            assert!(totals.cycles > 0, "{name}");
            assert!(totals.instructions > 0, "{name}");
            assert!(totals.latency.p50() > 0, "{name}");
            assert!(totals.latency.p99() >= totals.latency.p50(), "{name}");
        }
    }

    #[test]
    fn executor_is_deterministic_per_seed() {
        let a = drive(Box::new(TenantSwitchMix::new()), 2, 20, 99);
        let b = drive(Box::new(TenantSwitchMix::new()), 2, 20, 99);
        assert_eq!(a, b, "same seed, same machine, same totals — bit for bit");
        let c = drive(Box::new(TenantSwitchMix::new()), 2, 20, 100);
        assert_ne!(a.cycles, c.cycles, "different seed must reshuffle the mix");
    }

    #[test]
    fn syscall_clamp_caps_the_batch() {
        let mut kernel = booted(1, &[]);
        let mut run =
            TenantRun::new("t", Box::new(LmbenchMix::new()), &mut kernel, 1).expect("setup");
        let report = run.step(&mut kernel, Some(3)).expect("clamped op");
        assert_eq!(report.syscalls, 3, "batch of 16 clamped to the quota");
    }

    #[test]
    fn context_switch_exercises_signed_sp() {
        let workload = Box::new(TenantSwitchMix::new());
        let blocks = workload.user_blocks();
        let mut kernel = booted(1, &blocks);
        let mut run = TenantRun::new("t", workload, &mut kernel, 5).expect("setup");
        for _ in 0..20 {
            run.step(&mut kernel, None).expect("benign op");
        }
        // The mix is switch-heavy: the signed-SP path authenticated.
        assert!(
            run.totals().stats.pac_auth_ok > 0,
            "cpu_switch_to authenticated saved SPs"
        );
    }

    /// A machine hardened for adversarial runs: the §5.4 panic threshold
    /// is lifted so the *gate* (not the panic) judges every attack.
    #[test]
    fn block_engine_is_invisible_to_the_adversarial_plan() {
        let run_arm = |block_engine: bool| {
            let workload: Box<dyn Workload + Send> = Box::new(crate::FuzzMix::new());
            let mut cfg = KernelConfig::default();
            cfg.cpus = 2;
            cfg.pac_panic_threshold = u32::MAX;
            cfg.block_engine = block_engine;
            cfg.user_blocks.extend(workload.user_blocks());
            let mut kernel = Kernel::boot(cfg).expect("boot");
            let mut run = TenantRun::new("adv", workload, &mut kernel, 31).expect("setup");
            for _ in 0..40 {
                run.step(&mut kernel, None).expect("op");
            }
            run.into_totals()
        };
        let on = run_arm(true);
        let off = run_arm(false);
        assert!(on.hostile.attempted > 0, "the mix mounted attacks");
        assert!(
            on.stats.arch_eq(&off.stats),
            "block engine changed architectural counters under attack"
        );
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.instructions, off.instructions);
        assert_eq!(on.latency, off.latency);
        // Same attacks, same outcomes, same failure kinds, same
        // time-to-kill — record by record.
        assert_eq!(
            on.hostile, off.hostile,
            "block engine changed an attack outcome"
        );
    }

    /// The trace tier under the same adversarial contract: hot-chain
    /// promotion, guard side exits and per-site memos must not move an
    /// attack outcome, a latency sample, or an architectural counter.
    #[test]
    fn trace_engine_is_invisible_to_the_adversarial_plan() {
        let run_arm = |trace_engine: bool| {
            let workload: Box<dyn Workload + Send> = Box::new(crate::FuzzMix::new());
            let mut cfg = KernelConfig::default();
            cfg.cpus = 2;
            cfg.pac_panic_threshold = u32::MAX;
            cfg.trace_engine = trace_engine;
            cfg.user_blocks.extend(workload.user_blocks());
            let mut kernel = Kernel::boot(cfg).expect("boot");
            let mut run = TenantRun::new("adv", workload, &mut kernel, 31).expect("setup");
            for _ in 0..40 {
                run.step(&mut kernel, None).expect("op");
            }
            run.into_totals()
        };
        let on = run_arm(true);
        let off = run_arm(false);
        assert!(on.hostile.attempted > 0, "the mix mounted attacks");
        assert!(
            on.stats.arch_eq(&off.stats),
            "trace engine changed architectural counters under attack"
        );
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.instructions, off.instructions);
        assert_eq!(on.latency, off.latency);
        assert_eq!(
            on.hostile, off.hostile,
            "trace engine changed an attack outcome"
        );
        assert!(
            on.stats.trace_hits > 0,
            "the on-arm actually executed traces"
        );
        assert_eq!(off.stats.trace_hits, 0, "tier off is off");
    }

    fn fuzz_booted(cpus: usize, blocks: &[(String, usize, usize)]) -> Kernel {
        let mut cfg = KernelConfig::default();
        cfg.cpus = cpus;
        cfg.pac_panic_threshold = u32::MAX;
        cfg.user_blocks.extend(blocks.iter().cloned());
        Kernel::boot(cfg).expect("boot")
    }

    #[test]
    fn every_hostile_op_matches_its_declaration() {
        let mut kernel = fuzz_booted(2, &[]);
        let mut run =
            TenantRun::new("adv", Box::new(crate::FuzzMix::new()), &mut kernel, 11).expect("setup");
        for op in HostileOp::ALL {
            run.apply(&mut kernel, Op::Hostile(op), None)
                .expect("hostile infrastructure");
        }
        let hostile = &run.totals().hostile;
        assert_eq!(hostile.attempted, HostileOp::ALL.len() as u64);
        for rec in &hostile.records {
            assert!(
                rec.matched,
                "{} must produce exactly {:?}, got kind {:?}",
                rec.op.name(),
                rec.expected,
                rec.observed_kind
            );
            if let ExpectedOutcome::PacFailure { kind } = rec.expected {
                assert_eq!(rec.observed_kind, Some(kind), "{}", rec.op.name());
                assert!(
                    rec.kill_cycles > 0,
                    "{} kill must cost cycles",
                    rec.op.name()
                );
            }
        }
        assert_eq!(hostile.matched, hostile.attempted);
        assert_eq!(hostile.time_to_kill.count(), 4, "four killing attacks");
    }

    #[test]
    fn hostile_ops_match_on_a_single_core_too() {
        let mut kernel = fuzz_booted(1, &[]);
        let mut run =
            TenantRun::new("adv", Box::new(crate::FuzzMix::new()), &mut kernel, 3).expect("setup");
        for op in HostileOp::ALL {
            run.apply(&mut kernel, Op::Hostile(op), None)
                .expect("hostile infrastructure");
        }
        assert_eq!(
            run.totals().hostile.matched,
            HostileOp::ALL.len() as u64,
            "replay-after-migration degrades to same-core replay on 1 cpu"
        );
    }

    #[test]
    fn fuzz_mix_attacks_under_load_with_zero_false_positives() {
        let workload = Box::new(crate::FuzzMix::new());
        let blocks = workload.user_blocks();
        let mut kernel = fuzz_booted(2, &blocks);
        let mut run = TenantRun::new("fuzz", workload, &mut kernel, 9).expect("setup");
        for _ in 0..48 {
            run.step(&mut kernel, None).expect("op");
        }
        let hostile = &run.totals().hostile;
        assert!(hostile.attempted > 0, "the mix must mount attacks");
        assert_eq!(
            hostile.matched, hostile.attempted,
            "every attack produced exactly its declared outcome"
        );
        assert_eq!(
            hostile.benign_pac_events, 0,
            "no §5.4 event leaked into a benign window"
        );
        assert_eq!(
            hostile.benign_ops + hostile.attempted,
            run.totals().ops,
            "every op window is attributed exactly once"
        );
        assert_eq!(hostile.false_positive_rate(), 0.0);
    }

    #[test]
    fn hostile_runs_are_deterministic_per_seed() {
        let totals = |seed: u64| {
            let workload = Box::new(crate::FuzzMix::new());
            let blocks = workload.user_blocks();
            let mut kernel = fuzz_booted(2, &blocks);
            let mut run = TenantRun::new("fuzz", workload, &mut kernel, seed).expect("setup");
            for _ in 0..32 {
                run.step(&mut kernel, None).expect("op");
            }
            run.into_totals()
        };
        assert_eq!(totals(5), totals(5), "bit-identical replay");
        assert_ne!(totals(5).cycles, totals(6).cycles);
    }

    #[test]
    fn module_churn_loads_and_unloads_for_real() {
        let mut kernel = booted(1, &[]);
        let mut run =
            TenantRun::new("t", Box::new(ModuleChurn::new()), &mut kernel, 2).expect("setup");
        for _ in 0..8 {
            run.step(&mut kernel, None).expect("benign op");
        }
        assert!(kernel.modules().is_empty(), "every load was unloaded");
        // The executor drains the event log per op window (that is what
        // makes false-positive attribution exact), so the unload events
        // were consumed — the benign ledger proves the windows were clean.
        assert!(kernel.events().is_empty(), "windows drain the log");
        assert_eq!(run.totals().hostile.benign_pac_events, 0);
    }
}
