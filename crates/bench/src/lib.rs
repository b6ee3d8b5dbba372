//! Measurement helpers behind the benchmark harness and the `reproduce`
//! binary.
//!
//! Every table and figure of the paper's evaluation has a measurement
//! function here; the Criterion benches in `benches/` and the `reproduce`
//! report binary both build on these.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use camo_analysis as analysis;
pub use camo_attacks as attacks;
pub use camo_codegen as codegen;
pub use camo_core as core;
pub use camo_lmbench as lmbench;
pub use camo_smp as smp;
pub use camo_workloads as workloads;

/// Figure 2: per-call overhead of the three modifier schemes.
pub mod fig2 {
    use camo_codegen::{CfiScheme, CodegenConfig, FunctionBuilder, Program};
    use camo_cpu::Cpu;
    use camo_isa::{Insn, Reg};
    use camo_mem::{Memory, S1Attr, KERNEL_BASE};

    /// Result of one scheme's measurement.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct CallCost {
        /// The measured scheme.
        pub scheme: CfiScheme,
        /// Cycles per call of an empty function (call + prologue +
        /// epilogue + return + loop upkeep).
        pub cycles_per_call: f64,
        /// The same at the paper's 1.2 GHz evaluation clock.
        pub ns_per_call: f64,
    }

    /// Builds the Figure-2 call-loop machine for `scheme`: an instrumented
    /// empty function plus an uninstrumented driver loop, loaded and ready
    /// to run. Returns the machine and the driver's entry VA.
    ///
    /// Shared by [`measure`] and the `perfcheck` wall-clock harness.
    ///
    /// # Panics
    ///
    /// Panics if image building fails (a harness bug).
    pub fn build_call_loop(scheme: CfiScheme) -> (Cpu, Memory, u64) {
        let cfg = CodegenConfig {
            scheme,
            protect_pointers: false,
            compat_v80: false,
        };
        let mut program = Program::new(cfg);
        program.push(FunctionBuilder::new("empty", cfg).build());
        // The benchmark loop itself is uninstrumented (it is the
        // measurement harness, like the paper's timer loop).
        let mut driver = FunctionBuilder::new("driver", cfg).naked();
        driver.ins(Insn::mov(Reg::x(19), Reg::LR)); // save LR across the BLs
        driver.ins(Insn::mov(Reg::x(20), Reg::x(0)));
        driver.call("empty"); // loop head at index 2
        driver.ins(Insn::SubImm {
            rd: Reg::x(20),
            rn: Reg::x(20),
            imm12: 1,
            shifted: false,
        });
        driver.ins(Insn::Cbnz {
            rt: Reg::x(20),
            offset: -8,
        });
        driver.ins(Insn::mov(Reg::LR, Reg::x(19)));
        driver.ins(Insn::ret());
        program.push(driver.build());
        let image = program.link(KERNEL_BASE);

        let mut mem = Memory::new();
        let table = mem.new_table();
        let bytes = image.to_bytes();
        for (page, chunk) in bytes.chunks(4096).enumerate() {
            let frame = mem.map_new(
                table,
                KERNEL_BASE + page as u64 * 4096,
                S1Attr::kernel_text(),
            );
            mem.phys_mut().write_bytes(frame.base(), chunk).unwrap();
        }
        // A stack page for the frame records.
        let stack_va = KERNEL_BASE + 0x10_0000;
        mem.map_new(table, stack_va, S1Attr::kernel_data());

        let mut cpu = Cpu::default();
        cpu.state
            .set_sysreg(camo_isa::SysReg::Ttbr0El1, table.raw());
        cpu.state
            .set_sysreg(camo_isa::SysReg::Ttbr1El1, table.raw());
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::IA, camo_qarma::QarmaKey::new(11, 12));
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::IB, camo_qarma::QarmaKey::new(13, 14));
        cpu.state.sp_el1 = stack_va + 4096 - 64;
        let driver_va = image.symbol("driver").expect("driver symbol");
        (cpu, mem, driver_va)
    }

    /// Measures the per-call cost of an empty function under `scheme`
    /// by running a simulated call loop of `iters` iterations.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn measure(scheme: CfiScheme, iters: u64) -> CallCost {
        let (mut cpu, mut mem, driver_va) = build_call_loop(scheme);
        let result = cpu
            .call(&mut mem, driver_va, &[iters], 64 * iters + 1024)
            .expect("benchmark loop runs");
        CallCost {
            scheme,
            cycles_per_call: result.cycles as f64 / iters as f64,
            ns_per_call: result.cycles as f64 / iters as f64 / 1.2,
        }
    }

    /// Measures all four schemes (baseline + the Figure 2 contenders).
    pub fn all(iters: u64) -> Vec<CallCost> {
        [
            CfiScheme::None,
            CfiScheme::SpOnly,
            CfiScheme::Camouflage,
            CfiScheme::Parts,
        ]
        .into_iter()
        .map(|s| measure(s, iters))
        .collect()
    }
}

/// §6.1.1: key-switch cost in cycles per key.
pub mod key_switch {
    use camo_core::Machine;
    use camo_kernel::layout::KEYSETTER_VA;

    /// The two directions of a key switch plus their average.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct KeySwitchCost {
        /// Cycles/key to install the kernel keys via the XOM setter.
        pub install_per_key: f64,
        /// Cycles/key to restore the user keys from `thread_struct`.
        pub restore_per_key: f64,
        /// The average — the paper's "9 cycles per key" quantity.
        pub avg_per_key: f64,
    }

    /// Measures on a freshly booted protected machine, averaging `n` runs.
    ///
    /// # Panics
    ///
    /// Panics if boot or the kernel calls fail.
    pub fn measure(n: u64) -> KeySwitchCost {
        let mut machine = Machine::protected().expect("boot");
        let kernel = machine.kernel_mut();
        let restore_va = kernel.symbol("restore_user_keys");
        let mut install = 0u64;
        let mut restore = 0u64;
        for _ in 0..n {
            install += kernel.kexec(KEYSETTER_VA, &[]).expect("setter").cycles;
            restore += kernel.kexec(restore_va, &[]).expect("restore").cycles;
        }
        let keys = 3.0 * n as f64;
        let install_per_key = install as f64 / keys;
        let restore_per_key = restore as f64 / keys;
        KeySwitchCost {
            install_per_key,
            restore_per_key,
            avg_per_key: (install_per_key + restore_per_key) / 2.0,
        }
    }
}

/// Wall-clock throughput of the simulator itself (the `perfcheck` binary).
///
/// Everything else in this crate measures *simulated cycles* — the paper's
/// quantity, unaffected by the fast-path caches by design. This module
/// measures *host seconds per simulated step*: the thing the software TLB,
/// decoded-instruction cache, warm QARMA schedules and the block and trace
/// engines exist to improve. Every engine knob is read from a
/// [`camo_smp::FleetPlan`], so one plan edit configures a single-machine arm and a
/// fleet arm alike.
pub mod perf {
    use super::fig2;
    use camo_codegen::CfiScheme;
    use camo_core::Machine;
    use camo_cpu::CpuStats;
    use camo_kernel::SYSCALLS;
    use camo_lmbench::workload_config;
    use camo_smp::{FleetPlan, FleetReport};
    use std::time::Instant;

    /// One wall-clock measurement of a single-machine workload.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Sample {
        /// Simulated instructions retired.
        pub instructions: u64,
        /// Simulated cycles consumed (must not depend on any engine knob).
        pub cycles: u64,
        /// Host wall-clock seconds.
        pub wall_secs: f64,
        /// The machine's counters after the run: PAC memo, block and
        /// trace caches, and the rest of [`CpuStats`].
        pub stats: CpuStats,
    }

    impl Sample {
        /// Simulated instructions per host second.
        pub fn steps_per_sec(&self) -> f64 {
            self.instructions as f64 / self.wall_secs.max(1e-9)
        }
    }

    /// A measurement that can be repeated for a best-of estimate: the
    /// wall clock may vary between repeats, the simulation may not.
    pub trait Repeat {
        /// Whether two repeats simulated exactly the same thing.
        fn same_simulation(&self, other: &Self) -> bool;
        /// Whether this repeat ran faster on the host than `other`.
        fn faster_than(&self, other: &Self) -> bool;
    }

    impl Repeat for Sample {
        fn same_simulation(&self, other: &Sample) -> bool {
            (self.instructions, self.cycles) == (other.instructions, other.cycles)
        }

        fn faster_than(&self, other: &Sample) -> bool {
            self.steps_per_sec() > other.steps_per_sec()
        }
    }

    impl Repeat for FleetReport {
        fn same_simulation(&self, other: &FleetReport) -> bool {
            self.simulation_identical(other)
        }

        fn faster_than(&self, other: &FleetReport) -> bool {
            self.wall_secs < other.wall_secs
        }
    }

    /// The faster of two repeats (`best` on a tie).
    ///
    /// # Panics
    ///
    /// Panics if the repeats disagree on the simulation — that is a
    /// determinism bug, not host noise.
    pub fn faster<T: Repeat>(best: T, next: T) -> T {
        assert!(
            next.same_simulation(&best),
            "simulation must be deterministic across repeats"
        );
        if next.faster_than(&best) {
            next
        } else {
            best
        }
    }

    /// Best of `n` repeats of `run` (see [`faster`]). Shared CI hosts are
    /// noisy, and the minimum wall time is the least contaminated
    /// estimate.
    ///
    /// # Panics
    ///
    /// Panics if two repeats disagree on the simulation.
    pub fn best_of<T: Repeat>(n: usize, mut run: impl FnMut() -> T) -> T {
        let first = run();
        (1..n).fold(first, |best, _| faster(best, run()))
    }

    /// The Figure-2 call loop (Camouflage scheme) run for `iters`
    /// iterations on one bare CPU, under `plan`'s fast-path cache,
    /// block-engine and trace-engine knobs.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn hot_loop(iters: u64, plan: &FleetPlan) -> Sample {
        let (mut cpu, mut mem, driver_va) = fig2::build_call_loop(CfiScheme::Camouflage);
        cpu.set_block_engine(plan.block_engine);
        cpu.set_trace_engine(plan.trace_engine);
        cpu.set_caching(plan.fast_caches);
        mem.set_caching(plan.fast_caches);
        let start = Instant::now();
        let result = cpu
            .call(&mut mem, driver_va, &[iters], 64 * iters + 1024)
            .expect("benchmark loop runs");
        Sample {
            instructions: result.instructions,
            cycles: result.cycles,
            wall_secs: start.elapsed().as_secs_f64(),
            stats: cpu.stats(),
        }
    }

    /// The lmbench syscall mix (every modeled syscall, `reps` rounds each)
    /// on one machine booted from `plan`'s seed, protection level and
    /// engine knobs.
    ///
    /// # Panics
    ///
    /// Panics if boot or a syscall fails (a harness bug).
    pub fn syscall_mix(reps: u64, plan: &FleetPlan) -> Sample {
        let mut cfg = workload_config(plan.protection);
        cfg.fast_caches = plan.fast_caches;
        cfg.block_engine = plan.block_engine;
        cfg.trace_engine = plan.trace_engine;
        cfg.seed = plan.seed;
        let mut machine = Machine::with_config(cfg).expect("boot");
        let kernel = machine.kernel_mut();
        let tid = kernel.current_task().tid;
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let start = Instant::now();
        for spec in SYSCALLS {
            let out = kernel
                .run_user(tid, "stub", reps, spec.nr, 3)
                .expect("syscall mix runs");
            instructions += out.instructions;
            cycles += out.cycles;
        }
        Sample {
            instructions,
            cycles,
            wall_secs: start.elapsed().as_secs_f64(),
            stats: machine.kernel().cpu().stats(),
        }
    }
}

/// Fleet measurements and the identity predicates every fleet gate uses.
///
/// The standard tenant mix — lmbench traffic, a fork/exec churn storm,
/// module load/unload churn, and a context-switch-heavy tenant — served
/// across shards by [`camo_smp::FleetDriver`], measured in both execution
/// modes and cross-checked bit for bit. A [`fleet::FleetAb`] runs one plan under
/// two plan edits: that is how `perfcheck` toggles the block engine, the
/// trace tier and the telemetry plane.
pub mod fleet {
    use super::perf::{faster, Repeat};
    use camo_cpu::CpuStats;
    use camo_smp::{FleetDriver, FleetPlan, FleetReport, TenantReport};
    use camo_workloads::TenantSpec;

    /// The standard four-tenant mix (`--smoke` shrinks it to two tenants
    /// for CI runners: the lmbench baseline plus the switch-heavy mix).
    pub fn standard_tenants(smoke: bool) -> Vec<TenantSpec> {
        if smoke {
            vec![
                TenantSpec::lmbench("web", 1_600),
                TenantSpec::tenant_mix("batch", 120),
            ]
        } else {
            vec![
                TenantSpec::lmbench("web", 8_000),
                TenantSpec::process_churn("build-farm", 240),
                TenantSpec::module_churn("driver-ci", 160),
                TenantSpec::tenant_mix("batch", 400),
            ]
        }
    }

    /// One fleet measurement: the same plan in both execution modes.
    #[derive(Debug)]
    pub struct FleetMeasurement {
        /// The thread-pool run (wall scaling on this host).
        pub parallel: FleetReport,
        /// The back-to-back run (isolated per-shard capacity).
        pub sequential: FleetReport,
        /// Whether both modes agreed bit for bit on every simulated
        /// quantity — totals, per-tenant stats, latency histograms.
        pub identical: bool,
    }

    /// Runs `plan` parallel and sequential, and cross-checks the
    /// simulated outcome.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (the executor propagates only
    /// infrastructure errors; benign traffic must not fault, and attack
    /// outcomes are recorded, not thrown).
    pub fn measure(plan: &FleetPlan) -> FleetMeasurement {
        let parallel = FleetDriver::drive(plan).expect("parallel fleet runs");
        let sequential = FleetDriver::drive_sequential(plan).expect("sequential fleet runs");
        let identical = parallel.simulation_identical(&sequential);
        FleetMeasurement {
            parallel,
            sequential,
            identical,
        }
    }

    impl Repeat for FleetMeasurement {
        fn same_simulation(&self, other: &FleetMeasurement) -> bool {
            self.parallel.simulation_identical(&other.parallel)
                && self.sequential.simulation_identical(&other.sequential)
        }

        /// Judged on isolated-shard capacity from the sequential run,
        /// which host contention cannot inflate.
        fn faster_than(&self, other: &FleetMeasurement) -> bool {
            self.sequential.capacity_steps_per_sec() > other.sequential.capacity_steps_per_sec()
        }
    }

    /// One plan measured under two plan edits; each arm runs parallel
    /// *and* sequential, so the `simulation_identical` gate applies per
    /// arm.
    #[derive(Debug)]
    pub struct FleetAb {
        /// The `on` edit's measurement.
        pub on: FleetMeasurement,
        /// The `off` edit's measurement.
        pub off: FleetMeasurement,
    }

    impl FleetAb {
        /// Runs `plan` edited by `off`, then `plan` edited by `on` (off
        /// first, so the on arm cannot benefit from a warmer host).
        ///
        /// # Panics
        ///
        /// Panics if a shard fails.
        pub fn measure(
            plan: &FleetPlan,
            off: fn(&mut FleetPlan),
            on: fn(&mut FleetPlan),
        ) -> FleetAb {
            let arm = |edit: fn(&mut FleetPlan)| {
                let mut plan = plan.clone();
                edit(&mut plan);
                measure(&plan)
            };
            let off = arm(off);
            let on = arm(on);
            FleetAb { on, off }
        }

        /// Best of `repeats` A/B runs: every repeat runs off then on, and
        /// each arm keeps its fastest repeat ([`faster`]).
        ///
        /// # Panics
        ///
        /// Panics if two repeats of an arm disagree on the simulation.
        pub fn best_of(repeats: usize, mut run: impl FnMut() -> FleetAb) -> FleetAb {
            let first = run();
            (1..repeats).fold(first, |best, _| {
                let next = run();
                FleetAb {
                    on: faster(best.on, next.on),
                    off: faster(best.off, next.off),
                }
            })
        }

        /// [`arch_identical`] across the two arms' parallel runs.
        pub fn arch_identical(&self) -> bool {
            arch_identical(&self.on.parallel, &self.off.parallel)
        }

        /// On-arm capacity over off-arm capacity (isolated-shard rates
        /// from the sequential runs — host-contention free).
        pub fn speedup(&self) -> f64 {
            self.on.sequential.capacity_steps_per_sec()
                / self.off.sequential.capacity_steps_per_sec().max(1e-9)
        }
    }

    /// Whether two fleet reports are architecturally identical:
    /// everything the simulation defines except the cache-observability
    /// counters, which legitimately differ across engines. That is the
    /// totals, the merged stats under [`CpuStats::arch_eq`], and every
    /// tenant under [`tenant_arch_identical`].
    pub fn arch_identical(a: &FleetReport, b: &FleetReport) -> bool {
        a.syscalls == b.syscalls
            && a.instructions == b.instructions
            && a.cycles == b.cycles
            && a.stats.arch_eq(&b.stats)
            && a.tenants.len() == b.tenants.len()
            && a.tenants
                .iter()
                .zip(&b.tenants)
                .all(|(x, y)| tenant_arch_identical(x, y))
    }

    /// The per-tenant half of [`arch_identical`]: ops, syscalls,
    /// instructions, cycles, [`CpuStats::arch_eq`], the latency histogram
    /// and the hostile ledger (records, time-to-kill, counts).
    pub fn tenant_arch_identical(a: &TenantReport, b: &TenantReport) -> bool {
        a.name == b.name
            && a.totals.ops == b.totals.ops
            && a.totals.syscalls == b.totals.syscalls
            && a.totals.instructions == b.totals.instructions
            && a.totals.cycles == b.totals.cycles
            && a.totals.stats.arch_eq(&b.totals.stats)
            && a.totals.latency == b.totals.latency
            && a.totals.hostile == b.totals.hostile
    }

    /// Whether two fleet reports are **bit-identical** in everything the
    /// simulation defines: totals, all 22 stat counters (full equality,
    /// not [`CpuStats::arch_eq`]), and per-tenant totals including the
    /// latency histograms. The telemetry A/B gates on it: observing the
    /// run must not perturb even an observability counter.
    pub fn fully_identical(a: &FleetReport, b: &FleetReport) -> bool {
        a.syscalls == b.syscalls
            && a.instructions == b.instructions
            && a.cycles == b.cycles
            && a.stats == b.stats
            && a.tenants.len() == b.tenants.len()
            && a.tenants
                .iter()
                .zip(&b.tenants)
                .all(|(x, y)| x.name == y.name && x.totals == y.totals)
    }

    /// One tenant's telemetry-series verdict.
    #[derive(Debug, Clone)]
    pub struct SeriesCheck {
        /// Tenant name.
        pub name: String,
        /// Windows in the tenant's time series.
        pub windows: usize,
        /// Whether the window sums reproduce the end-of-run totals
        /// (ops, syscalls, cycles, and every stat counter) exactly.
        pub sums_exact: bool,
    }

    /// Per-tenant lossless-accounting checks: sums every tenant's
    /// series and compares it against the end-of-run totals.
    pub fn series_checks(report: &FleetReport) -> Vec<SeriesCheck> {
        report
            .tenants
            .iter()
            .map(|t| {
                let mut stats = CpuStats::default();
                let (mut ops, mut syscalls, mut cycles) = (0u64, 0u64, 0u64);
                for w in &t.series {
                    ops += w.ops;
                    syscalls += w.syscalls;
                    cycles += w.cycles;
                    stats.merge(&w.stats);
                }
                SeriesCheck {
                    name: t.name.clone(),
                    windows: t.series.len(),
                    sums_exact: ops == t.totals.ops
                        && syscalls == t.totals.syscalls
                        && cycles == t.totals.cycles
                        && stats == t.totals.stats,
                }
            })
            .collect()
    }

    /// Whether every tenant recorded a non-empty series that sums exactly
    /// to its totals.
    pub fn series_complete(checks: &[SeriesCheck]) -> bool {
        checks.iter().all(|c| c.windows > 0 && c.sums_exact)
    }
}

/// The adversarial traffic plane (`perfcheck --fuzz`, `BENCH_6.json`).
///
/// Seeded fuzz tenants mount the [`camo_workloads::HostileOp`] attacks —
/// forged and replayed signed stack pointers, forged `f_ops`/work-callback
/// pointers, module-signing violations, direct physical writes to
/// translated code — *under load*, interleaved with benign tenants on the
/// same machines. Three property families are gated:
///
/// 1. **Attribution**: every hostile op produced exactly its declared
///    expected outcome (the right [`camo_cpu::pac::KeyClass`] failure on
///    the right sacrificial task, a module rejection, or coherent tamper
///    visibility) and nothing else.
/// 2. **Blast radius**: no benign tenant saw a §5.4 failure-policy event
///    in any of its op windows (false-positive rate 0), and each benign
///    tenant's simulated totals — ops, syscalls, instructions, cycles,
///    latency histogram, architectural counters — are bit-identical to an
///    isolated-baseline run of the same tenant alone on an identically
///    seeded fleet.
/// 3. **Engine invariance**: the whole adversarial plan produces
///    architecturally identical results with the translation engine on
///    and off (the on-arm runs both tiers — blocks *and* traces, the
///    production default), including the per-op hostile ledgers.
///
/// The §5.4 measurements the paper motivates — false-positive rate and
/// time-to-kill (simulated cycles from attack trigger to task kill) — are
/// reported alongside the gates.
pub mod fuzz {
    use super::fleet::{self, FleetMeasurement};
    use camo_smp::{FleetPlan, TenantReport};
    use camo_workloads::{HostileOp, HostileTotals, TenantSpec};

    /// The benign side of the adversarial plan. Placed *first* in the
    /// plan so these tenants' long-lived tasks are spawned (and
    /// scheduler-placed) before any fuzz tenant exists — the precondition
    /// for the isolated-baseline identity gate.
    pub fn benign_tenants(smoke: bool) -> Vec<TenantSpec> {
        if smoke {
            vec![
                TenantSpec::lmbench("web", 800),
                TenantSpec::tenant_mix("batch", 60),
            ]
        } else {
            vec![
                TenantSpec::lmbench("web", 4_000),
                TenantSpec::tenant_mix("batch", 240),
            ]
        }
    }

    /// The fuzz tenants, always appended *after* the benign tenants.
    pub fn fuzz_tenants(smoke: bool) -> Vec<TenantSpec> {
        let ops = if smoke { 60 } else { 320 };
        vec![
            TenantSpec::fuzz("fuzz-0", ops),
            TenantSpec::fuzz("fuzz-1", ops),
        ]
    }

    /// One engine arm: the adversarial plan plus the per-benign-tenant
    /// isolated baselines.
    #[derive(Debug)]
    pub struct FuzzArm {
        /// The mixed (benign + fuzz) plan, both execution modes.
        pub mixed: FleetMeasurement,
        /// Per benign tenant: its name, and whether its service in the
        /// mixed plan is [`fleet::tenant_arch_identical`] to its service
        /// alone on an identically seeded fleet.
        pub isolation: Vec<(String, bool)>,
    }

    impl FuzzArm {
        /// The merged adversarial ledger of every fuzz tenant.
        pub fn ledger(&self) -> HostileTotals {
            let mut total = HostileTotals::default();
            for t in &self.mixed.parallel.tenants {
                total.merge(&t.totals.hostile);
            }
            total
        }

        /// The arm's four hard gates, by name:
        /// - `all_hostile_matched`: every hostile op matched its
        ///   declaration, and at least one was mounted;
        /// - `zero_false_positives`: zero §5.4 failure-policy events in
        ///   benign windows, across every tenant (fuzz tenants' benign
        ///   windows included);
        /// - `benign_isolated`: every benign tenant bit-identical to its
        ///   isolated baseline;
        /// - `parallel_sequential_identical`: the mixed plan's two
        ///   execution modes agree.
        pub fn gates(&self) -> [(&'static str, bool); 4] {
            let ledger = self.ledger();
            [
                (
                    "all_hostile_matched",
                    ledger.attempted > 0 && ledger.matched == ledger.attempted,
                ),
                ("zero_false_positives", ledger.benign_pac_events == 0),
                (
                    "benign_isolated",
                    !self.isolation.is_empty() && self.isolation.iter().all(|(_, ok)| *ok),
                ),
                ("parallel_sequential_identical", self.mixed.identical),
            ]
        }

        /// Per-op attribution table in [`HostileOp::ALL`] order:
        /// `(name, attempted, matched)`.
        pub fn per_op(&self) -> Vec<(&'static str, u64, u64)> {
            let ledger = self.ledger();
            HostileOp::ALL
                .iter()
                .map(|op| {
                    let recs = ledger.records.iter().filter(|r| r.op == *op);
                    let attempted = recs.clone().count() as u64;
                    let matched = recs.filter(|r| r.matched).count() as u64;
                    (op.name(), attempted, matched)
                })
                .collect()
        }
    }

    /// Runs one arm: the mixed adversarial plan, then each benign tenant
    /// alone on an identically seeded fleet, comparing the tenant's
    /// report architecturally.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails.
    pub fn measure_arm(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        smoke: bool,
        block_engine: bool,
    ) -> FuzzArm {
        // The §5.4 panic threshold is lifted: the gate, not the panic,
        // judges every attack — a fuzz campaign necessarily exceeds any
        // sane production threshold.
        let run_plan = |tenants| {
            let mut plan = FleetPlan::new(shards, seed, tenants);
            plan.cpus_per_shard = cpus_per_shard;
            plan.block_engine = block_engine;
            plan.pac_panic_threshold = Some(u32::MAX);
            fleet::measure(&plan)
        };
        let benign = benign_tenants(smoke);
        let mixed = run_plan([benign.clone(), fuzz_tenants(smoke)].concat());
        let isolation = benign
            .into_iter()
            .map(|spec| {
                let name = spec.name.clone();
                let alone = run_plan(vec![spec]);
                let identical = alone.identical
                    && fleet::tenant_arch_identical(served(&mixed, &name), served(&alone, &name));
                (name, identical)
            })
            .collect();
        FuzzArm { mixed, isolation }
    }

    fn served<'a>(m: &'a FleetMeasurement, name: &str) -> &'a TenantReport {
        m.parallel
            .tenants
            .iter()
            .find(|t| t.name == name)
            .expect("benign tenant served")
    }

    /// The full BENCH_6 measurement: both block-engine arms.
    #[derive(Debug)]
    pub struct FuzzAb {
        /// Block engine on.
        pub on: FuzzArm,
        /// Block engine off.
        pub off: FuzzArm,
    }

    impl FuzzAb {
        /// The two arms agree on every architectural quantity, hostile
        /// ledgers included ([`fleet::arch_identical`]): the block engine
        /// must not change a single attack outcome.
        pub fn arch_identical(&self) -> bool {
            fleet::arch_identical(&self.on.mixed.parallel, &self.off.mixed.parallel)
        }

        /// Every gate of both arms plus [`FuzzAb::arch_identical`].
        pub fn passes(&self) -> bool {
            [&self.on, &self.off]
                .iter()
                .all(|arm| arm.gates().iter().all(|(_, ok)| *ok))
                && self.arch_identical()
        }
    }

    /// Runs both arms (engine off first, mirroring the other A/Bs).
    ///
    /// # Panics
    ///
    /// Panics if a shard fails.
    pub fn measure(shards: usize, cpus_per_shard: usize, seed: u64, smoke: bool) -> FuzzAb {
        let off = measure_arm(shards, cpus_per_shard, seed, smoke, false);
        let on = measure_arm(shards, cpus_per_shard, seed, smoke, true);
        FuzzAb { on, off }
    }
}

/// The fleet scheduler benchmark (`perfcheck --fleet-steal`,
/// `BENCH_9.json`).
///
/// The BENCH_4 tenant mix scaled out to 64 weighted, partly cycle-budgeted
/// tenants on 8 single-core shards (16 on 4 with `--smoke`), served by the
/// shard-claim pool at worker counts 1, 2, N and 2N, and by the pool at
/// one worker per shard (the `"1:1"` baseline). Every run must be
/// `simulation_identical` to the sequential oracle, and the pooled runs to
/// each other; the telemetry series must sum to the totals at every
/// worker count; and the plan-deterministic p99 op latency has a fixed
/// ceiling. The pool's wall speedup over 1:1 gates only on hosts with 4+
/// cores, below which the two converge by construction.
pub mod steal {
    use super::perf::best_of;
    use camo_smp::{FleetDriver, FleetPlan, FleetReport};
    use camo_workloads::TenantSpec;

    /// Shard counts, full and `--smoke`. Dense-tenant plans pin
    /// `cpus_per_shard` to 1: every tenant lives on every shard, and the
    /// kernel's task-stack region bounds the per-machine task population.
    pub const SHARDS: [usize; 2] = [8, 4];

    /// The dense tenant mix: 64 tenants (16 with `smoke`), mostly
    /// single-task lmbench traffic with a capped sprinkling of
    /// multi-task churn tenants, weights rotating 1–4 and sporadic
    /// per-sweep cycle budgets so the weighted-fair and throttling paths
    /// are all exercised at every worker count.
    pub fn dense_tenants(smoke: bool) -> Vec<TenantSpec> {
        let count = if smoke { 16 } else { 64 };
        let mut tenants = Vec::with_capacity(count);
        for i in 0..count {
            let name = format!("tenant-{i:02}");
            let mut spec = match i % 16 {
                // Multi-task tenants are capped (3 per 16) so every
                // machine stays inside the kernel's fixed stack-stride
                // region even at 64 tenants.
                3 => TenantSpec::process_churn(name, 4),
                7 => TenantSpec::module_churn(name, 3),
                11 => TenantSpec::tenant_mix(name, 5),
                _ => TenantSpec::lmbench(name, if smoke { 60 } else { 120 }),
            };
            spec = spec.with_weight(1 + (i as u32 % 4));
            if i % 5 == 4 {
                spec = spec.with_cycle_budget(2_000 + 500 * (i as u64 % 4));
            }
            tenants.push(spec);
        }
        tenants
    }

    /// One full BENCH_9 measurement.
    #[derive(Debug)]
    pub struct StealMeasurement {
        /// The dense plan that was run (telemetry on).
        pub plan: FleetPlan,
        /// The sequential oracle.
        pub sequential: FleetReport,
        /// The worker counts exercised — 1, 2, N and 2N, deduplicated and
        /// sorted — aligned with `pooled`.
        pub counts: Vec<usize>,
        /// One pooled run per worker count (wall best-of-`repeats`).
        pub pooled: Vec<FleetReport>,
        /// The pool at one worker per shard — the wall-clock baseline the
        /// default pool is judged against (best-of-`repeats`).
        pub threaded: FleetReport,
    }

    impl StealMeasurement {
        /// Whether the pooled runs are pairwise identical across worker
        /// counts.
        pub fn worker_invariant(&self) -> bool {
            self.pooled
                .windows(2)
                .all(|w| w[0].simulation_identical(&w[1]))
        }

        /// The pooled run at the host's default worker count N.
        pub fn pooled_default(&self) -> &FleetReport {
            let n = FleetDriver::default_workers(&self.plan);
            &self.pooled[self
                .counts
                .iter()
                .position(|&w| w == n)
                .expect("N is measured")]
        }

        /// Wall speedup of the default pooled run over the 1:1
        /// one-worker-per-shard baseline. Host-dependent: meaningful (and
        /// gated) only on hosts with at least 4 cores.
        pub fn wall_speedup(&self) -> f64 {
            self.threaded.wall_secs / self.pooled_default().wall_secs.max(1e-9)
        }

        /// Fleet-wide p99 simulated-cycle op latency: the worst tenant's
        /// p99. Deterministic in the plan, so it gates on every host.
        pub fn p99(&self) -> u64 {
            self.sequential
                .tenants
                .iter()
                .map(|t| t.totals.latency.p99())
                .max()
                .unwrap_or(0)
        }
    }

    /// Runs the full measurement: the sequential oracle once, one pooled
    /// run per worker count, and the 1:1 baseline; the default-count
    /// pooled run and the baseline are wall best-of-`repeats`
    /// ([`super::perf::best_of`], every repeat checked
    /// `simulation_identical` to the first).
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault) or a
    /// repeat disagrees on the simulation (a determinism bug).
    pub fn measure(shards: usize, seed: u64, smoke: bool, repeats: usize) -> StealMeasurement {
        let mut plan = FleetPlan::new(shards, seed, dense_tenants(smoke));
        plan.cpus_per_shard = 1;
        // Telemetry on: gate 3 needs the series recorded at every worker
        // count.
        plan.telemetry = true;
        let sequential = FleetDriver::drive_sequential(&plan).expect("sequential oracle runs");
        // The worker counts the invariance gate perturbs: 1, 2, N, 2N
        // (N = the pool's default on this host).
        let n = FleetDriver::default_workers(&plan);
        let mut counts = vec![1, 2, n, 2 * n];
        counts.sort_unstable();
        counts.dedup();
        let pooled = counts
            .iter()
            .map(|&w| {
                // Only the default count's wall time feeds the speedup
                // gate; re-measuring every count would multiply runtime
                // for numbers nothing consumes.
                let wall_repeats = if w == n { repeats } else { 1 };
                let pinned = FleetPlan {
                    workers: Some(w),
                    ..plan.clone()
                };
                best_of(wall_repeats, || {
                    FleetDriver::drive(&pinned).expect("pooled fleet runs")
                })
            })
            .collect();
        let one_per_shard = FleetPlan {
            workers: Some(shards),
            ..plan.clone()
        };
        let threaded = best_of(repeats, || {
            FleetDriver::drive(&one_per_shard).expect("1:1 baseline runs")
        });
        StealMeasurement {
            plan,
            sequential,
            counts,
            pooled,
            threaded,
        }
    }
}

/// Durable perf-regression history (`perfcheck --all` appends one row to
/// `BENCH_HISTORY.jsonl`; `perfcheck --check-history` judges the newest
/// row against the last comparable one).
///
/// A row is one flat JSON object per line: a schema version, a host
/// fingerprint (`os-arch-cores`), the seed and smoke flag, and every
/// bench family's headline numbers. Rows are only ever compared within
/// the same `(host_class, smoke)` pair — absolute throughput on a
/// different host says nothing about a regression. Only keys ending in
/// `_speedup` or `_steps_per_sec` (higher is better) are judged; other
/// headlines (e.g. the BENCH_8 drain overhead) ride along for the
/// record.
pub mod history {
    use std::path::Path;

    /// Row schema version, bumped on incompatible field changes.
    pub const SCHEMA: u32 = 1;

    /// Default regression threshold: fail when a comparable headline
    /// drops more than this fraction below the baseline row.
    pub const REGRESSION_THRESHOLD: f64 = 0.15;

    /// One appended history row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HistoryRow {
        /// Schema version ([`SCHEMA`] when written by this build).
        pub schema: u32,
        /// Seconds since the Unix epoch at append time.
        pub timestamp_secs: u64,
        /// Host fingerprint rows are compared within ([`host_class`]).
        pub host_class: String,
        /// Logical cores at append time (also baked into `host_class`).
        pub host_cores: usize,
        /// The `--seed` the row was measured with.
        pub seed: u64,
        /// Whether the row came from a `--smoke` run (never compared
        /// against full-size rows).
        pub smoke: bool,
        /// Headline numbers per bench family, in emission order.
        pub headlines: Vec<(String, f64)>,
    }

    /// The host fingerprint: `os-arch-<cores>c`, e.g. `linux-x86_64-8c`.
    pub fn host_class() -> String {
        format!(
            "{}-{}-{}c",
            std::env::consts::OS,
            std::env::consts::ARCH,
            host_cores()
        )
    }

    /// Logical cores, 1 if the host will not say.
    pub fn host_cores() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    impl HistoryRow {
        /// A row stamped with this host's fingerprint and the current
        /// wall clock.
        pub fn new(seed: u64, smoke: bool, headlines: Vec<(String, f64)>) -> HistoryRow {
            let timestamp_secs = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            HistoryRow {
                schema: SCHEMA,
                timestamp_secs,
                host_class: host_class(),
                host_cores: host_cores(),
                seed,
                smoke,
                headlines,
            }
        }

        /// The row as one flat JSON line (no trailing newline).
        /// Headline keys sit at the top level, so the format stays a
        /// single flat object and [`HistoryRow::parse`] needs no
        /// nesting.
        pub fn to_json_line(&self) -> String {
            let mut line = format!(
                "{{\"schema\": {}, \"timestamp_secs\": {}, \"host_class\": \"{}\", \
                 \"host_cores\": {}, \"seed\": {}, \"smoke\": {}",
                self.schema,
                self.timestamp_secs,
                self.host_class,
                self.host_cores,
                self.seed,
                self.smoke
            );
            for (key, value) in &self.headlines {
                line.push_str(&format!(", \"{key}\": {value}"));
            }
            line.push('}');
            line
        }

        /// Parses one line written by [`HistoryRow::to_json_line`].
        /// Deliberately minimal: the values this module writes contain
        /// no commas, escapes, or nesting, so splitting on `, ` pairs
        /// is exact. Unknown numeric keys become headlines, which is
        /// what makes old readers forward-compatible with new bench
        /// families.
        pub fn parse(line: &str) -> Option<HistoryRow> {
            let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
            let mut row = HistoryRow {
                schema: 0,
                timestamp_secs: 0,
                host_class: String::new(),
                host_cores: 0,
                seed: 0,
                smoke: false,
                headlines: Vec::new(),
            };
            for pair in body.split(',') {
                let (key, value) = pair.split_once(':')?;
                let key = key.trim().trim_matches('"');
                let value = value.trim();
                match key {
                    "schema" => row.schema = value.parse().ok()?,
                    "timestamp_secs" => row.timestamp_secs = value.parse().ok()?,
                    "host_class" => row.host_class = value.trim_matches('"').to_string(),
                    "host_cores" => row.host_cores = value.parse().ok()?,
                    "seed" => row.seed = value.parse().ok()?,
                    "smoke" => row.smoke = value == "true",
                    _ => row.headlines.push((key.to_string(), value.parse().ok()?)),
                }
            }
            (row.schema != 0).then_some(row)
        }

        /// The headline value for `key`, if the row carries it.
        pub fn headline(&self, key: &str) -> Option<f64> {
            self.headlines
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| *v)
        }
    }

    /// Appends one row to the JSONL file, creating it if absent.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be opened or
    /// written.
    pub fn append(path: &Path, row: &HistoryRow) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", row.to_json_line())
    }

    /// Loads every parseable row, oldest first. A missing file is an
    /// empty history, not an error; unparseable lines are skipped (a
    /// truncated last line must not brick the checker).
    pub fn load(path: &Path) -> Vec<HistoryRow> {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter_map(HistoryRow::parse)
            .collect()
    }

    /// The newest row strictly before `current` (by position) with the
    /// same host class and smoke flag — the row regressions are judged
    /// against.
    pub fn find_baseline<'a>(
        earlier: &'a [HistoryRow],
        current: &HistoryRow,
    ) -> Option<&'a HistoryRow> {
        earlier
            .iter()
            .rev()
            .find(|row| row.host_class == current.host_class && row.smoke == current.smoke)
    }

    /// Whether a headline key participates in regression judgement
    /// (higher-is-better rates and ratios only).
    pub fn comparable(key: &str) -> bool {
        key.ends_with("_speedup") || key.ends_with("_steps_per_sec")
    }

    /// One judged drop: `current < (1 − threshold) × baseline`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// The headline key that dropped.
        pub key: String,
        /// The baseline row's value.
        pub baseline: f64,
        /// The current row's value.
        pub current: f64,
    }

    impl Regression {
        /// Fractional drop below baseline (0.2 = lost 20%).
        pub fn drop_frac(&self) -> f64 {
            1.0 - self.current / self.baseline.max(1e-12)
        }
    }

    /// Every comparable headline present in both rows that regressed
    /// past `threshold`. Keys only one row carries are skipped: a new
    /// bench family must not fail the first run that adds it.
    pub fn regressions(
        baseline: &HistoryRow,
        current: &HistoryRow,
        threshold: f64,
    ) -> Vec<Regression> {
        current
            .headlines
            .iter()
            .filter(|(key, _)| comparable(key))
            .filter_map(|(key, now)| {
                let now = *now;
                let base = baseline.headline(key)?;
                (now < (1.0 - threshold) * base).then(|| Regression {
                    key: key.clone(),
                    baseline: base,
                    current: now,
                })
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn row(host_class: &str, smoke: bool, headlines: &[(&str, f64)]) -> HistoryRow {
            HistoryRow {
                schema: SCHEMA,
                timestamp_secs: 1_700_000_000,
                host_class: host_class.to_string(),
                host_cores: 8,
                seed: 0xCAF0_0D5E,
                smoke,
                headlines: headlines.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            }
        }

        #[test]
        fn row_roundtrips_through_its_json_line() {
            let original = HistoryRow::new(
                0xCAF0_0D5E,
                true,
                vec![
                    ("bench2_hot_loop_speedup".to_string(), 10.53),
                    ("bench4_capacity_steps_per_sec".to_string(), 1.25e6),
                    ("bench8_drain_overhead".to_string(), 0.004),
                ],
            );
            let parsed = HistoryRow::parse(&original.to_json_line()).expect("parses");
            assert_eq!(parsed, original);
        }

        #[test]
        fn synthetic_regression_over_threshold_fails() {
            let base = row("linux-x86_64-8c", true, &[("bench5_fleet_speedup", 10.0)]);
            let bad = row("linux-x86_64-8c", true, &[("bench5_fleet_speedup", 8.0)]);
            let found = regressions(&base, &bad, REGRESSION_THRESHOLD);
            assert_eq!(found.len(), 1, "a 20% drop must be flagged");
            assert_eq!(found[0].key, "bench5_fleet_speedup");
            assert!(found[0].drop_frac() > 0.19 && found[0].drop_frac() < 0.21);
        }

        #[test]
        fn drop_within_threshold_passes() {
            let base = row("linux-x86_64-8c", true, &[("bench5_fleet_speedup", 10.0)]);
            let ok = row("linux-x86_64-8c", true, &[("bench5_fleet_speedup", 8.9)]);
            assert!(
                regressions(&base, &ok, REGRESSION_THRESHOLD).is_empty(),
                "an 11% drop is within the 15% threshold"
            );
        }

        #[test]
        fn non_comparable_keys_and_new_families_are_not_judged() {
            // Overhead is lower-is-better: tripling it must not trip the
            // higher-is-better comparison. A brand-new family key with
            // no baseline must not fail its first appearance either.
            let base = row("linux-x86_64-8c", true, &[("bench8_drain_overhead", 0.001)]);
            let cur = row(
                "linux-x86_64-8c",
                true,
                &[
                    ("bench8_drain_overhead", 0.003),
                    ("bench9_new_family_speedup", 1.0),
                ],
            );
            assert!(regressions(&base, &cur, REGRESSION_THRESHOLD).is_empty());
        }

        #[test]
        fn baseline_matching_respects_host_class_and_smoke() {
            let rows = vec![
                row("linux-x86_64-8c", true, &[]),
                row("linux-aarch64-4c", true, &[]),
                row("linux-x86_64-8c", false, &[]),
            ];
            let current = row("linux-x86_64-8c", true, &[]);
            let baseline = find_baseline(&rows, &current).expect("matching row exists");
            assert_eq!(baseline, &rows[0], "other hosts and full runs skipped");
            let alien = row("darwin-aarch64-10c", true, &[]);
            assert!(find_baseline(&rows, &alien).is_none());
        }

        #[test]
        fn append_and_load_roundtrip_with_corrupt_tail() {
            let dir = std::env::temp_dir().join(format!(
                "camo_history_test_{}_{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join("BENCH_HISTORY.jsonl");
            assert!(load(&path).is_empty(), "missing file is an empty history");
            let first = row("linux-x86_64-8c", true, &[("bench2_hot_loop_speedup", 9.5)]);
            let second = row("linux-x86_64-8c", true, &[("bench2_hot_loop_speedup", 9.9)]);
            append(&path, &first).expect("append");
            append(&path, &second).expect("append");
            // A truncated third line (crashed writer) must be skipped.
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen");
            write!(file, "{{\"schema\": 1, \"timest").expect("partial write");
            drop(file);
            let rows = load(&path);
            assert_eq!(rows, vec![first, second]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The one report writer behind every `perfcheck` family.
///
/// A [`report::Report`] holds a JSON body, named hard gates, named wall-clock
/// targets and history headlines. [`report::Report::finish`] writes the
/// `BENCH_*.json` file, prints it to stdout, prints the speedup table and
/// one `FAIL`/`note` line per miss to stderr, and returns the exit code.
/// Every file therefore shares one schema — the body, then `gates`,
/// `targets` and `pass` — documented in `BENCHMARKS.md`.
pub mod report {
    use std::fmt::Write as _;

    /// A JSON value, rendered by hand (the tree has no serde).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `true` or `false`.
        Bool(bool),
        /// A non-negative integer.
        Int(u64),
        /// A float, rendered with at most six decimals; a non-finite
        /// value renders as `null`.
        Num(f64),
        /// A string, escaped on render.
        Str(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object, keys in insertion order.
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// An object from `(key, value)` pairs.
        pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }

        /// The rendered text. Containers at the top two levels put one
        /// entry per line; deeper ones stay on one line.
        pub fn render(&self) -> String {
            let mut out = String::new();
            self.write(&mut out, 0);
            out
        }

        fn write(&self, out: &mut String, depth: usize) {
            match self {
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Int(n) => out.push_str(&n.to_string()),
                Json::Num(x) if !x.is_finite() => out.push_str("null"),
                Json::Num(x) => {
                    let fixed = format!("{x:.6}");
                    let trimmed = fixed.trim_end_matches('0');
                    out.push_str(trimmed);
                    if trimmed.ends_with('.') {
                        out.push('0');
                    }
                }
                Json::Str(s) => escape(out, s),
                Json::Arr(items) => {
                    let entries = items.iter().map(|v| (None, v));
                    write_container(out, depth, ['[', ']'], entries);
                }
                Json::Obj(fields) => {
                    let entries = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                    write_container(out, depth, ['{', '}'], entries);
                }
            }
        }
    }

    fn write_container<'a>(
        out: &mut String,
        depth: usize,
        [open, close]: [char; 2],
        entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
    ) {
        let multiline = depth < 2 && entries.len() > 0;
        out.push(open);
        for (i, (key, value)) in entries.enumerate() {
            if i > 0 {
                out.push(',');
            }
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                escape(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }

    fn escape(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    macro_rules! json_from {
        ($($ty:ty => |$v:ident| $make:expr),* $(,)?) => {
            $(impl From<$ty> for Json {
                fn from($v: $ty) -> Json {
                    $make
                }
            })*
        };
    }

    json_from! {
        bool => |b| Json::Bool(b),
        u64 => |n| Json::Int(n),
        usize => |n| Json::Int(n as u64),
        f64 => |x| Json::Num(x),
        &str => |s| Json::Str(s.to_string()),
        String => |s| Json::Str(s),
        Vec<Json> => |items| Json::Arr(items),
    }

    /// A wall-clock target (see [`Report::target`]).
    #[derive(Debug, Clone, PartialEq)]
    struct Target {
        name: String,
        value: f64,
        min: f64,
        gated: bool,
    }

    impl Target {
        fn met(&self) -> bool {
            self.value >= self.min
        }
    }

    /// One bench family's report; see the module docs.
    #[derive(Debug, Clone)]
    pub struct Report {
        bench: String,
        file: String,
        labels: [String; 2],
        body: Vec<(String, Json)>,
        gates: Vec<(String, bool)>,
        targets: Vec<Target>,
        rows: Vec<(String, f64, f64)>,
        /// History headlines, in emission order. `perfcheck --all` folds
        /// them into its `BENCH_HISTORY.jsonl` row.
        pub headlines: Vec<(String, f64)>,
    }

    impl Report {
        /// An empty report for the family `bench`, written to `file`.
        /// `bench` is the body's first field and names the family on
        /// `FAIL` and `note` lines; `labels` name the speedup table's fast
        /// and base columns.
        pub fn new(bench: &str, file: &str, labels: [&str; 2]) -> Report {
            Report {
                bench: bench.to_string(),
                file: file.to_string(),
                labels: labels.map(str::to_string),
                body: vec![("bench".to_string(), bench.into())],
                gates: Vec::new(),
                targets: Vec::new(),
                rows: Vec::new(),
                headlines: Vec::new(),
            }
        }

        /// Appends a body field.
        pub fn field(&mut self, key: &str, value: impl Into<Json>) {
            self.body.push((key.to_string(), value.into()));
        }

        /// Records a hard gate: `false` fails the run.
        pub fn gate(&mut self, name: &str, ok: bool) {
            self.gates.push((name.to_string(), ok));
        }

        /// Records a wall-clock target: `value` should reach at least
        /// `min`. A miss fails the run only when `gated`; an ungated miss
        /// prints a `note:` line.
        pub fn target(&mut self, name: &str, value: f64, min: f64, gated: bool) {
            self.targets.push(Target {
                name: name.to_string(),
                value,
                min,
                gated,
            });
        }

        /// Adds a speedup-table row: `fast` and `base` in steps/sec.
        pub fn row(&mut self, workload: &str, fast: f64, base: f64) {
            self.rows.push((workload.to_string(), fast, base));
        }

        /// Records a history headline.
        pub fn headline(&mut self, key: &str, value: f64) {
            self.headlines.push((key.to_string(), value));
        }

        /// Every gate true and every gated target met.
        pub fn pass(&self) -> bool {
            self.gates.iter().all(|(_, ok)| *ok) && self.targets.iter().all(|t| !t.gated || t.met())
        }

        /// The file's content: the body, then `gates`, `targets` and
        /// `pass`.
        pub fn json(&self) -> Json {
            let gates = self
                .gates
                .iter()
                .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
                .collect();
            let targets = self
                .targets
                .iter()
                .map(|t| {
                    let entry = Json::obj([
                        ("value", t.value.into()),
                        ("min", t.min.into()),
                        ("gated", t.gated.into()),
                        ("met", t.met().into()),
                    ]);
                    (t.name.clone(), entry)
                })
                .collect();
            let mut fields = self.body.clone();
            fields.push(("gates".to_string(), Json::Obj(gates)));
            fields.push(("targets".to_string(), Json::Obj(targets)));
            fields.push(("pass".to_string(), self.pass().into()));
            Json::Obj(fields)
        }

        /// The exit code (1 unless [`Report::pass`]) and one line per
        /// miss: `FAIL(<bench>): gate <name> is false`, a `FAIL` line per
        /// missed gated target, and a `note` line per missed ungated one.
        pub fn verdict(&self) -> (i32, Vec<String>) {
            let bench = &self.bench;
            let mut lines: Vec<String> = self
                .gates
                .iter()
                .filter(|(_, ok)| !ok)
                .map(|(name, _)| format!("FAIL({bench}): gate {name} is false"))
                .collect();
            for t in self.targets.iter().filter(|t| !t.met()) {
                let (tag, why) = if t.gated {
                    ("FAIL", "gated")
                } else {
                    ("note", "ungated; host-dependent")
                };
                lines.push(format!(
                    "{tag}({bench}): target {} is {:.2}, below {:.2} ({why})",
                    t.name, t.value, t.min
                ));
            }
            (i32::from(!self.pass()), lines)
        }

        /// Writes the file, prints it to stdout, prints the speedup table
        /// and the [`Report::verdict`] lines to stderr, and returns the
        /// exit code.
        ///
        /// # Panics
        ///
        /// Panics if the file cannot be written (a harness failure, not
        /// a perf regression).
        pub fn finish(&self) -> i32 {
            let text = self.json().render() + "\n";
            std::fs::write(&self.file, &text)
                .unwrap_or_else(|e| panic!("failed to write {}: {e}", self.file));
            print!("{text}");
            eprintln!("wrote {}", self.file);
            let [fast, base] = &self.labels;
            eprintln!("speedup table [{}]:", self.bench);
            eprintln!(
                "  {:<24} {fast:>15} {base:>15} {:>9}",
                "workload", "speedup"
            );
            for (name, fast, base) in &self.rows {
                let speedup = fast / base.max(1e-9);
                eprintln!("  {name:<24} {fast:>15.0} {base:>15.0} {speedup:>8.2}x");
            }
            let (code, lines) = self.verdict();
            for line in lines {
                eprintln!("{line}");
            }
            code
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn report() -> Report {
            let mut r = Report::new("block_engine", "BENCH_5.json", ["on st/s", "off st/s"]);
            r.field("seed", 7u64);
            r.gate("cycles_identical", true);
            r
        }

        #[test]
        fn false_gate_fails_and_names_family_and_gate() {
            let mut r = report();
            r.gate("arch_identical", false);
            let (code, lines) = r.verdict();
            assert_eq!(code, 1);
            assert_eq!(lines, ["FAIL(block_engine): gate arch_identical is false"]);
            assert!(r.json().render().contains("\"pass\": false"));
        }

        #[test]
        fn missed_ungated_target_is_a_note() {
            let mut r = report();
            r.target("hot_loop_speedup", 1.5, 2.0, false);
            let (code, lines) = r.verdict();
            assert_eq!(code, 0);
            assert_eq!(lines.len(), 1);
            assert!(lines[0].starts_with("note(block_engine): target hot_loop_speedup"));
            assert!(r.json().render().contains("\"pass\": true"));
        }

        #[test]
        fn missed_gated_target_fails() {
            let mut r = report();
            r.target("wall_speedup_over_threaded", 1.2, 1.5, true);
            r.target("fleet_speedup", 3.0, 2.0, true);
            let (code, lines) = r.verdict();
            assert_eq!(code, 1);
            assert_eq!(lines.len(), 1);
            assert!(lines[0].starts_with("FAIL(block_engine): target wall_speedup_over_threaded"));
            assert!(!r.pass());
        }

        #[test]
        fn strings_render_escaped_and_floats_stay_valid() {
            let mut r = report();
            r.field("note", "a \"quoted\" path\\with\nnewline\u{1}");
            r.field("ratio", 2.5);
            r.field("whole", 5.0);
            r.field("nan", f64::NAN);
            let text = r.json().render();
            assert!(text.contains(r#""note": "a \"quoted\" path\\with\nnewline\u0001""#));
            assert!(text.contains("\"ratio\": 2.5,"));
            assert!(text.contains("\"whole\": 5.0,"));
            assert!(text.contains("\"nan\": null,"));
            assert!(text.starts_with("{\n  \"bench\": \"block_engine\",\n  \"seed\": 7,"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_codegen::CfiScheme;

    #[test]
    fn fig2_ordering_matches_paper() {
        // Figure 2: Clang's SP-only < Camouflage < PARTS; all above the
        // uninstrumented baseline.
        let costs = fig2::all(50);
        let get = |s: CfiScheme| {
            costs
                .iter()
                .find(|c| c.scheme == s)
                .unwrap()
                .cycles_per_call
        };
        let none = get(CfiScheme::None);
        let sp = get(CfiScheme::SpOnly);
        let camo = get(CfiScheme::Camouflage);
        let parts = get(CfiScheme::Parts);
        assert!(none < sp, "{none} < {sp}");
        assert!(sp < camo, "{sp} < {camo}");
        assert!(camo < parts, "{camo} < {parts}");
    }

    #[test]
    fn fleet_measurement_is_simulation_identical() {
        use camo_workloads::TenantSpec;
        let mut plan = camo_smp::FleetPlan::new(
            2,
            0xBE4C4,
            vec![
                TenantSpec::lmbench("web", 64),
                TenantSpec::tenant_mix("batch", 8),
            ],
        );
        plan.cpus_per_shard = 2;
        let m = fleet::measure(&plan);
        assert!(m.identical, "fleet execution mode leaked into simulation");
        assert_eq!(m.parallel.syscalls, m.sequential.syscalls);
        assert!(m
            .parallel
            .tenants
            .iter()
            .all(|t| t.totals.latency.p99() > 0));
    }

    #[test]
    fn fuzz_gate_is_clean_on_a_small_fleet() {
        let ab = fuzz::measure(2, 2, 0xF022, true);
        assert!(ab.passes(), "the smoke adversarial plan must gate clean");
        let ledger = ab.on.ledger();
        assert!(ledger.attempted > 0, "fuzz tenants mounted attacks");
        assert_eq!(ledger.matched, ledger.attempted);
        assert_eq!(ledger.benign_pac_events, 0);
        assert_eq!(ledger.false_positive_rate(), 0.0);
        assert!(
            ledger.time_to_kill.count() > 0 && ledger.time_to_kill.p50() > 0,
            "killing attacks fed the time-to-kill distribution"
        );
        // The per-op table accounts for every record, and both arms tell
        // the same story.
        let per_op: u64 = ab.on.per_op().iter().map(|(_, a, _)| a).sum();
        assert_eq!(per_op, ledger.attempted);
        assert_eq!(ab.on.ledger(), ab.off.ledger());
    }

    #[test]
    fn key_switch_is_about_nine_cycles_per_key() {
        let cost = key_switch::measure(5);
        assert!(
            cost.avg_per_key > 6.0 && cost.avg_per_key < 14.0,
            "≈9 cycles/key (§6.1.1), got {:.2}",
            cost.avg_per_key
        );
    }
}
