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
/// decoded-instruction cache and warm QARMA schedules exist to improve.
pub mod perf {
    use super::fig2;
    use camo_codegen::CfiScheme;
    use camo_core::{Machine, ProtectionLevel};
    use camo_kernel::SYSCALLS;
    use camo_lmbench::workload_config;
    use std::time::Instant;

    /// One wall-clock measurement of a workload.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PerfSample {
        /// Whether the fast-path caches were enabled.
        pub caches: bool,
        /// Simulated instructions retired.
        pub instructions: u64,
        /// Simulated cycles consumed (must not depend on `caches`).
        pub cycles: u64,
        /// Host wall-clock seconds.
        pub wall_secs: f64,
        /// Simulated instructions per host second.
        pub steps_per_sec: f64,
        /// PAC-unit MAC-memo hits (0 with caches off).
        pub pac_memo_hits: u64,
        /// PAC-unit MAC-memo misses (0 with caches off).
        pub pac_memo_misses: u64,
    }

    fn sample(
        caches: bool,
        instructions: u64,
        cycles: u64,
        wall_secs: f64,
        memo: (u64, u64),
    ) -> PerfSample {
        PerfSample {
            caches,
            instructions,
            cycles,
            wall_secs,
            steps_per_sec: instructions as f64 / wall_secs.max(1e-9),
            pac_memo_hits: memo.0,
            pac_memo_misses: memo.1,
        }
    }

    /// The one Figure-2 wall-clock harness behind every A/B: builds the
    /// call loop, applies the cache, block-engine and trace-engine knobs,
    /// runs, and samples. `recorded` is the value stored in
    /// [`PerfSample::caches`] (the toggled axis of whichever A/B is
    /// calling).
    pub(crate) fn fig2_sample(
        iters: u64,
        caches: bool,
        blocks: bool,
        traces: bool,
        recorded: bool,
    ) -> (PerfSample, camo_cpu::CpuStats) {
        let (mut cpu, mut mem, driver_va) = fig2::build_call_loop(CfiScheme::Camouflage);
        cpu.set_block_engine(blocks);
        cpu.set_trace_engine(traces);
        cpu.set_caching(caches);
        mem.set_caching(caches);
        let start = Instant::now();
        let result = cpu
            .call(&mut mem, driver_va, &[iters], 64 * iters + 1024)
            .expect("benchmark loop runs");
        let wall = start.elapsed().as_secs_f64();
        let stats = cpu.stats();
        (
            sample(
                recorded,
                result.instructions,
                result.cycles,
                wall,
                (stats.pac_memo_hits, stats.pac_memo_misses),
            ),
            stats,
        )
    }

    /// The Figure-2 call loop (Camouflage scheme) run for `iters`
    /// iterations with the caches on or off.
    ///
    /// BENCH_2 isolates the PR-2 cache A/B: the block engine is pinned
    /// off in both arms (its own A/B is `perfcheck --blocks`).
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn hot_loop(iters: u64, caches: bool) -> PerfSample {
        fig2_sample(iters, caches, false, false, caches).0
    }

    /// The lmbench syscall mix (every modeled syscall, `reps` rounds each)
    /// on a fully protected machine booted from `seed`, with the caches on
    /// or off.
    ///
    /// # Panics
    ///
    /// Panics if boot or a syscall fails (a harness bug).
    pub fn syscall_mix(reps: u64, caches: bool, seed: u64) -> PerfSample {
        let mut cfg = workload_config(ProtectionLevel::Full);
        cfg.fast_caches = caches;
        // Same pinning as `hot_loop`: BENCH_2 measures the caches alone.
        cfg.block_engine = false;
        cfg.seed = seed;
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
        let wall = start.elapsed().as_secs_f64();
        let stats = machine.kernel().cpu().stats();
        sample(
            caches,
            instructions,
            cycles,
            wall,
            (stats.pac_memo_hits, stats.pac_memo_misses),
        )
    }

    /// One point of the sharded-scaling curve (`BENCH_3.json`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ScalingPoint {
        /// Shard (machine) count.
        pub shards: usize,
        /// Syscalls served across all shards.
        pub syscalls: u64,
        /// Simulated instructions retired across all shards.
        pub instructions: u64,
        /// Simulated cycles across all shards.
        pub cycles: u64,
        /// Wall seconds of the parallel fan-out on this host.
        pub parallel_wall_secs: f64,
        /// Aggregate simulated steps per wall second the parallel run
        /// delivered on this host (bounded by the host's core count).
        pub parallel_steps_per_sec: f64,
        /// Aggregate shard capacity: sum of isolated per-shard rates from
        /// a sequential run — the pool's service rate given one unloaded
        /// core per shard.
        pub capacity_steps_per_sec: f64,
        /// Whether the parallel and sequential runs produced bit-identical
        /// simulated totals (they must; sharding mode is architecturally
        /// invisible).
        pub simulation_identical: bool,
        /// Host workers the parallel run's pool actually used — the
        /// context the wall numbers are meaningless without.
        pub host_workers: usize,
        /// Shard tasks stolen across workers during the parallel run.
        pub steals: u64,
    }

    /// Measures one shard count of the lmbench-mix scaling curve: the same
    /// deterministic plan is run once on the thread pool (wall scaling on
    /// this host) and once sequentially (isolated shard capacity), and the
    /// simulated totals are cross-checked bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn smp_scaling(shards: usize, total_syscalls: u64, seed: u64) -> ScalingPoint {
        use camo_smp::{FleetDriver, FleetPlan};
        use camo_workloads::TenantSpec;
        // One lmbench tenant whose syscall quota is split across shards.
        let plan = FleetPlan::new(
            shards,
            seed,
            vec![TenantSpec::lmbench("lmbench", total_syscalls)],
        );
        let par = FleetDriver::drive(&plan).expect("parallel traffic runs");
        let seq = FleetDriver::drive_sequential(&plan).expect("sequential traffic runs");
        ScalingPoint {
            shards,
            syscalls: par.syscalls,
            instructions: par.instructions,
            cycles: par.cycles,
            parallel_wall_secs: par.wall_secs,
            parallel_steps_per_sec: par.steps_per_sec(),
            capacity_steps_per_sec: seq.capacity_steps_per_sec(),
            simulation_identical: par.simulation_identical(&seq),
            host_workers: par.exec.workers,
            steals: par.exec.steals,
        }
    }
}

/// The multi-tenant fleet benchmark (`perfcheck --fleet`, `BENCH_4.json`).
///
/// One standard tenant mix — lmbench traffic, a fork/exec churn storm,
/// module load/unload churn, and a context-switch-heavy tenant — served
/// across shards by [`camo_smp::FleetDriver`], measured in both execution
/// modes and cross-checked bit for bit. The documented contract for every
/// emitted field lives in `BENCHMARKS.md`.
pub mod fleet {
    use camo_smp::{FleetDriver, FleetPlan, FleetReport};
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
        /// The plan that was run.
        pub plan: FleetPlan,
        /// The thread-pool run (wall scaling on this host).
        pub parallel: FleetReport,
        /// The back-to-back run (isolated per-shard capacity).
        pub sequential: FleetReport,
        /// Whether both modes agreed bit for bit on every simulated
        /// quantity — totals, per-tenant stats, latency histograms.
        pub identical: bool,
    }

    /// The togglable knobs of one fleet measurement. Every A/B harness
    /// (`--blocks`, `--traces`, `--fuzz`, `--telemetry`) is
    /// [`measure_opts`] with a different field flipped; the defaults are
    /// the production configuration (engines on, telemetry off, the
    /// kernel's own panic threshold).
    #[derive(Debug, Clone, Copy)]
    pub struct FleetOpts {
        /// Basic-block translation engine ([`FleetPlan::block_engine`]).
        pub block_engine: bool,
        /// Trace tier ([`FleetPlan::trace_engine`]; only active while
        /// the block engine is on).
        pub trace_engine: bool,
        /// Streaming stats plane ([`FleetPlan::telemetry`]).
        pub telemetry: bool,
        /// §5.4 panic-threshold override
        /// ([`FleetPlan::pac_panic_threshold`]); adversarial plans lift
        /// it so the gates, not the panic, judge every attack.
        pub pac_panic_threshold: Option<u32>,
    }

    impl Default for FleetOpts {
        fn default() -> Self {
            FleetOpts {
                block_engine: true,
                trace_engine: true,
                telemetry: false,
                pac_panic_threshold: None,
            }
        }
    }

    /// Runs `tenants` across `shards` machines of `cpus_per_shard` cores,
    /// both parallel and sequential, and cross-checks the simulated
    /// outcome.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn measure(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
    ) -> FleetMeasurement {
        measure_opts(shards, cpus_per_shard, seed, tenants, FleetOpts::default())
    }

    /// [`measure`] with an explicit block-engine setting and the trace
    /// tier pinned **off** in both states — the `perfcheck --blocks`
    /// fleet A/B runs it once per arm, isolating tier 1 exactly as
    /// BENCH_5 always has.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn measure_with_blocks(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
        block_engine: bool,
    ) -> FleetMeasurement {
        let opts = FleetOpts {
            block_engine,
            trace_engine: false,
            ..FleetOpts::default()
        };
        measure_opts(shards, cpus_per_shard, seed, tenants, opts)
    }

    /// [`measure`] with both translation-engine tiers explicit — the
    /// `perfcheck --traces` fleet A/B runs it with blocks pinned on and
    /// the trace tier toggled.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn measure_with_engines(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
        block_engine: bool,
        trace_engine: bool,
    ) -> FleetMeasurement {
        let opts = FleetOpts {
            block_engine,
            trace_engine,
            ..FleetOpts::default()
        };
        measure_opts(shards, cpus_per_shard, seed, tenants, opts)
    }

    /// The one fleet harness behind every measurement: builds the plan
    /// from `opts`, runs both execution modes, cross-checks them.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn measure_opts(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
        opts: FleetOpts,
    ) -> FleetMeasurement {
        let mut plan = FleetPlan::new(shards, seed, tenants);
        plan.cpus_per_shard = cpus_per_shard;
        plan.block_engine = opts.block_engine;
        plan.trace_engine = opts.trace_engine;
        plan.telemetry = opts.telemetry;
        plan.pac_panic_threshold = opts.pac_panic_threshold;
        let parallel = FleetDriver::drive(&plan).expect("parallel fleet runs");
        let sequential = FleetDriver::drive_sequential(&plan).expect("sequential fleet runs");
        let identical = parallel.simulation_identical(&sequential);
        FleetMeasurement {
            plan,
            parallel,
            sequential,
            identical,
        }
    }
}

/// The block-translation-engine A/B (`perfcheck --blocks`, `BENCH_5.json`).
///
/// Same quantities as [`perf`] — host wall time per simulated step — but
/// the toggled axis is the basic-block translation engine rather than the
/// PR-2 caches. Both arms run with the fast-path caches **on**: the block
/// engine's job is to beat the already-cached step loop, not the per-byte
/// seed path.
pub mod blocks {
    use super::fleet::{measure_with_blocks, FleetMeasurement};
    use super::perf::PerfSample;
    use camo_smp::FleetReport;
    use camo_workloads::TenantSpec;

    /// One wall-clock measurement with the block engine on or off, plus
    /// the engine's own cache counters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct BlockSample {
        /// The throughput sample (`caches` records the *block engine*
        /// setting here; the fast-path caches are always on).
        pub sample: PerfSample,
        /// Block-cache hits (0 with the engine off).
        pub block_hits: u64,
        /// Block-cache misses (0 with the engine off).
        pub block_misses: u64,
        /// Block invalidations (0 with the engine off).
        pub block_invalidations: u64,
    }

    /// The Figure-2 call loop (Camouflage scheme), fast-path caches on,
    /// block engine toggled — the same harness as [`super::perf::hot_loop`],
    /// toggling the other knob.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn hot_loop(iters: u64, blocks: bool) -> BlockSample {
        // Trace tier pinned off in both arms: BENCH_5 measures tier 1
        // alone, and stays a regression guard that tier-1 behaviour did
        // not shift under the new tier.
        let (sample, stats) = super::perf::fig2_sample(iters, true, blocks, false, blocks);
        BlockSample {
            sample,
            block_hits: stats.block_hits,
            block_misses: stats.block_misses,
            block_invalidations: stats.block_invalidations,
        }
    }

    /// The fleet mix measured with the engine on and off (each arm runs
    /// parallel *and* sequential, so the existing
    /// `simulation_identical` gate applies per arm).
    #[derive(Debug)]
    pub struct FleetAb {
        /// Engine-on measurement.
        pub on: FleetMeasurement,
        /// Engine-off measurement.
        pub off: FleetMeasurement,
    }

    impl FleetAb {
        /// Whether the engine-on and engine-off fleets agreed on every
        /// architectural quantity: totals, per-tenant counters
        /// ([`camo_cpu::CpuStats::arch_eq`] for the stats), and the
        /// per-tenant simulated-cycle latency histograms.
        pub fn arch_identical(&self) -> bool {
            arch_identical(&self.on.parallel, &self.off.parallel)
        }

        /// Engine-on capacity over engine-off capacity (isolated-shard
        /// rates from the sequential runs — host-contention free).
        pub fn speedup(&self) -> f64 {
            self.on.sequential.capacity_steps_per_sec()
                / self.off.sequential.capacity_steps_per_sec().max(1e-9)
        }
    }

    /// Whether two fleet reports are architecturally identical —
    /// everything the simulation defines except the cache-observability
    /// counters (which legitimately differ across engines).
    pub fn arch_identical(a: &FleetReport, b: &FleetReport) -> bool {
        a.syscalls == b.syscalls
            && a.instructions == b.instructions
            && a.cycles == b.cycles
            && a.stats.arch_eq(&b.stats)
            && a.tenants.len() == b.tenants.len()
            && a.tenants.iter().zip(&b.tenants).all(|(x, y)| {
                x.name == y.name
                    && x.totals.ops == y.totals.ops
                    && x.totals.syscalls == y.totals.syscalls
                    && x.totals.instructions == y.totals.instructions
                    && x.totals.cycles == y.totals.cycles
                    && x.totals.stats.arch_eq(&y.totals.stats)
                    && x.totals.latency == y.totals.latency
            })
    }

    /// Runs the fleet mix once per engine arm.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn fleet_ab(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
    ) -> FleetAb {
        // Engine off first, so the on-arm cannot benefit from a warmer
        // host (same ordering rationale as the BENCH_2 harness).
        let off = measure_with_blocks(shards, cpus_per_shard, seed, tenants.clone(), false);
        let on = measure_with_blocks(shards, cpus_per_shard, seed, tenants, true);
        FleetAb { on, off }
    }
}

/// The trace-tier A/B (`perfcheck --traces`, `BENCH_7.json`).
///
/// Both arms run with the fast-path caches **and** the block engine on:
/// the trace tier's job is to beat the already-blocked engine (BENCH_5's
/// on-arm), the way BENCH_5's job was to beat the already-cached step
/// loop. The toggled axis is [`camo_cpu::Cpu::set_trace_engine`] /
/// [`camo_smp::FleetPlan::trace_engine`].
pub mod traces {
    use super::fleet::measure_with_engines;
    use super::perf::PerfSample;
    use camo_workloads::TenantSpec;

    // The verdict helpers are shared with the BENCH_5 harness: the gates
    // (architectural identity, parallel≡sequential) are the same, only
    // the toggled knob differs.
    pub use super::blocks::FleetAb;

    /// One wall-clock measurement with the trace tier on or off, plus the
    /// tier's own cache counters.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TraceSample {
        /// The throughput sample (`caches` records the *trace engine*
        /// setting here; fast-path caches and block engine are always on).
        pub sample: PerfSample,
        /// Trace-cache hits (0 with the tier off).
        pub trace_hits: u64,
        /// Traces built (0 with the tier off).
        pub trace_misses: u64,
        /// Trace invalidations.
        pub trace_invalidations: u64,
        /// Chain continuations inside engine calls (block- or trace-exit
        /// edges followed without returning to the run loop).
        pub chain_follows: u64,
        /// Tier-1 block-cache hits — with the tier on, hot work moves out
        /// of these into `trace_hits`.
        pub block_hits: u64,
    }

    /// The Figure-2 call loop (Camouflage scheme), fast-path caches and
    /// block engine on, trace tier toggled — the same harness as
    /// [`super::blocks::hot_loop`], toggling the next knob up.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (a harness bug).
    pub fn hot_loop(iters: u64, traces: bool) -> TraceSample {
        let (sample, stats) = super::perf::fig2_sample(iters, true, true, traces, traces);
        TraceSample {
            sample,
            trace_hits: stats.trace_hits,
            trace_misses: stats.trace_misses,
            trace_invalidations: stats.trace_invalidations,
            chain_follows: stats.chain_follows,
            block_hits: stats.block_hits,
        }
    }

    /// Runs the fleet mix once per trace-tier arm (block engine pinned on
    /// in both).
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn fleet_ab(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
    ) -> FleetAb {
        // Tier off first, same warm-host ordering rationale as BENCH_5.
        let off = measure_with_engines(shards, cpus_per_shard, seed, tenants.clone(), true, false);
        let on = measure_with_engines(shards, cpus_per_shard, seed, tenants, true, true);
        FleetAb { on, off }
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
    use super::blocks::arch_identical;
    use super::fleet::{self, FleetMeasurement};
    use camo_smp::{FleetReport, TenantReport};
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

    /// Builds and runs one adversarial plan (both execution modes). The
    /// §5.4 panic threshold is lifted: the gate, not the panic, judges
    /// every attack — a fuzz campaign necessarily exceeds any sane
    /// production threshold.
    fn run_plan(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
        block_engine: bool,
    ) -> FleetMeasurement {
        let opts = fleet::FleetOpts {
            block_engine,
            pac_panic_threshold: Some(u32::MAX),
            ..fleet::FleetOpts::default()
        };
        fleet::measure_opts(shards, cpus_per_shard, seed, tenants, opts)
    }

    /// One benign tenant's isolation verdict: does its service in the
    /// adversarial plan match, bit for bit, its service alone on an
    /// identically seeded fleet?
    #[derive(Debug)]
    pub struct IsolationCheck {
        /// Tenant name.
        pub name: String,
        /// Architectural identity of the mixed-run and isolated-run
        /// tenant reports.
        pub identical: bool,
    }

    /// Arch-level tenant-report identity: every simulated quantity except
    /// the cache-observability counters (same exclusion rule as
    /// [`super::blocks::arch_identical`]).
    fn tenant_arch_identical(a: &TenantReport, b: &TenantReport) -> bool {
        a.name == b.name
            && a.totals.ops == b.totals.ops
            && a.totals.syscalls == b.totals.syscalls
            && a.totals.instructions == b.totals.instructions
            && a.totals.cycles == b.totals.cycles
            && a.totals.stats.arch_eq(&b.totals.stats)
            && a.totals.latency == b.totals.latency
            && a.totals.hostile == b.totals.hostile
    }

    /// One engine arm: the adversarial plan plus the per-benign-tenant
    /// isolated baselines.
    #[derive(Debug)]
    pub struct FuzzArm {
        /// The mixed (benign + fuzz) plan, both execution modes.
        pub mixed: FleetMeasurement,
        /// Isolation verdict per benign tenant.
        pub isolation: Vec<IsolationCheck>,
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

        /// Gate 1: every hostile op matched its declaration (and at least
        /// one was mounted).
        pub fn all_hostile_matched(&self) -> bool {
            let ledger = self.ledger();
            ledger.attempted > 0 && ledger.matched == ledger.attempted
        }

        /// Gate 2a: zero §5.4 failure-policy events in benign windows,
        /// across every tenant (fuzz tenants' benign windows included).
        pub fn zero_false_positives(&self) -> bool {
            self.ledger().benign_pac_events == 0
        }

        /// Gate 2b: every benign tenant bit-identical to its isolated
        /// baseline.
        pub fn benign_isolated(&self) -> bool {
            !self.isolation.is_empty() && self.isolation.iter().all(|c| c.identical)
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
    /// Panics if a shard fails (the executor propagates only
    /// infrastructure errors; attack outcomes are recorded, not thrown).
    pub fn measure_arm(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        smoke: bool,
        block_engine: bool,
    ) -> FuzzArm {
        let benign = benign_tenants(smoke);
        let mut tenants = benign.clone();
        tenants.extend(fuzz_tenants(smoke));
        let mixed = run_plan(shards, cpus_per_shard, seed, tenants, block_engine);
        let isolation = benign
            .into_iter()
            .map(|spec| {
                let name = spec.name.clone();
                let alone = run_plan(shards, cpus_per_shard, seed, vec![spec], block_engine);
                let in_mixed = mixed
                    .parallel
                    .tenants
                    .iter()
                    .find(|t| t.name == name)
                    .expect("benign tenant served in the mixed plan");
                let in_isolation = alone
                    .parallel
                    .tenants
                    .iter()
                    .find(|t| t.name == name)
                    .expect("benign tenant served in isolation");
                IsolationCheck {
                    identical: alone.identical && tenant_arch_identical(in_mixed, in_isolation),
                    name,
                }
            })
            .collect();
        FuzzArm { mixed, isolation }
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
        /// Gate 3: the two arms agree on every architectural quantity,
        /// including the per-op hostile ledgers.
        pub fn arch_identical(&self) -> bool {
            arms_arch_identical(&self.on.mixed.parallel, &self.off.mixed.parallel)
        }

        /// All gates at once — the `perfcheck --fuzz` exit criterion.
        pub fn passes(&self) -> bool {
            [&self.on, &self.off].iter().all(|arm| {
                arm.mixed.identical
                    && arm.all_hostile_matched()
                    && arm.zero_false_positives()
                    && arm.benign_isolated()
            }) && self.arch_identical()
        }
    }

    /// Cross-arm identity: [`arch_identical`] plus per-tenant hostile
    /// ledgers (records, time-to-kill, counts) — the block engine must
    /// not change a single attack outcome.
    pub fn arms_arch_identical(a: &FleetReport, b: &FleetReport) -> bool {
        arch_identical(a, b)
            && a.tenants
                .iter()
                .zip(&b.tenants)
                .all(|(x, y)| x.totals.hostile == y.totals.hostile)
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

/// The streaming-stats-plane A/B (`perfcheck --telemetry`, `BENCH_8.json`).
///
/// Telemetry is the strictest knob in the whole A/B family: unlike the
/// block and trace engines it has **no** architectural surface at all,
/// so the identity gate here is full bit-identity — every one of the 22
/// `CpuStats` counters, including the observability ones the engine A/Bs
/// legitimately exempt. The off arm must additionally stay silent
/// (no time series anywhere), and the on arm must account losslessly
/// (window sums ≡ end-of-run totals per tenant).
pub mod telemetry {
    use super::fleet::{measure_opts, FleetOpts};
    use camo_cpu::CpuStats;
    use camo_smp::FleetReport;
    use camo_workloads::TenantSpec;

    // Same A/B shape and speedup/arch helpers as the engine benches —
    // only the toggled knob and the extra gates differ.
    pub use super::blocks::FleetAb;

    /// Runs the fleet mix once per telemetry arm.
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault).
    pub fn fleet_ab(
        shards: usize,
        cpus_per_shard: usize,
        seed: u64,
        tenants: Vec<TenantSpec>,
    ) -> FleetAb {
        // Off arm first, mirroring the other A/Bs: the on arm must not
        // benefit from a warmer host.
        let arm = |telemetry| FleetOpts {
            telemetry,
            ..FleetOpts::default()
        };
        let off = measure_opts(shards, cpus_per_shard, seed, tenants.clone(), arm(false));
        let on = measure_opts(shards, cpus_per_shard, seed, tenants, arm(true));
        FleetAb { on, off }
    }

    /// Whether the two arms are **bit-identical** in everything the
    /// simulation defines: totals, all 22 stat counters (full equality,
    /// not [`CpuStats::arch_eq`]), and per-tenant totals including the
    /// latency histograms. Telemetry observes the run; it must not
    /// perturb even an observability counter.
    pub fn fully_identical(ab: &FleetAb) -> bool {
        let (a, b) = (&ab.on.parallel, &ab.off.parallel);
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

    /// Whether a report carries no time series at all — the off arm's
    /// obligation.
    pub fn silent(report: &FleetReport) -> bool {
        report.tenants.iter().all(|t| t.series.is_empty())
    }

    /// One tenant's series verdict for the BENCH_8 report.
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

    /// Wall-clock cost of running the plane: `1 − on/off` capacity
    /// ratio from the isolated-shard sequential runs, clamped at zero
    /// (host noise can make the on arm *faster*). The BENCH_8 gate is
    /// `< 0.02`.
    pub fn drain_overhead(ab: &FleetAb) -> f64 {
        (1.0 - ab.speedup()).max(0.0)
    }
}

/// The work-stealing fleet scheduler benchmark (`perfcheck --fleet-steal`,
/// `BENCH_9.json`).
///
/// The BENCH_4 tenant mix scaled out to a dense population — 64 tenants
/// on 8 single-core shards (16 on 4 with `--smoke`) with mixed weights
/// and cycle budgets — served by the work-stealing host pool at several
/// worker counts. Four property families:
///
/// 1. **Bit-identity under stealing** (hard): every pooled run, at every
///    worker count, and the legacy 1:1 threaded run are
///    `simulation_identical` to the sequential oracle.
/// 2. **Worker invariance** (hard): the pooled runs agree with each
///    other pairwise — perturbing the host schedule (1, 2, N, 2N
///    workers) moves nothing simulated.
/// 3. **Telemetry under migration** (hard): with the stats plane on,
///    every tenant's window sums reproduce its end-of-run totals even
///    though shard tasks migrated between workers mid-run.
/// 4. **Latency and wall scaling**: the fleet-wide p99 simulated-cycle
///    op latency is deterministic in the plan and gated against a fixed
///    target; the wall speedup of the pool over the 1:1 thread-per-shard
///    driver is gated (≥1.5×) only on hosts with ≥4 cores — below that
///    the pool and the time-sliced threads converge by construction —
///    and recorded everywhere.
pub mod steal {
    use camo_smp::{FleetDriver, FleetPlan, FleetReport};
    use camo_workloads::TenantSpec;

    /// Shard counts (full / `--smoke`). Dense-tenant plans pin
    /// `cpus_per_shard` to 1: every tenant lives on every shard, and the
    /// kernel's task-stack region bounds the per-machine task population.
    pub const SHARDS: usize = 8;
    /// `--smoke` shard count.
    pub const SMOKE_SHARDS: usize = 4;

    /// The dense tenant mix: 64 tenants (16 with `smoke`), mostly
    /// single-task lmbench traffic with a capped sprinkling of
    /// multi-task churn tenants, weights rotating 1–4 and sporadic
    /// per-sweep cycle budgets so the weighted-fair and throttling paths
    /// are all exercised under stealing.
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

    /// The worker counts the invariance gate perturbs: 1, 2, N, 2N
    /// (N = the pool's default on this host), deduplicated and sorted.
    pub fn worker_counts(plan: &FleetPlan) -> Vec<usize> {
        let n = FleetDriver::default_workers(plan);
        let mut counts = vec![1, 2, n, 2 * n];
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// One full BENCH_9 measurement.
    #[derive(Debug)]
    pub struct StealMeasurement {
        /// The dense plan that was run (telemetry on).
        pub plan: FleetPlan,
        /// The sequential oracle.
        pub sequential: FleetReport,
        /// The worker counts exercised, aligned with `pooled`.
        pub counts: Vec<usize>,
        /// One pooled run per worker count (wall best-of-`repeats`).
        pub pooled: Vec<FleetReport>,
        /// The legacy 1:1 thread-per-shard run — the wall-clock baseline
        /// the pool is judged against (best-of-`repeats`).
        pub threaded: FleetReport,
    }

    impl StealMeasurement {
        /// Gate 1: every execution mode bit-identical to the oracle.
        pub fn bit_identical(&self) -> bool {
            self.pooled
                .iter()
                .chain(std::iter::once(&self.threaded))
                .all(|r| r.simulation_identical(&self.sequential))
        }

        /// Gate 2: the pooled runs pairwise identical across worker
        /// counts.
        pub fn worker_invariant(&self) -> bool {
            self.pooled
                .windows(2)
                .all(|w| w[0].simulation_identical(&w[1]))
        }

        /// The pooled run at the host's default worker count (the last
        /// de-duplicated entry ≤ N; in practice the N-worker run).
        pub fn pooled_default(&self) -> &FleetReport {
            let n = FleetDriver::default_workers(&self.plan);
            self.counts
                .iter()
                .position(|&w| w == n)
                .map(|i| &self.pooled[i])
                .unwrap_or(&self.pooled[0])
        }

        /// Wall speedup of the default pooled run over the 1:1
        /// thread-per-shard baseline. Host-dependent: meaningful (and
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
    /// pooled run and the baseline are wall best-of-`repeats` (simulated
    /// cycles asserted deterministic across repeats).
    ///
    /// # Panics
    ///
    /// Panics if a shard fails (benign traffic must not fault) or a
    /// repeat disagrees on simulated cycles (a determinism bug).
    pub fn measure(shards: usize, seed: u64, smoke: bool, repeats: usize) -> StealMeasurement {
        let mut plan = FleetPlan::new(shards, seed, dense_tenants(smoke));
        plan.cpus_per_shard = 1;
        // Telemetry on: gate 3 needs the series recorded under stealing.
        plan.telemetry = true;
        let sequential = FleetDriver::drive_sequential(&plan).expect("sequential oracle runs");
        let counts = worker_counts(&plan);
        let n = FleetDriver::default_workers(&plan);
        let mut pooled = Vec::with_capacity(counts.len());
        for &w in &counts {
            let mut best = FleetDriver::drive_with_workers(&plan, w).expect("pooled fleet runs");
            // Only the default count's wall time feeds the speedup gate;
            // re-measuring every count would multiply runtime for numbers
            // nothing consumes.
            let wall_repeats = if w == n { repeats } else { 1 };
            for _ in 1..wall_repeats {
                let next = FleetDriver::drive_with_workers(&plan, w).expect("pooled fleet runs");
                assert_eq!(
                    next.cycles, best.cycles,
                    "simulation must be deterministic across repeats"
                );
                if next.wall_secs < best.wall_secs {
                    best = next;
                }
            }
            pooled.push(best);
        }
        let mut threaded = FleetDriver::drive_threaded(&plan).expect("1:1 baseline runs");
        for _ in 1..repeats {
            let next = FleetDriver::drive_threaded(&plan).expect("1:1 baseline runs");
            assert_eq!(
                next.cycles, threaded.cycles,
                "simulation must be deterministic across repeats"
            );
            if next.wall_secs < threaded.wall_secs {
                threaded = next;
            }
        }
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

/// Shared perfcheck plumbing. Every bench family's binary path follows
/// the same shape — resolve the plan size, run the A/B arms best-of-N,
/// gate determinism, emit a JSON report — and the pieces that used to
/// be copy-pasted per family live here instead.
pub mod runner {
    use super::blocks::FleetAb;
    use super::fleet::FleetMeasurement;

    /// Best-of-`repeats` for a fleet A/B: keeps, per arm, the repeat
    /// with the highest isolated-shard capacity, and asserts along the
    /// way that the simulation itself is deterministic across repeats
    /// (wall clock may vary; simulated cycles may not).
    ///
    /// # Panics
    ///
    /// Panics if two repeats disagree on simulated cycles — that is a
    /// determinism bug, not host noise.
    pub fn best_of_fleet_ab(repeats: usize, run: impl Fn() -> FleetAb) -> FleetAb {
        (1..repeats).fold(run(), |acc, _| {
            let next = run();
            assert_eq!(
                (next.on.parallel.cycles, next.off.parallel.cycles),
                (acc.on.parallel.cycles, acc.off.parallel.cycles),
                "simulation must be deterministic across repeats"
            );
            FleetAb {
                on: faster(next.on, acc.on),
                off: faster(next.off, acc.off),
            }
        })
    }

    fn faster(a: FleetMeasurement, b: FleetMeasurement) -> FleetMeasurement {
        if a.sequential.capacity_steps_per_sec() > b.sequential.capacity_steps_per_sec() {
            a
        } else {
            b
        }
    }

    /// Host-execution context rows (`<prefix>_host_workers`,
    /// `<prefix>_steals`) for the durable history. Neither key ends in a
    /// comparable suffix, so they ride along un-judged — the recorded
    /// answer to "how many host workers did this row's wall numbers
    /// actually have?", which the BENCH_3/4 wall-speedup disclaimers
    /// used to leave unrecorded.
    pub fn exec_headlines(prefix: &str, workers: usize, steals: u64) -> Vec<(String, f64)> {
        vec![
            (format!("{prefix}_host_workers"), workers as f64),
            (format!("{prefix}_steals"), steals as f64),
        ]
    }

    /// Writes a bench report and tells the operator where it went —
    /// the uniform tail of every perfcheck mode.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written (CI treats that as a
    /// harness failure, not a perf regression).
    pub fn write_json(path: &str, json: &str) {
        std::fs::write(path, json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
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
        let m = fleet::measure(
            2,
            2,
            0xBE4C4,
            vec![
                TenantSpec::lmbench("web", 64),
                TenantSpec::tenant_mix("batch", 8),
            ],
        );
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
