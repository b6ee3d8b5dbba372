//! Wall-clock regression checks for the simulator's throughput layers.
//!
//! Eight measurement modes, selected by `--smp` / `--fleet` / `--blocks` /
//! `--traces` / `--fuzz` / `--telemetry` / `--fleet-steal`, plus two meta
//! modes (`--all`, `--check-history`):
//!
//! * **Default (fast-path A/B, `BENCH_2.json`)** — runs the Figure-2 call
//!   loop and the lmbench syscall mix with the simulator's caches
//!   (software TLB, decoded-instruction cache, warm QARMA schedules + MAC
//!   memo) on and off. Two properties:
//!   1. **Invisibility** (hard): simulated cycle and instruction counts
//!      must be bit-identical with caches on or off. Mismatch exits
//!      non-zero.
//!   2. **Speed** (reported): the cached hot loop should run ≥ 5× the
//!      uncached per-byte path.
//!
//! * **`--smp` (sharded scaling, `BENCH_3.json`)** — runs the lmbench mix
//!   as one `FleetPlan::new(shards, seed, vec![TenantSpec::lmbench("lmbench",
//!   n)])` tenant through `camo_smp::FleetDriver` at increasing shard
//!   counts. Each
//!   point is measured twice: parallel (wall scaling on *this* host,
//!   bounded by its core count) and sequential (isolated per-shard
//!   capacity, the pool's aggregate rate given one core per shard). One
//!   hard property: both modes must produce bit-identical simulated
//!   totals — sharding is architecturally invisible.
//!
//! * **`--fleet` (multi-tenant fleet, `BENCH_4.json`)** — serves the
//!   standard tenant mix (lmbench traffic, a fork/exec churn storm,
//!   module load/unload churn, and a context-switch-heavy tenant) through
//!   `camo_smp::FleetDriver`, measured in both execution modes. Reports
//!   per-workload throughput and p50/p90/p99 simulated-cycle latency
//!   percentiles, and gates (hard) on the parallel and sequential runs
//!   agreeing bit for bit on every simulated quantity — including each
//!   tenant's latency histogram.
//!
//! * **`--blocks` (block-engine A/B, `BENCH_5.json`)** — runs the
//!   Figure-2 call loop and the standard fleet tenant mix with the
//!   basic-block translation engine on and off (fast-path caches on in
//!   both arms). Three hard properties, any failure exits non-zero:
//!   1. **Invisibility**: simulated cycle and instruction counts are
//!      bit-identical with the engine on or off, on both workloads.
//!   2. **Architectural identity**: the fleet's per-tenant counters
//!      (`CpuStats::arch_eq`) and latency histograms agree across the
//!      engine toggle.
//!   3. **Mode identity**: within each arm, parallel and sequential fleet
//!      runs agree bit for bit (the `--fleet` gate, at both points).
//!   The ≥2× speedup target is reported (non-gating; host-dependent).
//!
//! * **`--traces` (trace-engine A/B, `BENCH_7.json`)** — runs the same
//!   two workloads as `--blocks` with the *block* engine pinned on in
//!   both arms and the trace tier toggled. The same three hard
//!   properties gate (invisibility, architectural identity, mode
//!   identity); the ≥2× speedup target — over the blocks-on baseline,
//!   i.e. on top of BENCH_5's win — is reported (non-gating;
//!   host-dependent). The JSON carries the trace-tier observability
//!   counters (`trace_hits`/`trace_misses`/`trace_invalidations` and
//!   `chain_follows`) from the on-arm.
//!
//! * **`--fuzz` (adversarial traffic plane, `BENCH_6.json`)** — serves
//!   seeded fuzz tenants mounting the six `HostileOp` attacks alongside
//!   benign tenants on the same fleet, once per block-engine arm. Hard
//!   gates, any failure exits non-zero:
//!   1. **Attribution**: every hostile op produced exactly its declared
//!      expected outcome (right PAC-failure key class, right task) and
//!      nothing else.
//!   2. **Blast radius**: zero §5.4 failure-policy events in benign op
//!      windows, and every benign tenant's simulated totals bit-identical
//!      to an isolated-baseline run of that tenant alone.
//!   3. **Engine invariance**: both arms architecturally identical,
//!      hostile ledgers included; parallel and sequential runs agree
//!      within each arm.
//!   The §5.4 false-positive rate and time-to-kill distribution are
//!   reported in the JSON.
//!
//! * **`--telemetry` (streaming stats plane A/B, `BENCH_8.json`)** — runs
//!   the standard fleet mix with the per-tenant telemetry series on and
//!   off.
//!   Telemetry has *no* architectural surface, so the gates are the
//!   strictest in the family, all hard:
//!   1. **Bit-identity**: the two arms agree on every simulated quantity
//!      including all 22 `CpuStats` counters (full equality, not just
//!      `arch_eq`) and per-tenant latency histograms.
//!   2. **Mode identity**: parallel ≡ sequential within each arm (the
//!      series themselves included — `TenantReport` equality covers them).
//!   3. **Silence / completeness**: the off arm carries no time series
//!      anywhere; the on arm carries a non-empty series for every tenant
//!      whose window sums reproduce the end-of-run totals exactly.
//!   4. **Overhead**: running the plane costs < 2% fleet capacity.
//!   5. **Security**: the 24-row attack matrix still matches the paper.
//!
//! * **`--fleet-steal` (work-stealing scheduler, `BENCH_9.json`)** — the
//!   BENCH_4 tenant mix scaled out dense: 64 tenants with mixed weights
//!   and cycle budgets on 8 single-core shards (16 on 4 with `--smoke`),
//!   telemetry on, served at worker counts 1, 2, N and 2N plus the legacy
//!   1:1 thread-per-shard mode. Hard gates, any failure exits non-zero:
//!   1. **Bit-identity under stealing**: every pooled run and the 1:1 run
//!      are `simulation_identical` to the sequential oracle.
//!   2. **Worker invariance**: the pooled runs agree pairwise across
//!      worker counts.
//!   3. **Telemetry under migration**: every tenant's window sums
//!      reproduce its end-of-run totals despite shard tasks migrating
//!      between workers.
//!   4. **p99 latency**: the fleet-wide p99 simulated-cycle op latency
//!      (deterministic in the plan) stays under a fixed target.
//!   The ≥1.5× wall speedup of the pool over the 1:1 driver gates only on
//!   hosts with ≥4 cores (below that the two modes converge by
//!   construction) and is recorded — with the worker count and steal
//!   count — everywhere.
//!
//! * **`--all`** — runs every family above in sequence (exit code is the
//!   worst of them) and appends one row of headline numbers — host
//!   fingerprint, seed, per-family speedups and capacities — to
//!   `BENCH_HISTORY.jsonl`, the durable perf history.
//!
//! * **`--check-history`** — no measurement: loads `BENCH_HISTORY.jsonl`
//!   and fails (exit 1) if the newest row regressed any comparable
//!   headline by more than 15% against the last row from the same host
//!   class and smoke setting.
//!
//! `--seed N` pins the boot seed used by the syscall-mix machine and the
//! shard/tenant partitioning; it is emitted into the JSON so A/B runs and
//! shard partitions reproduce byte for byte. `--smoke` shrinks the
//! `--smp`, `--fleet`, `--blocks`, `--traces` and `--telemetry` runs for
//! CI runners.
//! Every mode also prints a per-workload speedup table to stderr so A/B
//! ratios are scrapeable from CI logs without parsing the JSON. The
//! emitted `BENCH_*.json` schemas are documented in `BENCHMARKS.md`.

use camo_bench::perf::{self, PerfSample, ScalingPoint};
use camo_bench::runner::{self, best_of_fleet_ab, write_json};
use camo_bench::{fleet, history};
use std::fmt::Write as _;
use std::path::Path;

/// Hot-loop iterations (the Figure-2 call loop is ~14 insns/iteration).
const HOT_LOOP_ITERS: u64 = 100_000;
/// Rounds of the full syscall mix.
const SYSCALL_REPS: u64 = 40;
/// The speedup the fast path is expected to deliver on the hot loop.
const SPEEDUP_TARGET: f64 = 5.0;
/// Capacity speedup expected at 8 shards vs 1 on the scaling curve.
const SCALING_TARGET: f64 = 3.0;
/// Repeats per measurement; the fastest is reported (shared CI hosts are
/// noisy, and the minimum wall time is the least contaminated estimate).
const REPEATS: usize = 3;
/// Default boot seed (the kernel's default, pinned here so the emitted
/// JSON is self-describing).
const DEFAULT_SEED: u64 = 0xCAF0_0D5E;
/// Syscalls across all shards per scaling point (full / `--smoke`).
const SCALING_SYSCALLS: u64 = 24_000;
const SMOKE_SYSCALLS: u64 = 2_000;

/// Best-of-`n` wall time: keeps the sample with the highest `rate`, and
/// asserts the deterministic `fingerprint` (simulated counters) agrees
/// across every repeat.
fn best_of<T>(
    n: usize,
    run: impl Fn() -> T,
    rate: impl Fn(&T) -> f64,
    fingerprint: impl Fn(&T) -> (u64, u64),
) -> T {
    let first = run();
    (1..n).fold(first, |acc, _| {
        let s = run();
        assert_eq!(
            fingerprint(&s),
            fingerprint(&acc),
            "simulation must be deterministic across repeats"
        );
        if rate(&s) > rate(&acc) {
            s
        } else {
            acc
        }
    })
}

/// Best-of-[`REPEATS`] for the BENCH_2 samples.
fn best(run: impl Fn() -> PerfSample) -> PerfSample {
    best_of(
        REPEATS,
        run,
        |s| s.steps_per_sec,
        |s| (s.instructions, s.cycles),
    )
}

/// Per-workload speedup table, printed to **stderr** by every run mode
/// so A/B ratios can be scraped from CI logs without parsing the JSON
/// (stdout carries the mode-specific report; stderr carries this uniform
/// summary plus FAIL/note lines). Each row is `(workload, fast, base)`
/// in steps/sec; the labels name what "fast" and "base" mean per mode.
fn speedup_table(mode: &str, fast_label: &str, base_label: &str, rows: &[(String, f64, f64)]) {
    eprintln!("speedup table [{mode}]:");
    eprintln!(
        "  {:<24} {:>14} {:>14} {:>9}",
        "workload", fast_label, base_label, "speedup"
    );
    for (name, fast, base) in rows {
        eprintln!(
            "  {:<24} {:>14.0} {:>14.0} {:>8.2}x",
            name,
            fast,
            base,
            fast / base.max(1e-9)
        );
    }
}

struct Workload {
    name: &'static str,
    cached: PerfSample,
    uncached: PerfSample,
}

impl Workload {
    fn speedup(&self) -> f64 {
        self.cached.steps_per_sec / self.uncached.steps_per_sec.max(1e-9)
    }

    fn cycles_identical(&self) -> bool {
        self.cached.cycles == self.uncached.cycles
            && self.cached.instructions == self.uncached.instructions
    }
}

fn sample_json(s: &PerfSample) -> String {
    format!(
        "{{\"instructions\": {}, \"cycles\": {}, \"wall_secs\": {:.6}, \
         \"steps_per_sec\": {:.1}, \"pac_memo_hits\": {}, \"pac_memo_misses\": {}}}",
        s.instructions, s.cycles, s.wall_secs, s.steps_per_sec, s.pac_memo_hits, s.pac_memo_misses
    )
}

struct Args {
    seed: u64,
    smp: bool,
    fleet: bool,
    blocks: bool,
    traces: bool,
    fuzz: bool,
    telemetry: bool,
    fleet_steal: bool,
    all: bool,
    check_history: bool,
    smoke: bool,
    shards: Vec<usize>,
    shards_given: bool,
    syscalls: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: DEFAULT_SEED,
        smp: false,
        fleet: false,
        blocks: false,
        traces: false,
        fuzz: false,
        telemetry: false,
        fleet_steal: false,
        all: false,
        check_history: false,
        smoke: false,
        shards: vec![1, 2, 4, 8],
        shards_given: false,
        syscalls: None,
    };
    let mut shards_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().expect("--seed takes a value");
                args.seed = parse_u64(&v);
            }
            "--smp" => args.smp = true,
            "--fleet" => args.fleet = true,
            "--blocks" => args.blocks = true,
            "--traces" => args.traces = true,
            "--fuzz" => args.fuzz = true,
            "--telemetry" => args.telemetry = true,
            "--fleet-steal" => args.fleet_steal = true,
            "--all" => args.all = true,
            "--check-history" => args.check_history = true,
            "--smoke" => args.smoke = true,
            "--shards" => {
                let v = it.next().expect("--shards takes a comma-separated list");
                args.shards = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("shard counts are integers"))
                    .collect();
                shards_given = true;
            }
            "--syscalls" => {
                let v = it.next().expect("--syscalls takes a value");
                args.syscalls = Some(parse_u64(&v));
            }
            other => panic!(
                "unknown argument {other} \
                 (try --seed/--smp/--fleet/--blocks/--traces/--fuzz/--telemetry/\
                 --fleet-steal/--all/--check-history/--smoke/--shards)"
            ),
        }
    }
    // --smoke only shrinks the *default* curve; an explicit --shards wins.
    if args.smoke && !shards_given {
        args.shards = vec![1, 2];
    }
    args.shards_given = shards_given;
    args
}

fn parse_u64(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("hex seed")
    } else {
        s.parse().expect("decimal seed")
    }
}

/// One mode's verdict: the process exit code plus the headline numbers
/// `--all` folds into the durable history row. Keys ending in
/// `_speedup` / `_steps_per_sec` participate in `--check-history`
/// regression judgement; the rest ride along for the record.
struct Outcome {
    code: i32,
    headlines: Vec<(String, f64)>,
}

impl Outcome {
    fn new(code: i32, headlines: Vec<(String, f64)>) -> Outcome {
        Outcome { code, headlines }
    }
}

/// One history headline row.
fn head(key: &str, value: f64) -> (String, f64) {
    (key.to_string(), value)
}

fn run_fastpath(seed: u64) -> Outcome {
    let workloads = [
        Workload {
            name: "fig2_hot_loop",
            // Run uncached first so the cached run cannot benefit from a
            // warmer host (allocator, branch predictors).
            uncached: best(|| perf::hot_loop(HOT_LOOP_ITERS, false)),
            cached: best(|| perf::hot_loop(HOT_LOOP_ITERS, true)),
        },
        Workload {
            name: "lmbench_syscall_mix",
            uncached: best(|| perf::syscall_mix(SYSCALL_REPS, false, seed)),
            cached: best(|| perf::syscall_mix(SYSCALL_REPS, true, seed)),
        },
    ];

    let mut all_identical = true;
    println!("perfcheck: simulator throughput, caches on vs off (seed {seed:#x})");
    println!(
        "{:<22} {:>14} {:>14} {:>9} {:>12}  cycles",
        "workload", "cached st/s", "uncached st/s", "speedup", "memo h/m"
    );
    for w in &workloads {
        all_identical &= w.cycles_identical();
        println!(
            "{:<22} {:>14.0} {:>14.0} {:>8.2}x {:>6}/{:<6} {}",
            w.name,
            w.cached.steps_per_sec,
            w.uncached.steps_per_sec,
            w.speedup(),
            w.cached.pac_memo_hits,
            w.cached.pac_memo_misses,
            if w.cycles_identical() {
                "identical"
            } else {
                "MISMATCH"
            }
        );
    }
    let hot_speedup = workloads[0].speedup();
    speedup_table(
        "fastpath",
        "cached st/s",
        "uncached st/s",
        &workloads
            .iter()
            .map(|w| {
                (
                    w.name.to_string(),
                    w.cached.steps_per_sec,
                    w.uncached.steps_per_sec,
                )
            })
            .collect::<Vec<_>>(),
    );

    let mut json = String::from("{\n  \"bench\": \"perfcheck\",\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    json.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"cached\": {}, \"uncached\": {}, \"speedup\": {:.2}, \"cycles_identical\": {}}}{}\n",
            w.name,
            sample_json(&w.cached),
            sample_json(&w.uncached),
            w.speedup(),
            w.cycles_identical(),
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"speedup_target\": {SPEEDUP_TARGET:.1},\n  \"hot_loop_speedup\": {hot_speedup:.2},\n  \"cycles_identical\": {all_identical}\n}}\n"
    );
    write_json("BENCH_2.json", &json);

    let headlines = vec![
        head("bench2_hot_loop_speedup", hot_speedup),
        head(
            "bench2_hot_loop_cached_steps_per_sec",
            workloads[0].cached.steps_per_sec,
        ),
    ];
    if !all_identical {
        eprintln!("FAIL: caches changed simulated cycle/instruction counts");
        return Outcome::new(1, headlines);
    }
    if hot_speedup < SPEEDUP_TARGET {
        eprintln!(
            "note: hot-loop speedup {hot_speedup:.2}x below the {SPEEDUP_TARGET:.1}x target \
             (non-gating; host-dependent)"
        );
    }
    Outcome::new(0, headlines)
}

fn run_smp(args: &Args) -> Outcome {
    let total = args.syscalls.unwrap_or(if args.smoke {
        SMOKE_SYSCALLS
    } else {
        SCALING_SYSCALLS
    });
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfcheck --smp: lmbench-mix scaling, {total} syscalls/point, \
         seed {:#x}, host cores {host_cores}",
        args.seed
    );
    println!(
        "{:>7} {:>12} {:>16} {:>16} {:>10}  totals",
        "shards", "wall secs", "wall st/s", "capacity st/s", "cap. x"
    );

    let points: Vec<ScalingPoint> = args
        .shards
        .iter()
        .map(|&n| perf::smp_scaling(n, total, args.seed))
        .collect();
    // Normalize against the smallest shard count actually measured (the
    // 1-shard point on the default curve); a custom --shards list without
    // a 1-shard entry still gets a honest baseline, recorded in the JSON.
    let base = points
        .iter()
        .min_by_key(|p| p.shards)
        .expect("at least one point");
    let baseline_shards = base.shards;
    let base_capacity = base.capacity_steps_per_sec.max(1e-9);
    let base_wall = base.parallel_steps_per_sec.max(1e-9);
    let mut all_identical = true;
    for p in &points {
        all_identical &= p.simulation_identical;
        println!(
            "{:>7} {:>12.3} {:>16.0} {:>16.0} {:>9.2}x  {}",
            p.shards,
            p.parallel_wall_secs,
            p.parallel_steps_per_sec,
            p.capacity_steps_per_sec,
            p.capacity_steps_per_sec / base_capacity,
            if p.simulation_identical {
                "identical"
            } else {
                "MISMATCH"
            }
        );
    }
    let top = points
        .iter()
        .max_by_key(|p| p.shards)
        .expect("at least one point");
    let capacity_speedup = top.capacity_steps_per_sec / base_capacity;
    let wall_speedup = top.parallel_steps_per_sec / base_wall;
    // Wall scaling is bounded by the host's core count: with fewer cores
    // than shards, the parallel shards time-slice and the wall speedup
    // can legitimately sit at (or below) 1x while capacity scales — make
    // the blind spot explicit instead of letting the number mislead.
    let wall_note = if host_cores < top.shards {
        Some(format!(
            "wall speedup measured with {} pool worker(s) for {} shards on a \
             {host_cores}-core host, so this number understates scaling; the \
             worker and steal counts are recorded per point and in the history \
             row — use capacity_steps_per_sec for the pool's service rate",
            top.host_workers, top.shards
        ))
    } else {
        None
    };
    if let Some(note) = &wall_note {
        eprintln!("disclaimer: {note}");
    }
    speedup_table(
        "smp",
        "capacity st/s",
        "baseline st/s",
        &points
            .iter()
            .map(|p| {
                (
                    format!("lmbench_mix@{}shards", p.shards),
                    p.capacity_steps_per_sec,
                    base_capacity,
                )
            })
            .collect::<Vec<_>>(),
    );

    let mut json = String::from("{\n  \"bench\": \"smp_scaling\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"total_syscalls\": {total},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shards\": {}, \"syscalls\": {}, \"instructions\": {}, \"cycles\": {}, \
             \"parallel_wall_secs\": {:.6}, \"parallel_steps_per_sec\": {:.1}, \
             \"capacity_steps_per_sec\": {:.1}, \"host_workers\": {}, \"steals\": {}, \
             \"simulation_identical\": {}}}{}\n",
            p.shards,
            p.syscalls,
            p.instructions,
            p.cycles,
            p.parallel_wall_secs,
            p.parallel_steps_per_sec,
            p.capacity_steps_per_sec,
            p.host_workers,
            p.steals,
            p.simulation_identical,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"scaling_target\": {SCALING_TARGET:.1},\n  \
         \"baseline_shards\": {baseline_shards},\n  \
         \"capacity_speedup_max_vs_baseline\": {capacity_speedup:.2},\n  \
         \"wall_speedup_max_vs_baseline\": {wall_speedup:.2},\n"
    );
    if let Some(note) = &wall_note {
        let _ = writeln!(json, "  \"wall_speedup_note\": \"{note}\",");
    }
    let _ = write!(json, "  \"simulation_identical\": {all_identical}\n}}\n");
    write_json("BENCH_3.json", &json);

    let mut headlines = vec![
        head("bench3_capacity_speedup", capacity_speedup),
        head(
            "bench3_top_capacity_steps_per_sec",
            top.capacity_steps_per_sec,
        ),
    ];
    // The context the wall-speedup disclaimer used to leave unrecorded:
    // the top point's actual pool shape rides along in the history row.
    headlines.extend(runner::exec_headlines(
        "bench3",
        top.host_workers,
        top.steals,
    ));
    if !all_identical {
        eprintln!("FAIL: parallel and sequential sharding disagreed on simulated totals");
        return Outcome::new(1, headlines);
    }
    if capacity_speedup < SCALING_TARGET && points.len() > 1 {
        eprintln!(
            "note: capacity speedup {capacity_speedup:.2}x below the {SCALING_TARGET:.1}x target \
             (non-gating; host-dependent)"
        );
    }
    if wall_speedup < capacity_speedup / 2.0 {
        eprintln!(
            "note: wall speedup {wall_speedup:.2}x trails capacity {capacity_speedup:.2}x — \
             this host has {host_cores} core(s); parallel wall scaling needs as many cores as shards"
        );
    }
    Outcome::new(0, headlines)
}

/// Cores per fleet shard machine (2: migration and cross-core key
/// restores are part of the tenant mix).
const FLEET_CPUS: usize = 2;
/// Fleet shard counts (full / `--smoke`).
const FLEET_SHARDS: usize = 4;
const FLEET_SMOKE_SHARDS: usize = 2;

/// Shard count for the single-plan fleet modes (`--fleet` / `--blocks` /
/// `--traces` / `--fuzz` / `--telemetry`): an explicit `--shards` uses
/// its first value, otherwise the full/smoke defaults apply.
fn fleet_shards(args: &Args) -> usize {
    if args.shards_given {
        args.shards[0]
    } else if args.smoke {
        FLEET_SMOKE_SHARDS
    } else {
        FLEET_SHARDS
    }
}

fn hist_json(h: &camo_bench::workloads::LatencyHistogram) -> String {
    format!(
        "{{\"count\": {}, \"min\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        h.count(),
        h.min(),
        h.mean(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.max()
    )
}

fn run_fleet(args: &Args) -> Outcome {
    let shards = fleet_shards(args);
    let tenants = fleet::standard_tenants(args.smoke);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfcheck --fleet: {} tenants x {shards} shards x {FLEET_CPUS} cores, seed {:#x}, host cores {host_cores}",
        tenants.len(),
        args.seed
    );

    let m = fleet::measure(shards, FLEET_CPUS, args.seed, tenants);
    let par = &m.parallel;
    let seq = &m.sequential;

    println!(
        "{:<12} {:<18} {:>7} {:>9} {:>12} {:>9} {:>9} {:>9}",
        "tenant", "workload", "ops", "syscalls", "cycles", "p50", "p90", "p99"
    );
    for t in &par.tenants {
        println!(
            "{:<12} {:<18} {:>7} {:>9} {:>12} {:>9} {:>9} {:>9}",
            t.name,
            t.workload,
            t.totals.ops,
            t.totals.syscalls,
            t.totals.cycles,
            t.totals.latency.p50(),
            t.totals.latency.p90(),
            t.totals.latency.p99()
        );
    }
    println!(
        "totals: {} syscalls, {} instructions, {} cycles | wall {:.3}s parallel / {:.3}s sequential | {}",
        par.syscalls,
        par.instructions,
        par.cycles,
        par.wall_secs,
        seq.wall_secs,
        if m.identical { "identical" } else { "MISMATCH" }
    );
    speedup_table(
        "fleet",
        "parallel st/s",
        "sequential st/s",
        &[(
            "fleet_mix".to_string(),
            par.steps_per_sec(),
            par.instructions as f64 / seq.wall_secs.max(1e-9),
        )],
    );

    let mut json = String::from("{\n  \"bench\": \"fleet\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cpus_per_shard\": {FLEET_CPUS},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"tenants\": [\n");
    for (i, t) in par.tenants.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \"syscalls\": {}, \
             \"instructions\": {}, \"cycles\": {}, \"ops_per_wall_sec\": {:.1}, \
             \"steps_per_sec\": {:.1}, \"latency_cycles\": {}}}{}\n",
            t.name,
            t.workload,
            t.totals.ops,
            t.totals.syscalls,
            t.totals.instructions,
            t.totals.cycles,
            t.totals.ops as f64 / par.wall_secs.max(1e-9),
            t.totals.instructions as f64 / par.wall_secs.max(1e-9),
            hist_json(&t.totals.latency),
            if i + 1 < par.tenants.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"totals\": {{\"syscalls\": {}, \"instructions\": {}, \"cycles\": {}, \
         \"parallel_wall_secs\": {:.6}, \"sequential_wall_secs\": {:.6}, \
         \"parallel_steps_per_sec\": {:.1}, \"capacity_steps_per_sec\": {:.1}}},\n  \
         \"exec\": {{\"host_workers\": {}, \"steals\": {}, \"migrations\": {}}},\n  \
         \"simulation_identical\": {}\n}}\n",
        par.syscalls,
        par.instructions,
        par.cycles,
        par.wall_secs,
        seq.wall_secs,
        par.steps_per_sec(),
        seq.capacity_steps_per_sec(),
        par.exec.workers,
        par.exec.steals,
        par.exec.migrations,
        m.identical
    );
    write_json("BENCH_4.json", &json);

    let mut headlines = vec![head(
        "bench4_capacity_steps_per_sec",
        seq.capacity_steps_per_sec(),
    )];
    headlines.extend(runner::exec_headlines(
        "bench4",
        par.exec.workers,
        par.exec.steals,
    ));
    if !m.identical {
        eprintln!("FAIL: parallel and sequential fleet runs disagreed on simulated state");
        return Outcome::new(1, headlines);
    }
    Outcome::new(0, headlines)
}

/// The speedup the block engine is expected to deliver over the cached
/// step loop (hot loop and fleet mix alike).
const BLOCK_SPEEDUP_TARGET: f64 = 2.0;
/// Hot-loop iterations for the `--blocks` A/B (full / `--smoke`).
const BLOCK_HOT_ITERS: u64 = 100_000;
const BLOCK_SMOKE_HOT_ITERS: u64 = 20_000;

/// Repeats for the `--blocks` hot loop (more than [`REPEATS`]: the A/B
/// sits near its gate value, so the minimum-wall estimate needs more
/// draws on a noisy shared host).
const BLOCK_REPEATS: usize = 5;

/// Best-of-[`BLOCK_REPEATS`] for the BENCH_5 hot-loop samples.
fn best_block(
    run: impl Fn() -> camo_bench::blocks::BlockSample,
) -> camo_bench::blocks::BlockSample {
    best_of(
        BLOCK_REPEATS,
        run,
        |s| s.sample.steps_per_sec,
        |s| (s.sample.instructions, s.sample.cycles),
    )
}

fn block_sample_json(s: &camo_bench::blocks::BlockSample) -> String {
    format!(
        "{{\"instructions\": {}, \"cycles\": {}, \"wall_secs\": {:.6}, \
         \"steps_per_sec\": {:.1}, \"block_hits\": {}, \"block_misses\": {}, \
         \"block_invalidations\": {}}}",
        s.sample.instructions,
        s.sample.cycles,
        s.sample.wall_secs,
        s.sample.steps_per_sec,
        s.block_hits,
        s.block_misses,
        s.block_invalidations
    )
}

fn run_blocks(args: &Args) -> Outcome {
    use camo_bench::blocks;

    let hot_iters = if args.smoke {
        BLOCK_SMOKE_HOT_ITERS
    } else {
        BLOCK_HOT_ITERS
    };
    let shards = fleet_shards(args);
    let tenants = fleet::standard_tenants(args.smoke);
    println!(
        "perfcheck --blocks: block engine on vs off (caches on), seed {:#x}, \
         {} tenants x {shards} shards x {FLEET_CPUS} cores",
        args.seed,
        tenants.len()
    );

    // Hot loop: engine off first so the on-arm cannot benefit from a
    // warmer host.
    let hot_off = best_block(|| blocks::hot_loop(hot_iters, false));
    let hot_on = best_block(|| blocks::hot_loop(hot_iters, true));
    let hot_identical = (hot_on.sample.cycles, hot_on.sample.instructions)
        == (hot_off.sample.cycles, hot_off.sample.instructions);
    let hot_speedup = hot_on.sample.steps_per_sec / hot_off.sample.steps_per_sec.max(1e-9);

    // Fleet mix: each arm is itself a parallel/sequential cross-check.
    // Best-of-REPEATS like every other workload (the simulated totals are
    // deterministic and asserted so in the runner; only wall time varies).
    let ab = best_of_fleet_ab(REPEATS, || {
        blocks::fleet_ab(shards, FLEET_CPUS, args.seed, tenants.clone())
    });
    let fleet_identical = (ab.on.parallel.cycles, ab.on.parallel.instructions)
        == (ab.off.parallel.cycles, ab.off.parallel.instructions);
    let arch_identical = ab.arch_identical();
    let mode_identical = ab.on.identical && ab.off.identical;
    let fleet_speedup = ab.speedup();

    println!(
        "{:<22} {:>14} {:>14} {:>9}  cycles",
        "workload", "blocks st/s", "step st/s", "speedup"
    );
    for (name, on, off, speedup, identical) in [
        (
            "fig2_hot_loop",
            hot_on.sample.steps_per_sec,
            hot_off.sample.steps_per_sec,
            hot_speedup,
            hot_identical,
        ),
        (
            "fleet_mix",
            ab.on.sequential.capacity_steps_per_sec(),
            ab.off.sequential.capacity_steps_per_sec(),
            fleet_speedup,
            fleet_identical,
        ),
    ] {
        println!(
            "{:<22} {:>14.0} {:>14.0} {:>8.2}x  {}",
            name,
            on,
            off,
            speedup,
            if identical { "identical" } else { "MISMATCH" }
        );
    }
    let on_stats = &ab.on.parallel.stats;
    println!(
        "fleet block cache: {} hits / {} misses / {} invalidations | arch {} | modes {}",
        on_stats.block_hits,
        on_stats.block_misses,
        on_stats.block_invalidations,
        if arch_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if mode_identical {
            "identical"
        } else {
            "MISMATCH"
        }
    );

    let cycles_identical = hot_identical && fleet_identical;
    let simulation_identical = arch_identical && mode_identical;
    speedup_table(
        "blocks",
        "blocks st/s",
        "step st/s",
        &[
            (
                "fig2_hot_loop".to_string(),
                hot_on.sample.steps_per_sec,
                hot_off.sample.steps_per_sec,
            ),
            (
                "fleet_mix".to_string(),
                ab.on.sequential.capacity_steps_per_sec(),
                ab.off.sequential.capacity_steps_per_sec(),
            ),
        ],
    );

    let mut json = String::from("{\n  \"bench\": \"block_engine\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cpus_per_shard\": {FLEET_CPUS},");
    let _ = writeln!(json, "  \"hot_loop_iters\": {hot_iters},");
    json.push_str("  \"workloads\": [\n");
    let _ = writeln!(
        json,
        "    {{\"name\": \"fig2_hot_loop\", \"blocks_on\": {}, \"blocks_off\": {}, \
         \"speedup\": {hot_speedup:.2}, \"cycles_identical\": {hot_identical}}},",
        block_sample_json(&hot_on),
        block_sample_json(&hot_off),
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"fleet_mix\", \
         \"blocks_on\": {{\"instructions\": {}, \"cycles\": {}, \"syscalls\": {}, \
         \"capacity_steps_per_sec\": {:.1}, \"block_hits\": {}, \"block_misses\": {}, \
         \"block_invalidations\": {}}}, \
         \"blocks_off\": {{\"instructions\": {}, \"cycles\": {}, \"syscalls\": {}, \
         \"capacity_steps_per_sec\": {:.1}}}, \
         \"speedup\": {fleet_speedup:.2}, \"cycles_identical\": {fleet_identical}, \
         \"arch_identical\": {arch_identical}, \
         \"parallel_sequential_identical\": {mode_identical}}}",
        ab.on.parallel.instructions,
        ab.on.parallel.cycles,
        ab.on.parallel.syscalls,
        ab.on.sequential.capacity_steps_per_sec(),
        on_stats.block_hits,
        on_stats.block_misses,
        on_stats.block_invalidations,
        ab.off.parallel.instructions,
        ab.off.parallel.cycles,
        ab.off.parallel.syscalls,
        ab.off.sequential.capacity_steps_per_sec(),
    );
    let _ = write!(
        json,
        "  ],\n  \"speedup_target\": {BLOCK_SPEEDUP_TARGET:.1},\n  \
         \"hot_loop_speedup\": {hot_speedup:.2},\n  \
         \"fleet_speedup\": {fleet_speedup:.2},\n  \
         \"cycles_identical\": {cycles_identical},\n  \
         \"simulation_identical\": {simulation_identical}\n}}\n"
    );
    write_json("BENCH_5.json", &json);

    let headlines = vec![
        head("bench5_hot_loop_speedup", hot_speedup),
        head("bench5_fleet_speedup", fleet_speedup),
    ];
    if !cycles_identical {
        eprintln!("FAIL: the block engine changed simulated cycle/instruction counts");
        return Outcome::new(1, headlines);
    }
    if !simulation_identical {
        eprintln!(
            "FAIL: the block engine changed architectural per-tenant state, or \
             parallel and sequential fleet runs disagreed within an arm"
        );
        return Outcome::new(1, headlines);
    }
    if hot_speedup < BLOCK_SPEEDUP_TARGET || fleet_speedup < BLOCK_SPEEDUP_TARGET {
        eprintln!(
            "note: block-engine speedup {hot_speedup:.2}x hot loop / {fleet_speedup:.2}x fleet, \
             target {BLOCK_SPEEDUP_TARGET:.1}x (non-gating; host-dependent)"
        );
    }
    Outcome::new(0, headlines)
}

/// The speedup the trace tier is expected to deliver *over the blocks-on
/// baseline* (i.e. stacked on top of BENCH_5's win).
const TRACE_SPEEDUP_TARGET: f64 = 2.0;

/// Best-of-[`BLOCK_REPEATS`] for the BENCH_7 hot-loop samples.
fn best_trace(
    run: impl Fn() -> camo_bench::traces::TraceSample,
) -> camo_bench::traces::TraceSample {
    best_of(
        BLOCK_REPEATS,
        run,
        |s| s.sample.steps_per_sec,
        |s| (s.sample.instructions, s.sample.cycles),
    )
}

fn trace_sample_json(s: &camo_bench::traces::TraceSample) -> String {
    format!(
        "{{\"instructions\": {}, \"cycles\": {}, \"wall_secs\": {:.6}, \
         \"steps_per_sec\": {:.1}, \"trace_hits\": {}, \"trace_misses\": {}, \
         \"trace_invalidations\": {}, \"chain_follows\": {}, \"block_hits\": {}}}",
        s.sample.instructions,
        s.sample.cycles,
        s.sample.wall_secs,
        s.sample.steps_per_sec,
        s.trace_hits,
        s.trace_misses,
        s.trace_invalidations,
        s.chain_follows,
        s.block_hits
    )
}

fn run_traces(args: &Args) -> Outcome {
    use camo_bench::traces;

    let hot_iters = if args.smoke {
        BLOCK_SMOKE_HOT_ITERS
    } else {
        BLOCK_HOT_ITERS
    };
    let shards = fleet_shards(args);
    let tenants = fleet::standard_tenants(args.smoke);
    println!(
        "perfcheck --traces: trace tier on vs off (blocks + caches on), seed {:#x}, \
         {} tenants x {shards} shards x {FLEET_CPUS} cores",
        args.seed,
        tenants.len()
    );

    // Hot loop: tier off first so the on-arm cannot benefit from a warmer
    // host.
    let hot_off = best_trace(|| traces::hot_loop(hot_iters, false));
    let hot_on = best_trace(|| traces::hot_loop(hot_iters, true));
    let hot_identical = (hot_on.sample.cycles, hot_on.sample.instructions)
        == (hot_off.sample.cycles, hot_off.sample.instructions);
    let hot_speedup = hot_on.sample.steps_per_sec / hot_off.sample.steps_per_sec.max(1e-9);

    // Fleet mix: best-of-REPEATS, simulated totals asserted deterministic
    // in the runner.
    let ab = best_of_fleet_ab(REPEATS, || {
        traces::fleet_ab(shards, FLEET_CPUS, args.seed, tenants.clone())
    });
    let fleet_identical = (ab.on.parallel.cycles, ab.on.parallel.instructions)
        == (ab.off.parallel.cycles, ab.off.parallel.instructions);
    let arch_identical = ab.arch_identical();
    let mode_identical = ab.on.identical && ab.off.identical;
    let fleet_speedup = ab.speedup();

    println!(
        "{:<22} {:>14} {:>14} {:>9}  cycles",
        "workload", "traces st/s", "blocks st/s", "speedup"
    );
    for (name, on, off, speedup, identical) in [
        (
            "fig2_hot_loop",
            hot_on.sample.steps_per_sec,
            hot_off.sample.steps_per_sec,
            hot_speedup,
            hot_identical,
        ),
        (
            "fleet_mix",
            ab.on.sequential.capacity_steps_per_sec(),
            ab.off.sequential.capacity_steps_per_sec(),
            fleet_speedup,
            fleet_identical,
        ),
    ] {
        println!(
            "{:<22} {:>14.0} {:>14.0} {:>8.2}x  {}",
            name,
            on,
            off,
            speedup,
            if identical { "identical" } else { "MISMATCH" }
        );
    }
    let on_stats = &ab.on.parallel.stats;
    println!(
        "fleet trace cache: {} hits / {} misses / {} invalidations | \
         {} chain follows | block hits {} -> {} | arch {} | modes {}",
        on_stats.trace_hits,
        on_stats.trace_misses,
        on_stats.trace_invalidations,
        on_stats.chain_follows,
        ab.off.parallel.stats.block_hits,
        on_stats.block_hits,
        if arch_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if mode_identical {
            "identical"
        } else {
            "MISMATCH"
        }
    );

    let cycles_identical = hot_identical && fleet_identical;
    let simulation_identical = arch_identical && mode_identical;
    speedup_table(
        "traces",
        "traces st/s",
        "blocks st/s",
        &[
            (
                "fig2_hot_loop".to_string(),
                hot_on.sample.steps_per_sec,
                hot_off.sample.steps_per_sec,
            ),
            (
                "fleet_mix".to_string(),
                ab.on.sequential.capacity_steps_per_sec(),
                ab.off.sequential.capacity_steps_per_sec(),
            ),
        ],
    );

    let mut json = String::from("{\n  \"bench\": \"trace_engine\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cpus_per_shard\": {FLEET_CPUS},");
    let _ = writeln!(json, "  \"hot_loop_iters\": {hot_iters},");
    json.push_str("  \"workloads\": [\n");
    let _ = writeln!(
        json,
        "    {{\"name\": \"fig2_hot_loop\", \"traces_on\": {}, \"traces_off\": {}, \
         \"speedup\": {hot_speedup:.2}, \"cycles_identical\": {hot_identical}}},",
        trace_sample_json(&hot_on),
        trace_sample_json(&hot_off),
    );
    let _ = writeln!(
        json,
        "    {{\"name\": \"fleet_mix\", \
         \"traces_on\": {{\"instructions\": {}, \"cycles\": {}, \"syscalls\": {}, \
         \"capacity_steps_per_sec\": {:.1}, \"trace_hits\": {}, \"trace_misses\": {}, \
         \"trace_invalidations\": {}, \"chain_follows\": {}, \"block_hits\": {}}}, \
         \"traces_off\": {{\"instructions\": {}, \"cycles\": {}, \"syscalls\": {}, \
         \"capacity_steps_per_sec\": {:.1}, \"block_hits\": {}}}, \
         \"speedup\": {fleet_speedup:.2}, \"cycles_identical\": {fleet_identical}, \
         \"arch_identical\": {arch_identical}, \
         \"parallel_sequential_identical\": {mode_identical}}}",
        ab.on.parallel.instructions,
        ab.on.parallel.cycles,
        ab.on.parallel.syscalls,
        ab.on.sequential.capacity_steps_per_sec(),
        on_stats.trace_hits,
        on_stats.trace_misses,
        on_stats.trace_invalidations,
        on_stats.chain_follows,
        on_stats.block_hits,
        ab.off.parallel.instructions,
        ab.off.parallel.cycles,
        ab.off.parallel.syscalls,
        ab.off.sequential.capacity_steps_per_sec(),
        ab.off.parallel.stats.block_hits,
    );
    let _ = write!(
        json,
        "  ],\n  \"speedup_target\": {TRACE_SPEEDUP_TARGET:.1},\n  \
         \"hot_loop_speedup\": {hot_speedup:.2},\n  \
         \"fleet_speedup\": {fleet_speedup:.2},\n  \
         \"cycles_identical\": {cycles_identical},\n  \
         \"simulation_identical\": {simulation_identical}\n}}\n"
    );
    write_json("BENCH_7.json", &json);

    let headlines = vec![
        head("bench7_hot_loop_speedup", hot_speedup),
        head("bench7_fleet_speedup", fleet_speedup),
    ];
    if !cycles_identical {
        eprintln!("FAIL: the trace tier changed simulated cycle/instruction counts");
        return Outcome::new(1, headlines);
    }
    if !simulation_identical {
        eprintln!(
            "FAIL: the trace tier changed architectural per-tenant state, or \
             parallel and sequential fleet runs disagreed within an arm"
        );
        return Outcome::new(1, headlines);
    }
    if hot_speedup < TRACE_SPEEDUP_TARGET || fleet_speedup < TRACE_SPEEDUP_TARGET {
        eprintln!(
            "note: trace-tier speedup {hot_speedup:.2}x hot loop / {fleet_speedup:.2}x fleet, \
             target {TRACE_SPEEDUP_TARGET:.1}x over blocks-on (non-gating; host-dependent)"
        );
    }
    Outcome::new(0, headlines)
}

fn run_fuzz(args: &Args) -> Outcome {
    use camo_bench::fuzz;

    let shards = fleet_shards(args);
    println!(
        "perfcheck --fuzz: adversarial traffic plane, seed {:#x}, \
         {shards} shards x {FLEET_CPUS} cores, block engine on and off",
        args.seed
    );

    let ab = fuzz::measure(shards, FLEET_CPUS, args.seed, args.smoke);

    println!(
        "{:<11} {:>8} {:>7} {:>10} {:>7} {:>9} {:>10} {:>10}",
        "arm", "hostile", "matched", "benign", "fp", "fp rate", "kill p50", "kill p99"
    );
    for (label, arm) in [("blocks_off", &ab.off), ("blocks_on", &ab.on)] {
        let ledger = arm.ledger();
        println!(
            "{:<11} {:>8} {:>7} {:>10} {:>7} {:>9.4} {:>10} {:>10}",
            label,
            ledger.attempted,
            ledger.matched,
            ledger.benign_ops,
            ledger.benign_pac_events,
            ledger.false_positive_rate(),
            ledger.time_to_kill.p50(),
            ledger.time_to_kill.p99()
        );
    }
    println!("{:<22} {:>9} {:>8}", "hostile op", "attempted", "matched");
    for (name, attempted, matched) in ab.on.per_op() {
        println!("{name:<22} {attempted:>9} {matched:>8}");
    }
    for check in ab.on.isolation.iter().chain(&ab.off.isolation) {
        println!(
            "benign tenant {:<8} vs isolated baseline: {}",
            check.name,
            if check.identical {
                "identical"
            } else {
                "MISMATCH"
            }
        );
    }
    let arms_identical = ab.arch_identical();
    println!(
        "arms: {}",
        if arms_identical {
            "identical (hostile ledgers included)"
        } else {
            "MISMATCH"
        }
    );
    speedup_table(
        "fuzz",
        "blocks_on st/s",
        "blocks_off st/s",
        &[(
            "adversarial_mix".to_string(),
            ab.on.mixed.parallel.steps_per_sec(),
            ab.off.mixed.parallel.steps_per_sec(),
        )],
    );

    let mut json = String::from("{\n  \"bench\": \"fuzz\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cpus_per_shard\": {FLEET_CPUS},");
    json.push_str("  \"arms\": [\n");
    let arms = [("blocks_off", &ab.off), ("blocks_on", &ab.on)];
    for (i, (label, arm)) in arms.iter().enumerate() {
        let ledger = arm.ledger();
        let _ = writeln!(json, "    {{\"name\": \"{label}\",");
        let _ = writeln!(
            json,
            "     \"hostile\": {{\"attempted\": {}, \"matched\": {}, \"benign_ops\": {}, \
             \"benign_pac_events\": {}, \"false_positive_rate\": {:.6}, \
             \"time_to_kill_cycles\": {}}},",
            ledger.attempted,
            ledger.matched,
            ledger.benign_ops,
            ledger.benign_pac_events,
            ledger.false_positive_rate(),
            hist_json(&ledger.time_to_kill)
        );
        json.push_str("     \"ops\": [");
        let per_op = arm.per_op();
        for (j, (name, attempted, matched)) in per_op.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"op\": \"{name}\", \"attempted\": {attempted}, \"matched\": {matched}}}{}",
                if j + 1 < per_op.len() { ", " } else { "" }
            );
        }
        json.push_str("],\n     \"tenants\": [");
        let tenants = &arm.mixed.parallel.tenants;
        for (j, t) in tenants.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"name\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \"cycles\": {}, \
                 \"hostile_attempted\": {}, \"benign_pac_events\": {}}}{}",
                t.name,
                t.workload,
                t.totals.ops,
                t.totals.cycles,
                t.totals.hostile.attempted,
                t.totals.hostile.benign_pac_events,
                if j + 1 < tenants.len() { ", " } else { "" }
            );
        }
        json.push_str("],\n     \"isolation\": [");
        for (j, c) in arm.isolation.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"name\": \"{}\", \"identical\": {}}}{}",
                c.name,
                c.identical,
                if j + 1 < arm.isolation.len() {
                    ", "
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(
            json,
            "],\n     \"gates\": {{\"all_hostile_matched\": {}, \"zero_false_positives\": {}, \
             \"benign_isolated\": {}, \"parallel_sequential_identical\": {}}}}}{}",
            arm.all_hostile_matched(),
            arm.zero_false_positives(),
            arm.benign_isolated(),
            arm.mixed.identical,
            if i + 1 < arms.len() { "," } else { "" }
        );
    }
    let pass = ab.passes();
    let _ = write!(
        json,
        "  ],\n  \"arms_arch_identical\": {arms_identical},\n  \"pass\": {pass}\n}}\n"
    );
    write_json("BENCH_6.json", &json);

    let mut code = 0;
    for (label, arm) in arms {
        if !arm.all_hostile_matched() {
            eprintln!("FAIL({label}): a hostile op missed its declared expected outcome");
            code = 1;
        }
        if !arm.zero_false_positives() {
            eprintln!("FAIL({label}): failure-policy events fired in benign op windows");
            code = 1;
        }
        if !arm.benign_isolated() {
            eprintln!(
                "FAIL({label}): a benign tenant's simulated totals deviated from its \
                 isolated baseline under attack load"
            );
            code = 1;
        }
        if !arm.mixed.identical {
            eprintln!("FAIL({label}): parallel and sequential fleet runs disagreed");
            code = 1;
        }
    }
    if !arms_identical {
        eprintln!("FAIL: the block engine changed the adversarial plan's architectural state");
        code = 1;
    }
    // The fuzz gates are pass/fail attributions, not throughput — no
    // perf headlines to fold into the history row.
    Outcome::new(code, Vec::new())
}

/// Overhead budget for the telemetry plane (hard gate: observing
/// the fleet must cost less than 2% of its capacity).
const TELEMETRY_OVERHEAD_BUDGET: f64 = 0.02;
/// Rows the §6 attack matrix is expected to carry.
const ATTACK_MATRIX_ROWS: usize = 24;

fn run_telemetry(args: &Args) -> Outcome {
    use camo_bench::telemetry;

    let shards = fleet_shards(args);
    let tenants = fleet::standard_tenants(args.smoke);
    let window_ops = camo_cpu::telemetry::WINDOW_OPS;
    println!(
        "perfcheck --telemetry: stats plane on vs off, seed {:#x}, \
         {} tenants x {shards} shards x {FLEET_CPUS} cores, \
         window {window_ops} ops",
        args.seed,
        tenants.len(),
    );

    // Best-of-REPEATS like the engine A/Bs: the simulated totals are
    // deterministic (asserted in the runner); only wall time varies, and
    // the overhead gate rides on wall time.
    let ab = best_of_fleet_ab(REPEATS, || {
        telemetry::fleet_ab(shards, FLEET_CPUS, args.seed, tenants.clone())
    });

    let cycles_identical = (ab.on.parallel.cycles, ab.on.parallel.instructions)
        == (ab.off.parallel.cycles, ab.off.parallel.instructions);
    let fully_identical = telemetry::fully_identical(&ab);
    let arch_identical = ab.arch_identical();
    let mode_identical = ab.on.identical && ab.off.identical;
    let off_silent = telemetry::silent(&ab.off.parallel);
    let checks = telemetry::series_checks(&ab.on.parallel);
    let series_complete = checks.iter().all(|c| c.windows > 0 && c.sums_exact);
    let overhead = telemetry::drain_overhead(&ab);
    let overhead_ok = overhead < TELEMETRY_OVERHEAD_BUDGET;
    let matrix = camo_bench::attacks::security_matrix();
    let matrix_ok = matrix.len() == ATTACK_MATRIX_ROWS && matrix.iter().all(|r| r.matches_paper());

    println!(
        "{:<12} {:>9} {:>12} {:>11}  accounting",
        "tenant", "windows", "cycles/win", "sums"
    );
    for (check, tenant) in checks.iter().zip(&ab.on.parallel.tenants) {
        println!(
            "{:<12} {:>9} {:>12.0} {:>11}  {}",
            check.name,
            check.windows,
            tenant.totals.cycles as f64 / (check.windows.max(1)) as f64,
            if check.sums_exact { "exact" } else { "DRIFT" },
            if check.sums_exact {
                "windows sum to end-of-run totals"
            } else {
                "MISMATCH"
            }
        );
    }
    println!(
        "arms: cycles {} | full stats {} | arch {} | modes {} | off arm {} | \
         overhead {:.4} (budget {TELEMETRY_OVERHEAD_BUDGET}) | attack matrix {}/{}",
        if cycles_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if fully_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if arch_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if mode_identical {
            "identical"
        } else {
            "MISMATCH"
        },
        if off_silent { "silent" } else { "LEAKING" },
        overhead,
        matrix.iter().filter(|r| r.matches_paper()).count(),
        matrix.len()
    );
    speedup_table(
        "telemetry",
        "on st/s",
        "off st/s",
        &[(
            "fleet_mix".to_string(),
            ab.on.sequential.capacity_steps_per_sec(),
            ab.off.sequential.capacity_steps_per_sec(),
        )],
    );

    let pass = cycles_identical
        && fully_identical
        && arch_identical
        && mode_identical
        && off_silent
        && series_complete
        && overhead_ok
        && matrix_ok;

    let mut json = String::from("{\n  \"bench\": \"telemetry\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cpus_per_shard\": {FLEET_CPUS},");
    let _ = writeln!(json, "  \"window_ops\": {window_ops},");
    json.push_str("  \"tenants\": [\n");
    for (i, (check, tenant)) in checks.iter().zip(&ab.on.parallel.tenants).enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"workload\": \"{}\", \"windows\": {}, \
             \"ops\": {}, \"cycles\": {}, \"sums_exact\": {}}}{}",
            check.name,
            tenant.workload,
            check.windows,
            tenant.totals.ops,
            tenant.totals.cycles,
            check.sums_exact,
            if i + 1 < checks.len() { "," } else { "" }
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"capacity_on_steps_per_sec\": {:.1},\n  \
         \"capacity_off_steps_per_sec\": {:.1},\n  \
         \"drain_overhead\": {overhead:.6},\n  \
         \"overhead_budget\": {TELEMETRY_OVERHEAD_BUDGET},\n  \
         \"attack_matrix\": {{\"rows\": {}, \"all_match_paper\": {}}},\n  \
         \"gates\": {{\"cycles_identical\": {cycles_identical}, \
         \"fully_identical\": {fully_identical}, \
         \"arch_identical\": {arch_identical}, \
         \"parallel_sequential_identical\": {mode_identical}, \
         \"off_arm_silent\": {off_silent}, \
         \"series_complete\": {series_complete}, \
         \"overhead_within_budget\": {overhead_ok}}},\n  \
         \"pass\": {pass}\n}}",
        ab.on.sequential.capacity_steps_per_sec(),
        ab.off.sequential.capacity_steps_per_sec(),
        matrix.len(),
        matrix_ok,
    );
    write_json("BENCH_8.json", &json);

    let headlines = vec![head("bench8_drain_overhead", overhead)];
    if !cycles_identical || !fully_identical || !arch_identical {
        eprintln!(
            "FAIL: telemetry perturbed the simulation (it must be bit-invisible, \
             observability counters included)"
        );
        return Outcome::new(1, headlines);
    }
    if !mode_identical {
        eprintln!("FAIL: parallel and sequential fleet runs disagreed within an arm");
        return Outcome::new(1, headlines);
    }
    if !off_silent {
        eprintln!("FAIL: the telemetry-off arm emitted time-series windows");
        return Outcome::new(1, headlines);
    }
    if !series_complete {
        eprintln!(
            "FAIL: a tenant's time series was empty or did not sum to its \
             end-of-run totals"
        );
        return Outcome::new(1, headlines);
    }
    if !overhead_ok {
        eprintln!(
            "FAIL: telemetry drain overhead {overhead:.4} exceeds the \
             {TELEMETRY_OVERHEAD_BUDGET} budget"
        );
        return Outcome::new(1, headlines);
    }
    if !matrix_ok {
        eprintln!("FAIL: the attack matrix no longer matches the paper with telemetry in the tree");
        return Outcome::new(1, headlines);
    }
    Outcome::new(0, headlines)
}

/// The wall speedup the work-stealing pool is expected to deliver over
/// the 1:1 thread-per-shard driver — gated only on hosts with ≥4 cores
/// (below that the two modes converge by construction).
const STEAL_WALL_TARGET: f64 = 1.5;
/// Cores a host needs before the wall-speedup gate is meaningful.
const STEAL_GATE_CORES: usize = 4;
/// Fleet-wide p99 simulated-cycle op latency ceiling for the BENCH_9
/// dense plan. Deterministic in the plan (the worst tenant is the
/// module-churn workload), so this gates on every host; the measured
/// value sits near 4.6k cycles, leaving ~5x headroom for mix growth.
const STEAL_P99_TARGET: u64 = 25_000;
/// Wall repeats for the BENCH_9 speedup numbers.
const STEAL_REPEATS: usize = 3;

fn run_fleet_steal(args: &Args) -> Outcome {
    use camo_bench::{steal, telemetry};

    let shards = if args.shards_given {
        args.shards[0]
    } else if args.smoke {
        steal::SMOKE_SHARDS
    } else {
        steal::SHARDS
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tenants = steal::dense_tenants(args.smoke);
    println!(
        "perfcheck --fleet-steal: work-stealing scheduler, seed {:#x}, \
         {} tenants x {shards} shards x 1 core, host cores {host_cores}",
        args.seed,
        tenants.len()
    );

    let m = steal::measure(shards, args.seed, args.smoke, STEAL_REPEATS);
    let bit_identical = m.bit_identical();
    let worker_invariant = m.worker_invariant();
    let pooled = m.pooled_default();
    let checks = telemetry::series_checks(pooled);
    let series_complete = checks.iter().all(|c| c.windows > 0 && c.sums_exact);
    let p99 = m.p99();
    let p99_ok = p99 <= STEAL_P99_TARGET;
    let wall_speedup = m.wall_speedup();
    let wall_gated = host_cores >= STEAL_GATE_CORES;
    let wall_ok = !wall_gated || wall_speedup >= STEAL_WALL_TARGET;

    println!(
        "{:>8} {:>12} {:>16} {:>8} {:>11}  vs oracle",
        "workers", "wall secs", "wall st/s", "steals", "migrations"
    );
    for (w, r) in m.counts.iter().zip(&m.pooled) {
        println!(
            "{:>8} {:>12.3} {:>16.0} {:>8} {:>11}  {}",
            w,
            r.wall_secs,
            r.steps_per_sec(),
            r.exec.steals,
            r.exec.migrations,
            if r.simulation_identical(&m.sequential) {
                "identical"
            } else {
                "MISMATCH"
            }
        );
    }
    println!(
        "{:>8} {:>12.3} {:>16.0} {:>8} {:>11}  {}",
        "1:1",
        m.threaded.wall_secs,
        m.threaded.steps_per_sec(),
        m.threaded.exec.steals,
        m.threaded.exec.migrations,
        if m.threaded.simulation_identical(&m.sequential) {
            "identical"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "wall speedup over 1:1: {wall_speedup:.2}x ({}) | p99 {p99} cycles \
         (target {STEAL_P99_TARGET}) | telemetry {} | invariance {}",
        if wall_gated {
            "gated"
        } else {
            "recorded only; host has fewer than 4 cores"
        },
        if series_complete { "exact" } else { "DRIFT" },
        if worker_invariant {
            "identical"
        } else {
            "MISMATCH"
        }
    );
    speedup_table(
        "fleet-steal",
        "pool st/s",
        "1:1 st/s",
        &[(
            "dense_mix".to_string(),
            pooled.steps_per_sec(),
            m.threaded.steps_per_sec(),
        )],
    );

    let pass = bit_identical && worker_invariant && series_complete && p99_ok && wall_ok;
    let mut json = String::from("{\n  \"bench\": \"fleet_steal\",\n");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"cpus_per_shard\": 1,");
    let _ = writeln!(json, "  \"tenants\": {},", tenants.len());
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    json.push_str("  \"runs\": [\n");
    for (w, r) in m.counts.iter().zip(&m.pooled) {
        let _ = writeln!(
            json,
            "    {{\"workers\": {w}, \"wall_secs\": {:.6}, \"steps_per_sec\": {:.1}, \
             \"steals\": {}, \"migrations\": {}, \"identical_to_oracle\": {}}},",
            r.wall_secs,
            r.steps_per_sec(),
            r.exec.steals,
            r.exec.migrations,
            r.simulation_identical(&m.sequential)
        );
    }
    let _ = writeln!(
        json,
        "    {{\"workers\": \"1:1\", \"wall_secs\": {:.6}, \"steps_per_sec\": {:.1}, \
         \"steals\": 0, \"migrations\": 0, \"identical_to_oracle\": {}}}",
        m.threaded.wall_secs,
        m.threaded.steps_per_sec(),
        m.threaded.simulation_identical(&m.sequential)
    );
    let _ = write!(
        json,
        "  ],\n  \"wall_speedup_over_threaded\": {wall_speedup:.2},\n  \
         \"wall_speedup_target\": {STEAL_WALL_TARGET:.1},\n  \
         \"wall_speedup_gated\": {wall_gated},\n  \
         \"p99_latency_cycles\": {p99},\n  \
         \"p99_target_cycles\": {STEAL_P99_TARGET},\n  \
         \"gates\": {{\"bit_identical\": {bit_identical}, \
         \"worker_invariant\": {worker_invariant}, \
         \"telemetry_series_complete\": {series_complete}, \
         \"p99_within_target\": {p99_ok}, \
         \"wall_speedup_ok\": {wall_ok}}},\n  \
         \"pass\": {pass}\n}}\n"
    );
    write_json("BENCH_9.json", &json);

    let mut headlines = vec![
        head("bench9_steal_wall_speedup", wall_speedup),
        head("bench9_pool_steps_per_sec", pooled.steps_per_sec()),
    ];
    headlines.extend(runner::exec_headlines(
        "bench9",
        pooled.exec.workers,
        pooled.exec.steals,
    ));
    if !bit_identical {
        eprintln!("FAIL: a pooled or 1:1 run diverged from the sequential oracle");
        return Outcome::new(1, headlines);
    }
    if !worker_invariant {
        eprintln!("FAIL: pooled runs disagreed across worker counts");
        return Outcome::new(1, headlines);
    }
    if !series_complete {
        eprintln!(
            "FAIL: a tenant's telemetry series was empty or did not sum to its \
             end-of-run totals under worker migration"
        );
        return Outcome::new(1, headlines);
    }
    if !p99_ok {
        eprintln!(
            "FAIL: fleet-wide p99 latency {p99} cycles exceeds the \
             {STEAL_P99_TARGET}-cycle target"
        );
        return Outcome::new(1, headlines);
    }
    if !wall_ok {
        eprintln!(
            "FAIL: pool wall speedup {wall_speedup:.2}x below the \
             {STEAL_WALL_TARGET:.1}x target on a {host_cores}-core host"
        );
        return Outcome::new(1, headlines);
    }
    if !wall_gated && wall_speedup < STEAL_WALL_TARGET {
        eprintln!(
            "note: wall speedup {wall_speedup:.2}x below the {STEAL_WALL_TARGET:.1}x \
             target, not gated on a {host_cores}-core host (needs {STEAL_GATE_CORES}+)"
        );
    }
    Outcome::new(0, headlines)
}

/// The durable perf-history file `--all` appends to and
/// `--check-history` judges.
const HISTORY_PATH: &str = "BENCH_HISTORY.jsonl";

fn run_all(args: &Args) -> i32 {
    let modes: [(&str, fn(&Args) -> Outcome); 8] = [
        ("fastpath", |a| run_fastpath(a.seed)),
        ("smp", run_smp),
        ("fleet", run_fleet),
        ("blocks", run_blocks),
        ("traces", run_traces),
        ("fuzz", run_fuzz),
        ("telemetry", run_telemetry),
        ("fleet-steal", run_fleet_steal),
    ];
    let mut code = 0;
    let mut headlines: Vec<(String, f64)> = Vec::new();
    for (name, run) in modes {
        println!("=== perfcheck --all: {name} ===");
        let outcome = run(args);
        if outcome.code != 0 {
            eprintln!("FAIL(--all): the {name} family exited {}", outcome.code);
        }
        code = code.max(outcome.code);
        headlines.extend(outcome.headlines);
    }
    // Append the row even on failure: a red run is history too, and the
    // row records what the host actually measured.
    let row = history::HistoryRow::new(args.seed, args.smoke, headlines);
    match history::append(Path::new(HISTORY_PATH), &row) {
        Ok(()) => println!(
            "appended history row ({} headlines, host {}) to {HISTORY_PATH}",
            row.headlines.len(),
            row.host_class
        ),
        Err(e) => {
            eprintln!("FAIL: could not append to {HISTORY_PATH}: {e}");
            code = code.max(1);
        }
    }
    code
}

fn run_check_history() -> i32 {
    let rows = history::load(Path::new(HISTORY_PATH));
    let Some((current, earlier)) = rows.split_last() else {
        println!("note: {HISTORY_PATH} has no rows; nothing to check");
        return 0;
    };
    let Some(baseline) = history::find_baseline(earlier, current) else {
        println!(
            "note: no earlier {} row (smoke: {}) in {HISTORY_PATH}; \
             first run on this host class passes trivially",
            current.host_class, current.smoke
        );
        return 0;
    };
    let found = history::regressions(baseline, current, history::REGRESSION_THRESHOLD);
    println!(
        "checking newest row (ts {}) against baseline (ts {}) on {}, \
         threshold {:.0}%",
        current.timestamp_secs,
        baseline.timestamp_secs,
        current.host_class,
        history::REGRESSION_THRESHOLD * 100.0
    );
    for (key, value) in current
        .headlines
        .iter()
        .filter(|(k, _)| history::comparable(k))
    {
        match baseline.headline(key) {
            Some(base) => println!("  {key}: {value:.2} vs baseline {base:.2}"),
            None => println!("  {key}: {value:.2} (new; no baseline)"),
        }
    }
    if found.is_empty() {
        println!("no regressions past the threshold");
        return 0;
    }
    for r in &found {
        eprintln!(
            "FAIL: {} regressed {:.1}% ({:.2} -> {:.2})",
            r.key,
            r.drop_frac() * 100.0,
            r.baseline,
            r.current
        );
    }
    1
}

fn main() {
    let args = parse_args();
    let code = if args.check_history {
        run_check_history()
    } else if args.all {
        run_all(&args)
    } else if args.fleet_steal {
        run_fleet_steal(&args).code
    } else if args.telemetry {
        run_telemetry(&args).code
    } else if args.fuzz {
        run_fuzz(&args).code
    } else if args.traces {
        run_traces(&args).code
    } else if args.blocks {
        run_blocks(&args).code
    } else if args.fleet {
        run_fleet(&args).code
    } else if args.smp {
        run_smp(&args).code
    } else {
        run_fastpath(args.seed).code
    };
    std::process::exit(code);
}
