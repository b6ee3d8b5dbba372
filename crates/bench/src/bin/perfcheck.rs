//! Wall-clock regression checks for the simulator's throughput layers.
//!
//! Each family measures one layer, writes one `BENCH_*.json` through
//! [`camo_bench::report::Report`] and exits non-zero when a hard gate or a
//! gated target fails. The four engine A/Bs are [`AbSpec`] entries: the
//! same workloads run under an off and an on plan edit. The other four
//! families fill a report by hand.
//!
//! | Flag | File | Workloads × arms | Hard gates | Targets | History headlines |
//! |---|---|---|---|---|---|
//! | (none) | `BENCH_2.json` | Figure-2 hot loop and lmbench syscall mix × caches off/on (blocks and traces off) | `cycles_identical` | hot loop ≥ 5× (ungated) | `bench2_hot_loop_speedup`, `bench2_hot_loop_cached_steps_per_sec` |
//! | `--smp` | `BENCH_3.json` | one lmbench tenant at each `--shards` count, parallel vs sequential | `simulation_identical` | capacity ≥ 3× at the top point; wall speedup ≥ half the capacity speedup (both ungated) | `bench3_capacity_speedup`, `bench3_top_capacity_steps_per_sec`, `bench3_host_workers` |
//! | `--fleet` | `BENCH_4.json` | the standard tenant mix, parallel vs sequential | `simulation_identical` | — | `bench4_capacity_steps_per_sec`, `bench4_host_workers` |
//! | `--blocks` | `BENCH_5.json` | hot loop and fleet mix × block engine off/on (caches on, traces off) | `cycles_identical`, `arch_identical`, `parallel_sequential_identical`, `simulation_identical` | both ≥ 2× (ungated) | `bench5_hot_loop_speedup`, `bench5_fleet_speedup` |
//! | `--traces` | `BENCH_7.json` | hot loop and fleet mix × trace tier off/on (caches and blocks on) | as `--blocks` | both ≥ 2× (ungated) | `bench7_hot_loop_speedup`, `bench7_fleet_speedup` |
//! | `--fuzz` | `BENCH_6.json` | benign + fuzz tenants × block engine off/on; each benign tenant again alone; one fuzz tenant alone for 21k ops (the soak, same size under `--smoke`) | per arm `<arm>.all_hostile_matched`, `<arm>.zero_false_positives`, `<arm>.benign_isolated`, `<arm>.parallel_sequential_identical`; `arms_arch_identical`; `soak_ok` | — | — |
//! | `--telemetry` | `BENCH_8.json` | fleet mix × telemetry off/on | the `--blocks` fleet gates, plus `fully_identical`, `off_arm_silent`, `series_complete`, `overhead_within_budget` (< 0.02) and `attack_matrix_matches_paper` (24 rows) | — | `bench8_drain_overhead` |
//! | `--fleet-steal` | `BENCH_9.json` | dense tenant mix: sequential oracle, pool at 1/2/N/2N workers and at one worker per shard (1:1) | `bit_identical`, `worker_invariant`, `telemetry_series_complete`, `p99_within_target` (≤ 25 000 cycles) | pool ≥ 1.5× over 1:1 (gated on hosts with 4+ cores) | `bench9_steal_wall_speedup`, `bench9_pool_steps_per_sec`, `bench9_host_workers` |
//!
//! Two meta modes:
//!
//! * **`--all`** runs every family in table order (the exit code is the
//!   worst of them) and appends one row of headlines — host fingerprint,
//!   seed, every family's headlines — to `BENCH_HISTORY.jsonl`.
//! * **`--check-history`** measures nothing: it loads `BENCH_HISTORY.jsonl`
//!   and fails if the newest row regressed any comparable headline by more
//!   than 15% against the last row from the same host class and smoke
//!   setting.
//!
//! Measurement method: a single-machine workload runs the off arm best of
//! N, then the on arm best of N (N = 3; 5 for the `--blocks` and
//! `--traces` hot loops, which sit near their targets). Each fleet A/B
//! repeat runs off and then on, best of 3 per arm on isolated-shard
//! capacity. Every repeat must simulate exactly what the first did.
//!
//! `--seed N` pins the boot seed of the syscall-mix machine and the
//! shard/tenant partitioning, and is emitted into the JSON. `--smoke`
//! shrinks `--smp`, `--fleet`, `--blocks`, `--traces`, `--fuzz`,
//! `--telemetry` and `--fleet-steal` for CI runners. Stdout carries the
//! JSON; stderr carries one uniform speedup table per family plus the
//! `FAIL`/`note` lines. The shared schema and every family's fields are
//! documented in `BENCHMARKS.md`.

use camo_bench::fleet::{self, FleetAb, FleetMeasurement};
use camo_bench::perf::{self, Sample};
use camo_bench::report::{Json, Report};
use camo_bench::workloads::{LatencyHistogram, TenantSpec};
use camo_bench::{fuzz, history, steal};
use camo_cpu::CpuStats;
use camo_smp::{FleetPlan, FleetReport};
use std::path::Path;

/// Hot-loop iterations (the Figure-2 call loop is ~14 insns/iteration);
/// only the `--blocks`/`--traces` A/Bs shrink it under `--smoke`. Every
/// `[full, smoke]` pair below is picked by [`sized`].
const HOT_LOOP_ITERS: u64 = 100_000;
const ENGINE_HOT_LOOP_ITERS: [u64; 2] = [HOT_LOOP_ITERS, 20_000];
/// Rounds of the full syscall mix.
const SYSCALL_REPS: u64 = 40;
/// Best-of repeats per arm (shared CI hosts are noisy, and the minimum
/// wall time is the least contaminated estimate).
const REPEATS: usize = 3;
/// Best-of repeats for the engine hot loops: they sit near their target,
/// so the minimum-wall estimate needs more draws.
const ENGINE_HOT_REPEATS: usize = 5;
/// Default boot seed (the kernel's default, pinned here so the emitted
/// JSON is self-describing).
const DEFAULT_SEED: u64 = 0xCAF0_0D5E;
/// Capacity speedup expected at the top of the scaling curve.
const SCALING_TARGET: f64 = 3.0;
/// Shard counts of the scaling curve.
const SCALING_SHARDS: [&[usize]; 2] = [&[1, 2, 4, 8], &[1, 2]];
/// Syscalls across all shards per scaling point.
const SCALING_SYSCALLS: [u64; 2] = [24_000, 2_000];
/// Cores per fleet shard machine (2: migration and cross-core key
/// restores are part of the tenant mix).
const FLEET_CPUS: usize = 2;
/// Fleet shard counts.
const FLEET_SHARDS: [usize; 2] = [4, 2];
/// Overhead budget for the telemetry plane: observing the fleet must
/// cost less than 2% of its capacity.
const TELEMETRY_OVERHEAD_BUDGET: f64 = 0.02;
/// Rows the §6 attack matrix is expected to carry.
const ATTACK_MATRIX_ROWS: usize = 24;
/// The wall speedup the default pool should deliver over the pool at one
/// worker per shard, gated only on hosts with
/// [`STEAL_GATE_CORES`] cores (below that the two converge by
/// construction).
const STEAL_WALL_TARGET: f64 = 1.5;
const STEAL_GATE_CORES: usize = 4;
/// Fleet-wide p99 simulated-cycle op latency ceiling for the BENCH_9
/// dense plan. Deterministic in the plan (the worst tenant is the
/// module-churn workload), so this gates on every host; the measured
/// value sits near 4.6k cycles, leaving ~5x headroom for mix growth.
const STEAL_P99_TARGET: u64 = 25_000;
/// The durable perf-history file `--all` appends to and
/// `--check-history` judges.
const HISTORY_PATH: &str = "BENCH_HISTORY.jsonl";

/// One perfcheck family: its name, its flag (`None` for the default
/// family) and how it fills its report.
type Family = (&'static str, Option<&'static str>, Run);

enum Run {
    Ab(AbSpec),
    Custom(fn(&Args) -> Report),
}

/// A workload an engine A/B runs under both arms.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// The Figure-2 call loop on one bare CPU.
    HotLoop,
    /// Every modeled syscall on one booted machine.
    SyscallMix,
    /// The standard tenant mix, parallel and sequential per arm.
    Fleet,
}

impl Workload {
    /// The JSON `name` and the key of the workload's metrics.
    fn names(self) -> [&'static str; 2] {
        match self {
            Workload::HotLoop => ["fig2_hot_loop", "hot_loop"],
            Workload::SyscallMix => ["lmbench_syscall_mix", "syscall_mix"],
            Workload::Fleet => ["fleet_mix", "fleet"],
        }
    }
}

/// An engine A/B: the same workloads under two plan edits.
struct AbSpec {
    bench: &'static str,
    file: &'static str,
    /// JSON keys of the off and on arms.
    arms: [&'static str; 2],
    off: fn(&mut FleetPlan),
    on: fn(&mut FleetPlan),
    workloads: &'static [Workload],
    /// Hot-loop iterations, full and `--smoke`.
    hot_iters: [u64; 2],
    /// Best-of repeats for the single-machine workloads.
    repeats: usize,
    /// Ungated speedup target for the hot loop and the fleet mix.
    target: Option<f64>,
    /// History headlines: `<history>_<metric>` for each metric named, out
    /// of `<workload>_speedup` and `<workload>_<on arm>_steps_per_sec`.
    history: &'static str,
    headlines: &'static [&'static str],
    /// Family-specific fields and gates over the fleet A/B.
    extra: Option<fn(&FleetAb, &mut Report)>,
}

const FAMILIES: [Family; 8] = [
    (
        "fastpath",
        None,
        Run::Ab(AbSpec {
            bench: "perfcheck",
            file: "BENCH_2.json",
            arms: ["uncached", "cached"],
            // The block engine is pinned off in both arms: BENCH_2 is the
            // cache A/B alone.
            off: |p| {
                p.fast_caches = false;
                p.block_engine = false;
                p.trace_engine = false;
            },
            on: |p| {
                p.fast_caches = true;
                p.block_engine = false;
                p.trace_engine = false;
            },
            workloads: &[Workload::HotLoop, Workload::SyscallMix],
            hot_iters: [HOT_LOOP_ITERS, HOT_LOOP_ITERS],
            repeats: REPEATS,
            target: Some(5.0),
            history: "bench2",
            headlines: &["hot_loop_speedup", "hot_loop_cached_steps_per_sec"],
            extra: None,
        }),
    ),
    ("smp", Some("--smp"), Run::Custom(run_smp)),
    ("fleet", Some("--fleet"), Run::Custom(run_fleet)),
    (
        "blocks",
        Some("--blocks"),
        Run::Ab(AbSpec {
            bench: "block_engine",
            file: "BENCH_5.json",
            arms: ["blocks_off", "blocks_on"],
            // Caches on in both arms, trace tier off: BENCH_5 measures
            // tier 1 against the already-cached step loop.
            off: |p| {
                p.block_engine = false;
                p.trace_engine = false;
            },
            on: |p| {
                p.block_engine = true;
                p.trace_engine = false;
            },
            workloads: &[Workload::HotLoop, Workload::Fleet],
            hot_iters: ENGINE_HOT_LOOP_ITERS,
            repeats: ENGINE_HOT_REPEATS,
            target: Some(2.0),
            history: "bench5",
            headlines: &["hot_loop_speedup", "fleet_speedup"],
            extra: None,
        }),
    ),
    (
        "traces",
        Some("--traces"),
        Run::Ab(AbSpec {
            bench: "trace_engine",
            file: "BENCH_7.json",
            arms: ["traces_off", "traces_on"],
            // Caches and blocks on in both arms: the trace tier must beat
            // BENCH_5's on arm, so the speedups compose.
            off: |p| {
                p.block_engine = true;
                p.trace_engine = false;
            },
            on: |p| {
                p.block_engine = true;
                p.trace_engine = true;
            },
            workloads: &[Workload::HotLoop, Workload::Fleet],
            hot_iters: ENGINE_HOT_LOOP_ITERS,
            repeats: ENGINE_HOT_REPEATS,
            target: Some(2.0),
            history: "bench7",
            headlines: &["hot_loop_speedup", "fleet_speedup"],
            extra: None,
        }),
    ),
    ("fuzz", Some("--fuzz"), Run::Custom(run_fuzz)),
    (
        "telemetry",
        Some("--telemetry"),
        Run::Ab(AbSpec {
            bench: "telemetry",
            file: "BENCH_8.json",
            arms: ["telemetry_off", "telemetry_on"],
            off: |p| p.telemetry = false,
            on: |p| p.telemetry = true,
            workloads: &[Workload::Fleet],
            hot_iters: [0, 0],
            repeats: REPEATS,
            target: None,
            // `bench8_drain_overhead` comes from `telemetry_gates`.
            history: "bench8",
            headlines: &[],
            extra: Some(telemetry_gates),
        }),
    ),
    (
        "fleet-steal",
        Some("--fleet-steal"),
        Run::Custom(run_fleet_steal),
    ),
];

struct Args {
    seed: u64,
    /// Indexes into [`FAMILIES`] of the family flags given.
    families: Vec<usize>,
    all: bool,
    check_history: bool,
    smoke: bool,
    /// An explicit `--shards` list.
    shards: Option<Vec<usize>>,
    syscalls: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: DEFAULT_SEED,
        families: Vec::new(),
        all: false,
        check_history: false,
        smoke: false,
        shards: None,
        syscalls: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let family = FAMILIES.iter().position(|f| f.1 == Some(arg.as_str()));
        match arg.as_str() {
            _ if family.is_some() => args.families.extend(family),
            "--seed" => args.seed = parse_u64(&it.next().expect("--seed takes a value")),
            "--all" => args.all = true,
            "--check-history" => args.check_history = true,
            "--smoke" => args.smoke = true,
            "--shards" => {
                let v = it.next().expect("--shards takes a comma-separated list");
                let counts = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("shard counts are integers"));
                args.shards = Some(counts.collect());
            }
            "--syscalls" => {
                args.syscalls = Some(parse_u64(&it.next().expect("--syscalls takes a value")))
            }
            other => {
                let flags: Vec<&str> = FAMILIES.iter().filter_map(|f| f.1).collect();
                panic!(
                    "unknown argument {other} (try --seed/{}/--all/--check-history/\
                     --smoke/--shards/--syscalls)",
                    flags.join("/")
                )
            }
        }
    }
    args
}

fn parse_u64(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("hex seed")
    } else {
        s.parse().expect("decimal seed")
    }
}

/// The full or the `--smoke` value of a `[full, smoke]` pair.
fn sized<T: Copy>(args: &Args, [full, smoke]: [T; 2]) -> T {
    if args.smoke {
        smoke
    } else {
        full
    }
}

/// Shard count for a single-plan family: an explicit `--shards` uses its
/// first value, otherwise the family's `[full, smoke]` default applies.
fn shards(args: &Args, defaults: [usize; 2]) -> usize {
    args.shards.as_ref().map_or(sized(args, defaults), |s| s[0])
}

/// The standard fleet plan on [`FLEET_CPUS`]-core shards.
fn standard_plan(args: &Args) -> FleetPlan {
    let mut plan = FleetPlan::new(
        shards(args, FLEET_SHARDS),
        args.seed,
        fleet::standard_tenants(args.smoke),
    );
    plan.cpus_per_shard = FLEET_CPUS;
    plan
}

/// The engine-cache counters every A/B arm reports: PAC memo, block and
/// trace caches. Simulated-state counters are covered by the identity
/// gates instead.
fn counters(s: &CpuStats) -> impl Iterator<Item = (&'static str, Json)> {
    [
        ("pac_memo_hits", s.pac_memo_hits),
        ("pac_memo_misses", s.pac_memo_misses),
        ("block_hits", s.block_hits),
        ("block_misses", s.block_misses),
        ("block_invalidations", s.block_invalidations),
        ("trace_hits", s.trace_hits),
        ("trace_misses", s.trace_misses),
        ("trace_invalidations", s.trace_invalidations),
        ("chain_follows", s.chain_follows),
    ]
    .into_iter()
    .map(|(k, v)| (k, v.into()))
}

fn hist_json(h: &LatencyHistogram) -> Json {
    Json::obj([
        ("count", h.count().into()),
        ("min", h.min().into()),
        ("mean", h.mean().into()),
        ("p50", h.p50().into()),
        ("p90", h.p90().into()),
        ("p99", h.p99().into()),
        ("max", h.max().into()),
    ])
}

/// A fleet measurement's simulated totals and wall rates.
fn measurement_fields(m: &FleetMeasurement) -> Vec<(&'static str, Json)> {
    let (par, seq) = (&m.parallel, &m.sequential);
    vec![
        ("syscalls", par.syscalls.into()),
        ("instructions", par.instructions.into()),
        ("cycles", par.cycles.into()),
        ("parallel_wall_secs", par.wall_secs.into()),
        ("sequential_wall_secs", seq.wall_secs.into()),
        ("parallel_steps_per_sec", par.steps_per_sec().into()),
        (
            "capacity_steps_per_sec",
            seq.capacity_steps_per_sec().into(),
        ),
    ]
}

/// One arm of one A/B workload, as the report needs it.
struct Arm {
    json: Json,
    /// Steps/sec: a single machine's own rate, a fleet's isolated-shard
    /// capacity.
    rate: f64,
    /// Simulated (instructions, cycles), which must match across arms.
    sim: (u64, u64),
}

impl Arm {
    fn sample(s: &Sample) -> Arm {
        let fields = [
            ("instructions", s.instructions.into()),
            ("cycles", s.cycles.into()),
            ("wall_secs", s.wall_secs.into()),
            ("steps_per_sec", s.steps_per_sec().into()),
        ];
        Arm {
            json: Json::obj(fields.into_iter().chain(counters(&s.stats))),
            rate: s.steps_per_sec(),
            sim: (s.instructions, s.cycles),
        }
    }

    fn fleet(m: &FleetMeasurement) -> Arm {
        let fields = measurement_fields(m).into_iter();
        Arm {
            json: Json::obj(fields.chain(counters(&m.parallel.stats))),
            rate: m.sequential.capacity_steps_per_sec(),
            sim: (m.parallel.instructions, m.parallel.cycles),
        }
    }
}

fn run_ab(spec: &AbSpec, args: &Args) -> Report {
    let plan = standard_plan(args);
    let edited = |edit: fn(&mut FleetPlan)| {
        let mut p = plan.clone();
        edit(&mut p);
        p
    };
    let (off_plan, on_plan) = (edited(spec.off), edited(spec.on));
    let hot_iters = sized(args, spec.hot_iters);
    let [off_key, on_key] = spec.arms;
    let mut report = Report::new(
        spec.bench,
        spec.file,
        [&format!("{on_key} st/s"), &format!("{off_key} st/s")],
    );
    report.field("seed", args.seed);
    if spec.workloads.contains(&Workload::Fleet) {
        report.field("shards", plan.shards);
        report.field("cpus_per_shard", FLEET_CPUS);
    }
    if spec.workloads.contains(&Workload::HotLoop) {
        report.field("hot_loop_iters", hot_iters);
    }

    let mut entries = Vec::new();
    let mut metrics = Vec::new();
    let mut all_identical = true;
    for &w in spec.workloads {
        let [name, key] = w.names();
        let mut entry = vec![("name", name.into())];
        let (off, on) = if w == Workload::Fleet {
            let ab = FleetAb::best_of(REPEATS, || FleetAb::measure(&plan, spec.off, spec.on));
            let arch = ab.arch_identical();
            let modes = ab.on.identical && ab.off.identical;
            entry.push(("arch_identical", arch.into()));
            entry.push(("parallel_sequential_identical", modes.into()));
            report.gate("arch_identical", arch);
            report.gate("parallel_sequential_identical", modes);
            report.gate("simulation_identical", arch && modes);
            if let Some(extra) = spec.extra {
                extra(&ab, &mut report);
            }
            (Arm::fleet(&ab.off), Arm::fleet(&ab.on))
        } else {
            let sample = |p: &FleetPlan| match w {
                Workload::HotLoop => perf::hot_loop(hot_iters, p),
                _ => perf::syscall_mix(SYSCALL_REPS, p),
            };
            // The off arm runs all its repeats first, so the on arm cannot
            // benefit from a warmer host.
            let off = perf::best_of(spec.repeats, || sample(&off_plan));
            let on = perf::best_of(spec.repeats, || sample(&on_plan));
            (Arm::sample(&off), Arm::sample(&on))
        };
        let identical = off.sim == on.sim;
        all_identical &= identical;
        let speedup = on.rate / off.rate.max(1e-9);
        report.row(name, on.rate, off.rate);
        if let (Some(min), Workload::HotLoop | Workload::Fleet) = (spec.target, w) {
            report.target(&format!("{key}_speedup"), speedup, min, false);
        }
        metrics.push((format!("{key}_speedup"), speedup));
        metrics.push((format!("{key}_{on_key}_steps_per_sec"), on.rate));
        entry.extend([
            (on_key, on.json),
            (off_key, off.json),
            ("speedup", speedup.into()),
            ("cycles_identical", identical.into()),
        ]);
        entries.push(Json::obj(entry));
    }
    report.field("workloads", entries);
    report.gate("cycles_identical", all_identical);
    for metric in spec.headlines {
        let (_, value) = metrics
            .iter()
            .find(|(m, _)| m == metric)
            .expect("metric measured");
        report.headline(&format!("{}_{metric}", spec.history), *value);
    }
    report
}

/// BENCH_8's gates beyond the engine A/B's: telemetry has no
/// architectural surface at all, so the arms must agree on every counter;
/// the off arm must stay silent and the on arm must account losslessly.
fn telemetry_gates(ab: &FleetAb, report: &mut Report) {
    let (on, off) = (&ab.on.parallel, &ab.off.parallel);
    let checks = fleet::series_checks(on);
    let overhead = (1.0 - ab.speedup()).max(0.0);
    let matrix = camo_bench::attacks::security_matrix();
    let matching = matrix.iter().filter(|r| r.matches_paper()).count();
    let tenants = checks
        .iter()
        .zip(&on.tenants)
        .map(|(c, t)| {
            Json::obj([
                ("name", c.name.as_str().into()),
                ("workload", t.workload.as_str().into()),
                ("windows", c.windows.into()),
                ("ops", t.totals.ops.into()),
                ("cycles", t.totals.cycles.into()),
                ("sums_exact", c.sums_exact.into()),
            ])
        })
        .collect::<Vec<_>>();
    report.field("window_ops", camo_cpu::telemetry::WINDOW_OPS);
    report.field("tenants", tenants);
    report.field("drain_overhead", overhead);
    report.headline("bench8_drain_overhead", overhead);
    report.field("overhead_budget", TELEMETRY_OVERHEAD_BUDGET);
    report.field(
        "attack_matrix",
        Json::obj([
            ("rows", matrix.len().into()),
            ("matching_paper", matching.into()),
        ]),
    );
    let silent = off.tenants.iter().all(|t| t.series.is_empty());
    let within_budget = overhead < TELEMETRY_OVERHEAD_BUDGET;
    let matrix_ok = matrix.len() == ATTACK_MATRIX_ROWS && matching == matrix.len();
    report.gate("fully_identical", fleet::fully_identical(on, off));
    report.gate("off_arm_silent", silent);
    report.gate("series_complete", fleet::series_complete(&checks));
    report.gate("overhead_within_budget", within_budget);
    report.gate("attack_matrix_matches_paper", matrix_ok);
}

/// BENCH_3: one lmbench tenant's syscall quota split over each `--shards`
/// count, run parallel (wall scaling on this host) and sequential
/// (isolated shard capacity).
fn run_smp(args: &Args) -> Report {
    let total = args.syscalls.unwrap_or(sized(args, SCALING_SYSCALLS));
    let host_cores = history::host_cores();
    // --smoke only shrinks the default curve; an explicit --shards wins.
    let counts = args
        .shards
        .clone()
        .unwrap_or(sized(args, SCALING_SHARDS).to_vec());
    let points: Vec<(usize, FleetMeasurement)> = counts
        .iter()
        .map(|&n| {
            let tenants = vec![TenantSpec::lmbench("lmbench", total)];
            (n, fleet::measure(&FleetPlan::new(n, args.seed, tenants)))
        })
        .collect();
    let capacity = |m: &FleetMeasurement| m.sequential.capacity_steps_per_sec();
    // Normalize against the smallest shard count actually measured; a
    // custom --shards list without a 1-shard entry still gets an honest
    // baseline, recorded in the JSON.
    let (base_shards, base) = points.iter().min_by_key(|(n, _)| *n).expect("a point");
    let (_, top) = points.iter().max_by_key(|(n, _)| *n).expect("a point");
    let capacity_speedup = capacity(top) / capacity(base).max(1e-9);
    let wall_speedup = top.parallel.steps_per_sec() / base.parallel.steps_per_sec().max(1e-9);

    let mut report = Report::new(
        "smp_scaling",
        "BENCH_3.json",
        ["capacity st/s", "baseline st/s"],
    );
    report.field("seed", args.seed);
    report.field("total_syscalls", total);
    report.field("host_cores", host_cores);
    let json_points = points
        .iter()
        .map(|(n, m)| {
            report.row(
                &format!("lmbench_mix@{n}shards"),
                capacity(m),
                capacity(base),
            );
            let exec = [
                ("host_workers", m.parallel.exec.workers.into()),
                ("simulation_identical", m.identical.into()),
            ];
            let fields = [("shards", (*n).into())].into_iter();
            Json::obj(fields.chain(measurement_fields(m)).chain(exec))
        })
        .collect::<Vec<_>>();
    report.field("points", json_points);
    report.field("baseline_shards", *base_shards);
    let all_identical = points.iter().all(|(_, m)| m.identical);
    report.gate("simulation_identical", all_identical);
    if points.len() > 1 {
        report.target(
            "capacity_speedup_max_vs_baseline",
            capacity_speedup,
            SCALING_TARGET,
            false,
        );
    }
    // With fewer host cores than shards the parallel shards time-slice,
    // and the wall speedup can sit at or below 1x while capacity scales:
    // `host_cores` and each point's `host_workers` say which case ran.
    report.target(
        "wall_speedup_max_vs_baseline",
        wall_speedup,
        capacity_speedup / 2.0,
        false,
    );
    report.headline("bench3_capacity_speedup", capacity_speedup);
    report.headline("bench3_top_capacity_steps_per_sec", capacity(top));
    // Execution context: no comparable suffix, so it rides along in the
    // history row un-judged (likewise bench4 and bench9).
    report.headline("bench3_host_workers", top.parallel.exec.workers as f64);
    report
}

/// BENCH_4: the standard tenant mix, parallel vs sequential, with
/// per-tenant throughput and latency percentiles.
fn run_fleet(args: &Args) -> Report {
    let plan = standard_plan(args);
    let m = fleet::measure(&plan);
    let (par, seq) = (&m.parallel, &m.sequential);
    let wall = par.wall_secs.max(1e-9);
    let mut report = Report::new(
        "fleet",
        "BENCH_4.json",
        ["parallel st/s", "sequential st/s"],
    );
    report.field("seed", args.seed);
    report.field("shards", plan.shards);
    report.field("cpus_per_shard", FLEET_CPUS);
    report.field("host_cores", history::host_cores());
    let tenants = par
        .tenants
        .iter()
        .map(|t| {
            Json::obj([
                ("name", t.name.as_str().into()),
                ("workload", t.workload.as_str().into()),
                ("ops", t.totals.ops.into()),
                ("syscalls", t.totals.syscalls.into()),
                ("instructions", t.totals.instructions.into()),
                ("cycles", t.totals.cycles.into()),
                ("ops_per_wall_sec", (t.totals.ops as f64 / wall).into()),
                (
                    "steps_per_sec",
                    (t.totals.instructions as f64 / wall).into(),
                ),
                ("latency_cycles", hist_json(&t.totals.latency)),
            ])
        })
        .collect::<Vec<_>>();
    report.field("tenants", tenants);
    report.field("totals", Json::obj(measurement_fields(&m)));
    report.field(
        "exec",
        Json::obj([("host_workers", par.exec.workers.into())]),
    );
    report.gate("simulation_identical", m.identical);
    report.row(
        "fleet_mix",
        par.steps_per_sec(),
        par.instructions as f64 / seq.wall_secs.max(1e-9),
    );
    report.headline(
        "bench4_capacity_steps_per_sec",
        seq.capacity_steps_per_sec(),
    );
    report.headline("bench4_host_workers", par.exec.workers as f64);
    report
}

/// BENCH_6: the adversarial plan once per block-engine arm, each benign
/// tenant also alone as its isolated baseline.
fn run_fuzz(args: &Args) -> Report {
    let shards = shards(args, FLEET_SHARDS);
    let ab = fuzz::measure(shards, FLEET_CPUS, args.seed, args.smoke);
    let mut report = Report::new(
        "fuzz",
        "BENCH_6.json",
        ["blocks_on st/s", "blocks_off st/s"],
    );
    report.field("seed", args.seed);
    report.field("shards", shards);
    report.field("cpus_per_shard", FLEET_CPUS);
    let arms = [("blocks_off", &ab.off), ("blocks_on", &ab.on)];
    let arms_json = arms
        .iter()
        .map(|(label, arm)| {
            let ledger = arm.ledger();
            let ops = arm.per_op().into_iter().map(|(op, attempted, matched)| {
                Json::obj([
                    ("op", op.into()),
                    ("attempted", attempted.into()),
                    ("matched", matched.into()),
                ])
            });
            let tenants = arm.mixed.parallel.tenants.iter().map(|t| {
                Json::obj([
                    ("name", t.name.as_str().into()),
                    ("workload", t.workload.as_str().into()),
                    ("ops", t.totals.ops.into()),
                    ("cycles", t.totals.cycles.into()),
                    ("hostile_attempted", t.totals.hostile.attempted.into()),
                    (
                        "benign_pac_events",
                        t.totals.hostile.benign_pac_events.into(),
                    ),
                ])
            });
            let isolation = arm.isolation.iter().map(|(name, identical)| {
                Json::obj([
                    ("name", name.as_str().into()),
                    ("identical", (*identical).into()),
                ])
            });
            Json::obj([
                ("name", (*label).into()),
                (
                    "hostile",
                    Json::obj([
                        ("attempted", ledger.attempted.into()),
                        ("matched", ledger.matched.into()),
                        ("benign_ops", ledger.benign_ops.into()),
                        ("benign_pac_events", ledger.benign_pac_events.into()),
                        ("false_positive_rate", ledger.false_positive_rate().into()),
                        ("time_to_kill_cycles", hist_json(&ledger.time_to_kill)),
                    ]),
                ),
                ("ops", ops.collect::<Vec<_>>().into()),
                ("tenants", tenants.collect::<Vec<_>>().into()),
                ("isolation", isolation.collect::<Vec<_>>().into()),
            ])
        })
        .collect::<Vec<_>>();
    report.field("arms", arms_json);
    for (label, arm) in arms {
        for (gate, ok) in arm.gates() {
            report.gate(&format!("{label}.{gate}"), ok);
        }
    }
    report.gate("arms_arch_identical", ab.arch_identical());
    let soak = fuzz::soak(args.seed);
    if let Some(e) = &soak.error {
        eprintln!("soak: shard aborted: {e}");
    }
    report.field("soak_ops", soak.ops);
    report.field("soak_ok", soak.ok());
    report.gate("soak_ok", soak.ok());
    report.row(
        "adversarial_mix",
        ab.on.mixed.parallel.steps_per_sec(),
        ab.off.mixed.parallel.steps_per_sec(),
    );
    report
}

/// BENCH_9: the dense tenant mix under the pool at several worker counts
/// and at one worker per shard, against the sequential oracle.
fn run_fleet_steal(args: &Args) -> Report {
    let shards = shards(args, steal::SHARDS);
    let host_cores = history::host_cores();
    let m = steal::measure(shards, args.seed, args.smoke, REPEATS);
    let pooled = m.pooled_default();
    let checks = fleet::series_checks(pooled);
    let p99 = m.p99();

    let mut report = Report::new("fleet_steal", "BENCH_9.json", ["pool st/s", "1:1 st/s"]);
    report.field("seed", args.seed);
    report.field("shards", shards);
    report.field("cpus_per_shard", 1usize);
    report.field("tenants", m.plan.tenants.len());
    report.field("host_cores", host_cores);
    let oracle = |r: &FleetReport| r.simulation_identical(&m.sequential);
    let run = |workers: Json, r: &FleetReport| {
        Json::obj([
            ("workers", workers),
            ("wall_secs", r.wall_secs.into()),
            ("steps_per_sec", r.steps_per_sec().into()),
            ("identical_to_oracle", oracle(r).into()),
        ])
    };
    let mut runs: Vec<Json> = m
        .counts
        .iter()
        .zip(&m.pooled)
        .map(|(&w, r)| run(w.into(), r))
        .collect();
    runs.push(run("1:1".into(), &m.threaded));
    report.field("runs", runs);
    report.field("p99_latency_cycles", p99);
    report.field("p99_target_cycles", STEAL_P99_TARGET);
    let bit_identical = m.pooled.iter().chain([&m.threaded]).all(oracle);
    report.gate("bit_identical", bit_identical);
    report.gate("worker_invariant", m.worker_invariant());
    report.gate("telemetry_series_complete", fleet::series_complete(&checks));
    report.gate("p99_within_target", p99 <= STEAL_P99_TARGET);
    report.target(
        "wall_speedup_over_threaded",
        m.wall_speedup(),
        STEAL_WALL_TARGET,
        host_cores >= STEAL_GATE_CORES,
    );
    report.row(
        "dense_mix",
        pooled.steps_per_sec(),
        m.threaded.steps_per_sec(),
    );
    report.headline("bench9_steal_wall_speedup", m.wall_speedup());
    report.headline("bench9_pool_steps_per_sec", pooled.steps_per_sec());
    report.headline("bench9_host_workers", pooled.exec.workers as f64);
    report
}

fn run_family((_, _, run): &Family, args: &Args) -> Report {
    match run {
        Run::Ab(spec) => run_ab(spec, args),
        Run::Custom(run) => run(args),
    }
}

fn run_all(args: &Args) -> i32 {
    let mut code = 0;
    let mut headlines = Vec::new();
    for family in &FAMILIES {
        let name = family.0;
        eprintln!("=== perfcheck --all: {name} ===");
        let report = run_family(family, args);
        let family_code = report.finish();
        if family_code != 0 {
            eprintln!("FAIL(--all): the {name} family exited {family_code}");
        }
        code = code.max(family_code);
        headlines.extend(report.headlines);
    }
    // Append the row even on failure: a red run is history too, and the
    // row records what the host actually measured.
    let row = history::HistoryRow::new(args.seed, args.smoke, headlines);
    match history::append(Path::new(HISTORY_PATH), &row) {
        Ok(()) => eprintln!(
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
    } else {
        // The family latest in table order wins; no flag means the default.
        let family = args.families.iter().max().copied().unwrap_or(0);
        run_family(&FAMILIES[family], &args).finish()
    };
    std::process::exit(code);
}
