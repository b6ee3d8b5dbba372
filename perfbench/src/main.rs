//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <syscall_hot|fleet_mix|churn> --seed <n> --seconds <s> --trace <0|1> \
//!     [--workers <n>]
//! ```
//!
//! Every run first checks outputs on a prefix of the workload (reference
//! engine configuration against the default one). `--trace 0` then
//! times set-up and serves the workload's plan through
//! `FleetDriver::drive` until `--seconds` have passed, and reports the
//! end-to-end metrics. `--trace 1` serves for half the time, then
//! replays the plan call by call with host-time spans, and reports the
//! per-layer metrics. The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`; the process
//! exits non-zero when any check failed. See README.md for the metrics.

mod check;
mod hostspeed;
mod plans;
mod replay;
mod rows;
mod stats;

use camo_smp::{FleetDriver, FleetPlan, FleetReport};
use camo_workloads::TenantSpec;
use check::ops;
use hostspeed::HostSpeed;
use plans::Workload;
use stats::{median, percentile_sorted, quartiles, ratio};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Command-line arguments, checked.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: Option<usize>,
    /// Internal: serve the plan once and print only `VmHWM` (the child
    /// process behind `peak_rss_mb`).
    rss_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workers = None;
    let mut rss_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--workers" => workers = Some(usize::try_from(number()?).map_err(|e| e.to_string())?),
            "--rss-probe" => rss_probe = value == "1",
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers,
        rss_probe,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics in report order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Attempted and failed ops across every phase.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        println!("FAILED: {why}");
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without leaving it (`unknown` outside a git checkout).
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host peak resident memory (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The serve phase: the plan driven repeatedly until `seconds` passed.
struct Serve {
    /// The first repetition's report (every later one must equal it).
    first: FleetReport,
    /// Simulated instructions per host second, per repetition (M/s).
    mips: Vec<f64>,
    /// Worker idle share per repetition.
    idle: Vec<f64>,
    /// Slowest shard's busy time over the mean, per repetition.
    imbalance: Vec<f64>,
    steals: Vec<f64>,
    migrations: Vec<f64>,
}

/// Drives `plan` until `seconds` passed, calling `between` with each
/// repetition's wall time after it.
fn serve(
    plan: &FleetPlan,
    seconds: u64,
    ledger: &mut Ledger,
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<Serve, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut first: Option<FleetReport> = None;
    let (mut mips, mut idle, mut imbalance, mut steals, mut migrations) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while first.is_none() || Instant::now() < deadline {
        let report = FleetDriver::drive(plan).map_err(|e| format!("serve failed: {e:?}"))?;
        let n = ops(&report);
        ledger.attempted += n;
        if let Some(reference) = &first {
            if !reference.simulation_identical(&report) {
                ledger.fail(
                    n,
                    format!("serve repetition {} diverged from the first", mips.len()),
                );
            }
        }
        let busy: Vec<f64> = report.shards.iter().map(|s| s.wall_secs).collect();
        let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        mips.push(report.instructions as f64 / report.wall_secs / 1e6);
        idle.push(1.0 - busy.iter().sum::<f64>() / (report.exec.workers as f64 * report.wall_secs));
        imbalance.push(ratio(max_busy, mean_busy));
        steals.push(report.exec.steals as f64);
        migrations.push(report.exec.migrations as f64);
        between(report.wall_secs)?;
        first.get_or_insert(report);
    }
    Ok(Serve {
        first: first.expect("at least one repetition"),
        mips,
        idle,
        imbalance,
        steals,
        migrations,
    })
}

/// `VmHWM` of a fresh child process of this benchmark that serves the
/// workload's plan exactly once (see `--rss-probe`).
fn child_peak_rss_mb(args: &Args, workers: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--rss-probe", "1"])
        .args(["--workers", &workers.to_string()])
        .output()
        .map_err(|e| format!("memory probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("memory probe failed: {stdout}"))
}

fn end_to_end(
    plan: &FleetPlan,
    args: &Args,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // After each serve repetition the host-speed reference runs, then
    // set-up runs in a burst (a tenth of the repetition's time, at least
    // one set-up), so the set-up median samples the whole serve window.
    // The repetition and the burst are both normalised by that
    // reference measurement.
    let mut reference = HostSpeed::new(plan.workers.unwrap_or(1));
    let (mut slowdown, mut setup) = (Vec::new(), Vec::new());
    let served = serve(plan, args.seconds, ledger, |rep_secs| {
        let factor = reference.slowdown();
        slowdown.push(factor);
        let start = Instant::now();
        loop {
            let secs = replay::setup_once(plan).map_err(|e| format!("set-up failed: {e:?}"))?;
            setup.push(secs / factor);
            if start.elapsed().as_secs_f64() >= rep_secs / 10.0 {
                return Ok(());
            }
        }
    })?;
    let report = &served.first;
    let total_ops = ops(report);
    let mips: Vec<f64> = served
        .mips
        .iter()
        .zip(&slowdown)
        .map(|(m, s)| m * s)
        .collect();
    let [r1, r2, r3] = quartiles(&served.mips);
    let [q1, q2, q3] = quartiles(&mips);
    let [s1, s2, s3] = quartiles(&slowdown);
    println!(
        "serve: {} repetitions of {} ops, {:.2} M sim insns each; {} set-ups; quartiles: \
         raw M/s {r1:.2} {r2:.2} {r3:.2}, host slowdown {s1:.3} {s2:.3} {s3:.3}, \
         sim_mips {q1:.2} {q2:.2} {q3:.2}",
        served.mips.len(),
        total_ops,
        report.instructions as f64 / 1e6,
        setup.len(),
    );
    let mut worst_p99 = 0;
    for t in &report.tenants {
        let h = &t.totals.latency;
        println!(
            "tenant {:?} ({}): {} samples, p50 {} p99 {} sim cycles",
            t.name,
            t.workload,
            h.count(),
            h.p50(),
            h.p99()
        );
        worst_p99 = worst_p99.max(h.p99());
    }
    metrics.add("sim_mips", median(&mips), "M/s");
    metrics.add("setup_s", median(&setup), "s");
    // Which worker thread serves which shard varies, and with it the
    // allocator's per-thread arenas, so one probe's mark varies by a
    // few percent: report the median of three.
    let rss = (0..3)
        .map(|_| child_peak_rss_mb(args, plan.workers.unwrap_or(1)))
        .collect::<Result<Vec<_>, _>>()?;
    metrics.add("peak_rss_mb", median(&rss), "MB");
    metrics.add(
        "sim_cycles_per_op",
        report.cycles as f64 / total_ops as f64,
        "cycles",
    );
    metrics.add("sim_p99_cycles", worst_p99 as f64, "cycles");
    Ok(())
}

/// The four built-in mixes by workload name, each with the fixed probe
/// that stands in when the workload does not run that mix: a traced
/// replay of the mix alone, with no share of the workload's time.
fn mixes() -> [(&'static str, TenantSpec); 4] {
    [
        ("lmbench-mix", TenantSpec::lmbench("probe", 16_000)),
        ("fork-exec-churn", TenantSpec::process_churn("probe", 1_000)),
        ("module-churn", TenantSpec::module_churn("probe", 2_000)),
        ("tenant-switch-mix", TenantSpec::tenant_mix("probe", 4_000)),
    ]
}

fn per_layer(
    plan: &FleetPlan,
    args: &Args,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // Half the time serves through the pool (the smp rows); the other
    // half alternates untraced sequential drives with traced replays, so
    // the overhead compares medians of interleaved runs on one thread.
    let served = serve(plan, args.seconds.div_ceil(2), ledger, |_| Ok(()))?;
    let report = &served.first;
    let total_ops = ops(report);
    let deadline = Instant::now() + Duration::from_secs(args.seconds / 2);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced: Option<replay::Replay> = None;
    // Pairs alternate which side runs first: whichever runs second was
    // measured slower on this host, by up to a fifth.
    while traced_s.len() < 4 || Instant::now() < deadline {
        for traced_turn in [traced_s.len() % 2 == 1, traced_s.len() % 2 == 0] {
            ledger.attempted += total_ops;
            if traced_turn {
                let run = replay::replay(plan).map_err(|e| format!("traced replay: {e:?}"))?;
                if let Some(diff) = replay::first_difference(report, &run) {
                    ledger.fail(
                        total_ops,
                        format!("traced replay measured different work: {diff}"),
                    );
                }
                traced_s.push(run.wall_ns as f64 / 1e9);
                traced.get_or_insert(run);
            } else {
                let sequential = FleetDriver::drive_sequential(plan)
                    .map_err(|e| format!("sequential drive: {e:?}"))?;
                if !sequential.simulation_identical(report) {
                    ledger.fail(total_ops, "sequential drive diverged from the pool".into());
                }
                untraced_s.push(sequential.wall_secs);
            }
        }
    }
    let traced = traced.expect("at least one traced replay");
    let (traced_med, untraced_med) = (median(&traced_s), median(&untraced_s));
    println!(
        "traced replay: median {traced_med:.3} s against {untraced_med:.3} s untraced \
         sequential over {} pairs; {:.1}% of the first replay in spans",
        traced_s.len(),
        100.0 * traced.spanned_ns() as f64 / traced.wall_ns as f64
    );

    metrics.add("smp.worker_idle_share", median(&served.idle), "share");
    metrics.add(
        "smp.shard_busy_max_over_mean",
        median(&served.imbalance),
        "ratio",
    );
    metrics.add("smp.steals", median(&served.steals), "count");
    metrics.add("smp.migrations", median(&served.migrations), "count");

    for (mix, probe_tenant) in mixes() {
        let (spans, share) = match traced.mixes.get(mix) {
            Some(spans) => (
                spans.clone(),
                spans.busy_ns() as f64 / traced.wall_ns as f64,
            ),
            None => {
                let mut probe = FleetPlan::new(1, args.seed, vec![probe_tenant]);
                probe.cpus_per_shard = 2;
                let run = replay::replay(&probe).map_err(|e| format!("{mix} probe: {e:?}"))?;
                let spans = run.mixes.get(mix).cloned().unwrap_or_default();
                ledger.attempted += spans.step_ns.len() as u64;
                (spans, 0.0)
            }
        };
        let mut sorted = spans.step_ns.clone();
        sorted.sort_unstable();
        let prefix = format!("workloads.{mix}");
        let us = |q| percentile_sorted(&sorted, q) as f64 / 1e3;
        metrics.add(format!("{prefix}.step_us_p50"), us(0.50), "us");
        metrics.add(format!("{prefix}.step_us_p99"), us(0.99), "us");
        metrics.add(
            format!("{prefix}.host_ns_per_sim_insn"),
            ratio(spans.busy_ns() as f64, spans.sim_insns as f64),
            "ns",
        );
        metrics.add(format!("{prefix}.busy_share"), share, "share");
    }

    let to_ms = |ns: &[u64]| median(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>());
    let s = &report.stats;
    metrics.add("kernel.boot_ms", to_ms(&traced.boot_ns), "ms");
    metrics.add("kernel.tenant_setup_ms", to_ms(&traced.tenant_new_ns), "ms");
    metrics.add("kernel.syscalls", report.syscalls as f64, "count");
    metrics.add("kernel.exceptions", s.exceptions as f64, "count");

    let rows = rows::measure();
    metrics.add("kernel.syscall_ns", rows.syscall_ns, "ns");

    let (traces, blocks) = (s.trace_hits as f64, s.block_hits as f64);
    metrics.add("cpu.trace_share", ratio(traces, traces + blocks), "share");
    metrics.add("cpu.trace_misses", s.trace_misses as f64, "count");
    metrics.add(
        "cpu.trace_invalidations",
        s.trace_invalidations as f64,
        "count",
    );
    metrics.add("cpu.chain_follows", s.chain_follows as f64, "count");
    metrics.add("cpu.step_ns_per_insn", rows.step_ns_per_insn, "ns");
    metrics.add("cpu.block_ns_per_insn", rows.block_ns_per_insn, "ns");
    metrics.add("cpu.trace_ns_per_insn", rows.trace_ns_per_insn, "ns");
    metrics.add(
        "cpu.block_hit_ratio",
        ratio(blocks, blocks + s.block_misses as f64),
        "share",
    );
    metrics.add("cpu.block_misses", s.block_misses as f64, "count");
    metrics.add(
        "cpu.block_invalidations",
        s.block_invalidations as f64,
        "count",
    );
    metrics.add("isa.decode_ns", rows.decode_ns, "ns");

    let (hits, misses) = (s.tlb_hits as f64, s.tlb_misses as f64);
    metrics.add("mem.tlb_hit_ratio", ratio(hits, hits + misses), "share");
    metrics.add("mem.tlb_misses_per_op", misses / total_ops as f64, "count");
    metrics.add("mem.translate_ns_hit", rows.translate_ns_hit, "ns");
    metrics.add("mem.translate_ns_walk", rows.translate_ns_walk, "ns");

    let (memo_hits, memo_misses) = (s.pac_memo_hits as f64, s.pac_memo_misses as f64);
    metrics.add(
        "cpu.pac.memo_hit_ratio",
        ratio(memo_hits, memo_hits + memo_misses),
        "share",
    );
    metrics.add("cpu.pac.signs", s.pac_signs as f64, "count");
    metrics.add(
        "cpu.pac.auths",
        (s.pac_auth_ok + s.pac_auth_fail) as f64,
        "count",
    );
    metrics.add("cpu.key_writes", s.key_writes as f64, "count");
    metrics.add("qarma.calls", memo_misses, "count");
    metrics.add("qarma.mac_ns", rows.qarma_mac_ns, "ns");
    metrics.add("cpu.pac.sign_ns_memo_hit", rows.sign_ns_memo_hit, "ns");

    metrics.add(
        "bench.trace_overhead_share",
        traced_med / untraced_med - 1.0,
        "share",
    );
    metrics.add(
        "bench.unattributed_share",
        1.0 - traced.spanned_ns() as f64 / traced.wall_ns as f64,
        "share",
    );
    println!(
        "design: {} shards on {} workers; {:.3} TLB misses per 1e5 hits; {} block misses, \
         {:.4} per op",
        plan.shards,
        report.exec.workers,
        ratio(misses * 1e5, hits),
        s.block_misses,
        s.block_misses as f64 / total_ops as f64
    );
    Ok(())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The workload's plan with the driver's default pool or as `--workers`
/// asks; a pool larger than the host is refused.
fn sized_plan(args: &Args) -> Result<FleetPlan, String> {
    let nproc = nproc();
    let mut plan = args.workload.plan(args.seed);
    let workers = args
        .workers
        .unwrap_or_else(|| FleetDriver::default_workers(&plan));
    if workers == 0 || workers > nproc {
        return Err(format!(
            "refusing {workers} workers on a host with {nproc} hardware threads"
        ));
    }
    plan.workers = Some(workers);
    Ok(plan)
}

fn run(
    args: &Args,
    plan: &FleetPlan,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (nproc, workers) = (nproc(), plan.workers.unwrap_or(1));
    println!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \
         \"workers\": {workers}, \"rustc\": {}, \"commit\": {}}}}}",
        json_string(args.workload.name()),
        args.seed,
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(&commit()),
    );
    println!("plan: {}", plans::describe(plan));

    let mut prefix = args.workload.prefix_plan(args.seed);
    prefix.workers = Some(workers);
    let checked = check::run(&prefix);
    ledger.attempted += checked.attempted;
    if let Some(why) = checked.first_mismatch {
        ledger.fail(checked.failed, format!("output check: {why}"));
    }

    if args.trace {
        per_layer(plan, args, ledger, metrics)
    } else {
        end_to_end(plan, args, ledger, metrics)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match sized_plan(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        return match FleetDriver::drive(&plan) {
            Ok(_) => {
                println!("{}", peak_rss_mb());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: memory probe: {e:?}");
                ExitCode::FAILURE
            }
        };
    }
    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    if let Err(e) = run(&args, &plan, &mut ledger, &mut metrics) {
        // A simulator error is a failed run: report it, with no metrics.
        ledger.attempted += 1;
        ledger.fail(1, e);
        metrics = Metrics::default();
    }
    for m in &metrics.0 {
        println!("{:<48} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.attempted.max(1),
        ledger.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
