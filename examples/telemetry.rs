//! Stats plane: the same four-tenant fleet as the `fleet` example with
//! per-tenant telemetry series switched on, printing
//! each tenant's time series — cycles per window, translation-cache hit
//! rate, PAC failures — and proving the windows sum back to the
//! end-of-run totals.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use camouflage::cpu::CpuStats;
use camouflage::smp::{FleetDriver, FleetPlan};
use camouflage::workloads::TenantSpec;

/// Rows printed per tenant; long series elide the middle.
const MAX_ROWS: usize = 6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut plan = FleetPlan::new(
        2,
        0xCAF0_0D5E,
        vec![
            TenantSpec::lmbench("web", 2_000),
            TenantSpec::process_churn("build-farm", 80),
            TenantSpec::module_churn("driver-ci", 48),
            TenantSpec::tenant_mix("batch", 120),
        ],
    );
    plan.cpus_per_shard = 2;
    plan.telemetry = true;

    println!(
        "telemetry: {} tenants x {} shards x {} cores, stats plane on\n",
        plan.tenants.len(),
        plan.shards,
        plan.cpus_per_shard
    );

    let report = FleetDriver::drive(&plan)?;

    for t in &report.tenants {
        println!(
            "{} ({}): {} windows across the run",
            t.name,
            t.workload,
            t.series.len()
        );
        println!(
            "  {:>4} {:>5} {:>12} {:>10} {:>9}",
            "win", "ops", "cycles", "xlate hit%", "pac fail"
        );
        let elide = t.series.len() > MAX_ROWS;
        let head = if elide { MAX_ROWS - 2 } else { t.series.len() };
        for (i, w) in t.series.iter().enumerate() {
            if elide && i == head {
                println!("  {:>4}", "...");
            }
            if elide && i >= head && i + 2 < t.series.len() {
                continue;
            }
            let s = &w.stats;
            let lookups = s.block_hits + s.block_misses + s.trace_hits + s.trace_misses;
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                100.0 * (s.block_hits + s.trace_hits) as f64 / lookups as f64
            };
            println!(
                "  {:>4} {:>5} {:>12} {:>9.1}% {:>9}",
                i, w.ops, w.cycles, hit_rate, s.pac_auth_fail
            );
        }

        // Lossless accounting: merge the windows back together and they
        // reproduce the tenant's end-of-run totals exactly.
        let mut merged = CpuStats::default();
        let mut cycles = 0;
        for w in &t.series {
            merged.merge(&w.stats);
            cycles += w.cycles;
        }
        assert_eq!(cycles, t.totals.cycles, "window cycles must sum exactly");
        assert_eq!(merged, t.totals.stats, "window stats must sum exactly");
        println!(
            "  sum of windows == end-of-run totals ({} cycles, {} pac auths)\n",
            t.totals.cycles, merged.pac_auth_ok
        );
    }

    println!(
        "fleet totals: {} syscalls, {} cycles — telemetry observed every op \
         without moving a single counter",
        report.syscalls, report.cycles
    );
    Ok(())
}
