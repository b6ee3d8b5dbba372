//! Acceptance properties of the streaming stats plane at fleet scale:
//! every tenant gets a time series, the series sums exactly to the
//! tenant's end-of-run totals, the plane is deterministic and mode
//! invisible, and the off arm is bit-identical to the on arm in
//! everything architectural.

use camo_cpu::telemetry::WINDOW_OPS;
use camo_cpu::CpuStats;
use camo_smp::{FleetDriver, FleetPlan, TenantReport};
use camo_workloads::TenantSpec;

fn telemetry_plan(shards: usize, cpus: usize, seed: u64) -> FleetPlan {
    let mut plan = FleetPlan::new(
        shards,
        seed,
        vec![
            TenantSpec::lmbench("web", 96),
            TenantSpec::process_churn("build-farm", 8),
            TenantSpec::module_churn("driver-ci", 6),
            TenantSpec::tenant_mix("batch", 10),
        ],
    );
    plan.cpus_per_shard = cpus;
    plan.telemetry = true;
    plan
}

/// Sum a tenant's series back into (ops, syscalls, cycles, stats).
fn series_sums(tenant: &TenantReport) -> (u64, u64, u64, CpuStats) {
    let mut stats = CpuStats::default();
    let (mut ops, mut syscalls, mut cycles) = (0, 0, 0);
    for w in &tenant.series {
        ops += w.ops;
        syscalls += w.syscalls;
        cycles += w.cycles;
        stats.merge(&w.stats);
    }
    (ops, syscalls, cycles, stats)
}

#[test]
fn every_tenant_series_sums_exactly_to_its_totals() {
    let report = FleetDriver::drive_sequential(&telemetry_plan(2, 2, 0x7E1E)).expect("fleet runs");
    for t in &report.tenants {
        assert!(!t.series.is_empty(), "{}: empty time series", t.name);
        let (ops, syscalls, cycles, stats) = series_sums(t);
        assert_eq!(ops, t.totals.ops, "{}: ops drifted", t.name);
        assert_eq!(syscalls, t.totals.syscalls, "{}: syscalls drifted", t.name);
        assert_eq!(cycles, t.totals.cycles, "{}: cycles drifted", t.name);
        assert_eq!(
            stats, t.totals.stats,
            "{}: window sums must reproduce the end-of-run CpuStats exactly",
            t.name
        );
        // Cross-shard concatenation: seqs restart per shard segment but
        // are dense and ordered within each, and only a segment's last
        // window may hold fewer than WINDOW_OPS ops.
        let mut expected_seq = 0;
        for (i, w) in t.series.iter().enumerate() {
            if w.seq == 0 {
                expected_seq = 0;
            }
            assert_eq!(w.seq, expected_seq, "{}: series seq not dense", t.name);
            expected_seq += 1;
            assert!(w.ops > 0, "{}: empty window published", t.name);
            let segment_last = t.series.get(i + 1).is_none_or(|next| next.seq == 0);
            assert!(
                w.ops == WINDOW_OPS || (segment_last && w.ops < WINDOW_OPS),
                "{}: window {} holds {} ops off the {WINDOW_OPS}-op cadence",
                t.name,
                w.seq,
                w.ops
            );
        }
    }
}

#[test]
fn telemetry_is_deterministic_and_mode_invisible() {
    let plan = telemetry_plan(3, 2, 0xF1EE7);
    let par = FleetDriver::drive(&plan).expect("parallel fleet runs");
    let seq = FleetDriver::drive_sequential(&plan).expect("sequential fleet runs");
    // simulation_identical compares tenants by PartialEq, which now
    // includes the series: the drive mode must not move a single window.
    assert!(
        par.simulation_identical(&seq),
        "telemetry leaked execution mode into the report"
    );
    let again = FleetDriver::drive(&plan).expect("fleet runs again");
    assert!(again.simulation_identical(&par), "series not deterministic");
    for (a, b) in par.tenants.iter().zip(&seq.tenants) {
        assert_eq!(a.series, b.series, "{}: series diverged by mode", a.name);
    }
}

#[test]
fn telemetry_off_arm_is_bit_identical_and_silent() {
    let mut plan = telemetry_plan(2, 2, 0xB17);
    let on = FleetDriver::drive_sequential(&plan).expect("telemetry-on fleet runs");
    plan.telemetry = false;
    let off = FleetDriver::drive_sequential(&plan).expect("telemetry-off fleet runs");

    assert_eq!(on.syscalls, off.syscalls);
    assert_eq!(on.instructions, off.instructions);
    assert_eq!(on.cycles, off.cycles);
    assert_eq!(
        on.stats, off.stats,
        "telemetry must not disturb a single counter — not even observability ones"
    );
    for (a, b) in on.tenants.iter().zip(&off.tenants) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.totals, b.totals, "{}: totals diverged", a.name);
        assert!(!a.series.is_empty(), "{}: on arm must emit", a.name);
        assert!(b.series.is_empty(), "{}: off arm must stay silent", a.name);
    }
}
