//! Acceptance properties of the multi-tenant fleet driver: a mixed-tenant
//! plan's parallel and sequential runs are bit-identical in *everything*
//! simulated — totals, per-tenant counters, and latency histograms — and
//! tenant accounting is exact.

use camo_smp::{FleetDriver, FleetPlan};
use camo_workloads::TenantSpec;

fn mixed_plan(shards: usize, cpus: usize, seed: u64) -> FleetPlan {
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
    plan
}

#[test]
fn parallel_and_sequential_fleets_are_bit_identical() {
    let plan = mixed_plan(3, 2, 0xF1EE7);
    let par = FleetDriver::drive(&plan).expect("parallel fleet runs");
    let seq = FleetDriver::drive_sequential(&plan).expect("sequential fleet runs");
    assert!(
        par.simulation_identical(&seq),
        "execution mode leaked into the simulation"
    );
    // Spot-check that the identity covers the interesting structure, not
    // just the top-line sums.
    for (p, s) in par.tenants.iter().zip(&seq.tenants) {
        assert_eq!(
            p.totals.latency, s.totals.latency,
            "tenant {} histogram",
            p.name
        );
        assert_eq!(p.totals.stats, s.totals.stats, "tenant {} stats", p.name);
        assert_eq!(
            (
                p.totals.latency.p50(),
                p.totals.latency.p90(),
                p.totals.latency.p99()
            ),
            (
                s.totals.latency.p50(),
                s.totals.latency.p90(),
                s.totals.latency.p99()
            ),
            "tenant {} percentiles",
            p.name
        );
    }
}

#[test]
fn fleet_runs_are_deterministic_in_the_plan() {
    let plan = mixed_plan(2, 1, 77);
    let a = FleetDriver::drive(&plan).expect("fleet runs");
    let b = FleetDriver::drive(&plan).expect("fleet runs again");
    assert!(a.simulation_identical(&b));
    let other = FleetDriver::drive(&mixed_plan(2, 1, 78)).expect("other seed runs");
    assert_ne!(
        a.cycles, other.cycles,
        "a different seed must reshuffle the op streams"
    );
}

#[test]
fn tenant_accounting_is_exact() {
    let plan = mixed_plan(2, 2, 31);
    let report = FleetDriver::drive_sequential(&plan).expect("fleet runs");

    // Quotas are honored exactly.
    let by_name: std::collections::HashMap<_, _> = report
        .tenants
        .iter()
        .map(|t| (t.name.as_str(), t))
        .collect();
    assert_eq!(
        by_name["web"].totals.syscalls, 96,
        "syscall quota hit exactly"
    );
    assert_eq!(by_name["build-farm"].totals.ops, 8);
    assert_eq!(by_name["driver-ci"].totals.ops, 6);
    assert_eq!(by_name["batch"].totals.ops, 10);

    // Tenant sums equal fleet totals (no work is unattributed or
    // double-counted).
    assert_eq!(
        report.tenants.iter().map(|t| t.totals.cycles).sum::<u64>(),
        report.cycles
    );
    assert_eq!(
        report
            .tenants
            .iter()
            .map(|t| t.totals.instructions)
            .sum::<u64>(),
        report.instructions
    );
    assert_eq!(
        report
            .tenants
            .iter()
            .map(|t| t.totals.syscalls)
            .sum::<u64>(),
        report.syscalls
    );

    // Every tenant has a real latency distribution.
    for t in &report.tenants {
        assert_eq!(
            t.totals.latency.count(),
            t.totals.ops,
            "{}: one sample per op",
            t.name
        );
        assert!(t.totals.latency.p50() > 0, "{}", t.name);
        assert!(
            t.totals.latency.p50() <= t.totals.latency.p90(),
            "{}",
            t.name
        );
        assert!(
            t.totals.latency.p90() <= t.totals.latency.p99(),
            "{}",
            t.name
        );
    }

    // The workload names made it through.
    assert_eq!(by_name["web"].workload, "lmbench-mix");
    assert_eq!(by_name["build-farm"].workload, "fork-exec-churn");
    assert_eq!(by_name["driver-ci"].workload, "module-churn");
    assert_eq!(by_name["batch"].workload, "tenant-switch-mix");
}

#[test]
fn tenant_streams_survive_plan_membership_changes() {
    // Per-tenant op streams are seeded by `tenant_stream_seed(seed,
    // shard, name)` — derived from the tenant's *name*, not its index —
    // so adding a tenant to the end of a plan must not move any existing
    // tenant's stream, and (because spawn order fixes scheduler
    // placement) must not change a single architectural quantity of the
    // tenants it joins. This is the property the BENCH_6
    // isolated-baseline gate stands on.
    let shared = vec![
        TenantSpec::lmbench("web", 96),
        TenantSpec::tenant_mix("batch", 12),
    ];
    let mut small = FleetPlan::new(2, 0x5EED, shared.clone());
    small.cpus_per_shard = 2;
    small.pac_panic_threshold = Some(u32::MAX);
    let mut tenants = shared;
    tenants.push(TenantSpec::fuzz("fuzz-0", 24));
    let mut grown = FleetPlan::new(2, 0x5EED, tenants);
    grown.cpus_per_shard = 2;
    grown.pac_panic_threshold = Some(u32::MAX);

    let a = FleetDriver::drive_sequential(&small).expect("two-tenant plan runs");
    let b = FleetDriver::drive_sequential(&grown).expect("three-tenant plan runs");
    assert_eq!(b.tenants.len(), 3, "the grown plan served the fuzz tenant");
    let hostile: u64 = b.tenants.iter().map(|t| t.totals.hostile.attempted).sum();
    assert!(hostile > 0, "the added tenant mounted attacks");
    for x in &a.tenants {
        let y = b
            .tenants
            .iter()
            .find(|t| t.name == x.name)
            .expect("shared tenant served in both plans");
        assert_eq!(x.totals.ops, y.totals.ops, "{}", x.name);
        assert_eq!(x.totals.syscalls, y.totals.syscalls, "{}", x.name);
        assert_eq!(x.totals.instructions, y.totals.instructions, "{}", x.name);
        assert_eq!(x.totals.cycles, y.totals.cycles, "{}", x.name);
        assert!(
            x.totals.stats.arch_eq(&y.totals.stats),
            "{}: architectural counters moved when a tenant was added",
            x.name
        );
        assert_eq!(x.totals.latency, y.totals.latency, "{}", x.name);
        assert_eq!(
            x.totals.hostile.benign_pac_events, 0,
            "{}: benign tenant saw a failure-policy event",
            x.name
        );
        assert_eq!(y.totals.hostile.benign_pac_events, 0, "{}", x.name);
    }
}

#[test]
fn block_engine_is_architecturally_invisible_to_the_fleet() {
    // The `perfcheck --blocks` contract, asserted at test scale: the same
    // plan with the block engine on and off must agree on every
    // architectural quantity — totals, per-tenant counters, and the
    // per-tenant simulated-cycle latency histograms — while the engine
    // counters prove the on-arm actually translated blocks.
    let tenants = vec![
        TenantSpec::lmbench("web", 96),
        TenantSpec::module_churn("driver-ci", 6),
        TenantSpec::tenant_mix("batch", 12),
    ];
    let mut plan = FleetPlan::new(2, 0xB10C5, tenants);
    plan.cpus_per_shard = 2;
    plan.block_engine = true;
    let on = FleetDriver::drive_sequential(&plan).expect("engine-on fleet runs");
    plan.block_engine = false;
    let off = FleetDriver::drive_sequential(&plan).expect("engine-off fleet runs");

    assert_eq!(on.syscalls, off.syscalls);
    assert_eq!(on.instructions, off.instructions);
    assert_eq!(on.cycles, off.cycles);
    assert!(
        on.stats.arch_eq(&off.stats),
        "architectural counters diverged: {:?} vs {:?}",
        on.stats,
        off.stats
    );
    for (a, b) in on.tenants.iter().zip(&off.tenants) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.totals.ops, b.totals.ops, "{}", a.name);
        assert_eq!(a.totals.syscalls, b.totals.syscalls, "{}", a.name);
        assert_eq!(a.totals.instructions, b.totals.instructions, "{}", a.name);
        assert_eq!(a.totals.cycles, b.totals.cycles, "{}", a.name);
        assert!(a.totals.stats.arch_eq(&b.totals.stats), "{}", a.name);
        assert_eq!(a.totals.latency, b.totals.latency, "{}", a.name);
    }
    assert!(on.stats.block_hits > 0, "the engine served cached blocks");
    // Every tenant's ops ran through the engine. Hits are not guaranteed
    // per tenant — module churn maps fresh frames per load, so its blocks
    // decode anew each op — but engine activity is.
    assert!(
        on.tenants
            .iter()
            .all(|t| t.totals.stats.block_hits + t.totals.stats.block_misses > 0),
        "every tenant's ops ran through the engine"
    );
    assert_eq!(off.stats.block_hits, 0, "the off arm really stepped");

    // And within the on arm, parallel and sequential still agree bit for
    // bit (the BENCH_4 invariant survives the new engine).
    plan.block_engine = true;
    let par = FleetDriver::drive(&plan).expect("parallel engine-on fleet runs");
    assert!(par.simulation_identical(&on));
}

#[test]
fn trace_engine_is_architecturally_invisible_to_the_fleet() {
    // The `perfcheck --traces` contract at test scale: the same plan with
    // the trace tier on and off (block engine on in both arms) must agree
    // on every architectural quantity, while the trace counters prove the
    // on-arm actually promoted and executed traces.
    let tenants = vec![
        TenantSpec::lmbench("web", 96),
        TenantSpec::module_churn("driver-ci", 6),
        TenantSpec::tenant_mix("batch", 12),
    ];
    let mut plan = FleetPlan::new(2, 0xB10C5, tenants);
    plan.cpus_per_shard = 2;
    plan.trace_engine = true;
    let on = FleetDriver::drive_sequential(&plan).expect("trace-on fleet runs");
    plan.trace_engine = false;
    let off = FleetDriver::drive_sequential(&plan).expect("trace-off fleet runs");

    assert_eq!(on.syscalls, off.syscalls);
    assert_eq!(on.instructions, off.instructions);
    assert_eq!(on.cycles, off.cycles);
    assert!(
        on.stats.arch_eq(&off.stats),
        "architectural counters diverged: {:?} vs {:?}",
        on.stats,
        off.stats
    );
    for (a, b) in on.tenants.iter().zip(&off.tenants) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.totals.ops, b.totals.ops, "{}", a.name);
        assert_eq!(a.totals.syscalls, b.totals.syscalls, "{}", a.name);
        assert_eq!(a.totals.instructions, b.totals.instructions, "{}", a.name);
        assert_eq!(a.totals.cycles, b.totals.cycles, "{}", a.name);
        assert!(a.totals.stats.arch_eq(&b.totals.stats), "{}", a.name);
        assert_eq!(a.totals.latency, b.totals.latency, "{}", a.name);
    }
    assert!(on.stats.trace_hits > 0, "the tier actually served traces");
    assert_eq!(off.stats.trace_hits, 0, "the off arm really had it off");
    assert!(
        on.stats.block_hits < off.stats.block_hits,
        "traces absorbed block-cache traffic: {} vs {}",
        on.stats.block_hits,
        off.stats.block_hits
    );

    // Parallel and sequential still agree bit for bit with traces on.
    plan.trace_engine = true;
    let par = FleetDriver::drive(&plan).expect("parallel trace-on fleet runs");
    assert!(par.simulation_identical(&on));
}
