//! Long adversarial soak: one `FuzzMix` tenant driven far past the point
//! where a slot-aliasing file heap used to put a forged `f_ops` under a
//! live fd.

use camouflage::smp::{FleetDriver, FleetPlan};
use camouflage::workloads::TenantSpec;

/// Ops per soak run: past the 19k-op abort the ring-slot file heap hit
/// at seed 1.
const SOAK_OPS: u64 = 21_000;

#[test]
fn fuzz_soak_completes_without_benign_pac_events() {
    for seed in [0xCAF0_0D5E, 1, 2, 3] {
        let mut plan = FleetPlan::new(1, seed, vec![TenantSpec::fuzz("fuzz", SOAK_OPS)]);
        plan.cpus_per_shard = 2;
        plan.pac_panic_threshold = Some(u32::MAX);
        let report = FleetDriver::drive_sequential(&plan)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: shard aborted: {e}"));
        let tenant = &report.tenants[0];
        assert_eq!(tenant.totals.ops, SOAK_OPS, "seed {seed:#x}");
        let hostile = &tenant.totals.hostile;
        assert!(
            hostile.attempted > 0,
            "seed {seed:#x}: attacks were mounted"
        );
        assert_eq!(hostile.matched, hostile.attempted, "seed {seed:#x}");
        assert_eq!(hostile.benign_pac_events, 0, "seed {seed:#x}");
    }
}
