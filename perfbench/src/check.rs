//! The output check: a prefix of the workload in the reference engine
//! configuration against the same prefix in the default one.
//!
//! The reference configuration turns the fast-path caches, the block
//! engine and the trace tier off, so every instruction goes through the
//! uncached interpreter. Everything simulated must come out the same:
//! per-tenant instructions, cycles, architectural counters
//! (`CpuStats::arch_eq`) and latency histograms, on every shard, with
//! no benign PAC event in either run.

use camo_smp::{FleetDriver, FleetPlan, FleetReport};

/// The verdict of one output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Ops executed across both runs.
    pub attempted: u64,
    /// Ops of tenants whose outputs mismatched (or of a run that failed).
    pub failed: u64,
    /// The first mismatch, naming its shard and tenant.
    pub first_mismatch: Option<String>,
}

/// The reference engine configuration of `plan`: caches, blocks and
/// traces off.
fn reference(plan: &FleetPlan) -> FleetPlan {
    let mut plan = plan.clone();
    plan.fast_caches = false;
    plan.block_engine = false;
    plan.trace_engine = false;
    plan
}

/// Tenant ops a fleet run executed.
pub fn ops(report: &FleetReport) -> u64 {
    report.tenants.iter().map(|t| t.totals.ops).sum()
}

/// Runs `prefix` in the reference and in its own configuration and
/// compares every shard's tenants.
pub fn run(prefix: &FleetPlan) -> CheckOutcome {
    let reference_run = FleetDriver::drive(&reference(prefix));
    let default_run = FleetDriver::drive(prefix);
    match (reference_run, default_run) {
        (Ok(a), Ok(b)) => compare(&a, &b),
        (a, b) => {
            let attempted = a.as_ref().map_or(0, ops) + b.as_ref().map_or(0, ops);
            let err = a.err().or(b.err()).expect("one run failed");
            CheckOutcome {
                attempted: attempted.max(1),
                failed: attempted.max(1),
                first_mismatch: Some(format!("a prefix run failed: {err:?}")),
            }
        }
    }
}

/// Compares a reference run with a default-configuration run of the same
/// plan.
fn compare(reference: &FleetReport, fast: &FleetReport) -> CheckOutcome {
    let mut outcome = CheckOutcome {
        attempted: ops(reference) + ops(fast),
        failed: 0,
        first_mismatch: None,
    };
    for (r, f) in reference.shards.iter().zip(&fast.shards) {
        for (rt, ft) in r.tenants.iter().zip(&f.tenants) {
            let (a, b) = (&rt.totals, &ft.totals);
            let why = if a.ops != b.ops {
                Some("op counts differ")
            } else if a.instructions != b.instructions {
                Some("instructions differ")
            } else if a.cycles != b.cycles {
                Some("cycles differ")
            } else if !a.stats.arch_eq(&b.stats) {
                Some("architectural counters differ")
            } else if a.latency != b.latency {
                Some("latency histograms differ")
            } else if a.hostile.benign_pac_events + b.hostile.benign_pac_events != 0 {
                Some("benign PAC events fired")
            } else {
                None
            };
            if let Some(why) = why {
                outcome.failed += a.ops + b.ops;
                outcome.first_mismatch.get_or_insert_with(|| {
                    format!("shard {} tenant {:?}: {why}", r.shard, rt.name)
                });
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_workloads::TenantSpec;

    fn plan() -> FleetPlan {
        let mut plan = FleetPlan::new(
            2,
            11,
            vec![
                TenantSpec::lmbench("web", 200),
                TenantSpec::process_churn("build", 6),
            ],
        );
        plan.cpus_per_shard = 2;
        plan
    }

    #[test]
    fn engines_agree_on_a_small_plan() {
        let outcome = run(&plan());
        assert_eq!(outcome.failed, 0, "{:?}", outcome.first_mismatch);
        assert!(outcome.attempted > 0);
    }

    #[test]
    fn a_mismatch_names_shard_and_tenant() {
        let a = FleetDriver::drive(&plan()).expect("runs");
        let mut other = plan();
        other.seed += 1;
        let b = FleetDriver::drive(&other).expect("runs");
        let outcome = compare(&a, &b);
        assert!(outcome.failed > 0);
        let msg = outcome.first_mismatch.expect("mismatch reported");
        assert!(msg.starts_with("shard 0 tenant"), "{msg}");
    }
}
