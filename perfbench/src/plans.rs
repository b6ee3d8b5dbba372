//! The three workloads, as fleet plans generated from the seed.
//!
//! Every plan uses the default engine configuration of
//! [`FleetPlan::new`] — fast-path caches, blocks and traces on,
//! telemetry off — and sweeps no knob. Quotas are fixed: the serve
//! phase repeats the same plan, so both commits of a comparison run
//! identical simulated work (the process- and module-churn mixes grow
//! memory per op, see the README).

use camo_smp::FleetPlan;
use camo_workloads::TenantSpec;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One lmbench tenant on one single-core shard: the trace/block
    /// tiers and syscall dispatch, nothing else.
    SyscallHot,
    /// The standard four-tenant mix on four dual-core shards.
    FleetMix,
    /// Process churn plus module churn on two dual-core shards.
    Churn,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [Workload::SyscallHot, Workload::FleetMix, Workload::Churn];

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyscallHot => "syscall_hot",
            Workload::FleetMix => "fleet_mix",
            Workload::Churn => "churn",
        }
    }

    /// The full plan the serve phase repeats.
    pub fn plan(self, seed: u64) -> FleetPlan {
        self.scaled_plan(seed, 1)
    }

    /// The output-check prefix: the same plan with every quota divided
    /// by `divisor`. Op streams are seeded per `(seed, shard, tenant
    /// name)` and served round-robin, so this is exactly the first
    /// stretch of every shard's full run.
    pub fn prefix_plan(self, seed: u64) -> FleetPlan {
        self.scaled_plan(seed, 40)
    }

    fn scaled_plan(self, seed: u64, divisor: u64) -> FleetPlan {
        let q = |n: u64| (n / divisor).max(1);
        let (shards, cpus, tenants) = match self {
            Workload::SyscallHot => (1, 1, vec![TenantSpec::lmbench("hot", q(100_000))]),
            // The standard `camo_bench::fleet` mix scaled by 20.
            Workload::FleetMix => (
                4,
                2,
                vec![
                    TenantSpec::lmbench("web", q(160_000)),
                    TenantSpec::process_churn("build-farm", q(4_800)),
                    TenantSpec::module_churn("driver-ci", q(3_200)),
                    TenantSpec::tenant_mix("batch", q(8_000)),
                ],
            ),
            Workload::Churn => (
                2,
                2,
                vec![
                    TenantSpec::process_churn("fork-exec", q(8_000)),
                    TenantSpec::module_churn("modules", q(16_000)),
                ],
            ),
        };
        let mut plan = FleetPlan::new(shards, seed, tenants);
        plan.cpus_per_shard = cpus;
        plan
    }
}

/// A one-line description of a plan's shape, for the report.
pub fn describe(plan: &FleetPlan) -> String {
    let tenants: Vec<String> = plan
        .tenants
        .iter()
        .map(|t| format!("{}={:?}", t.name, t.quota))
        .collect();
    format!(
        "{} shard(s) x {} core(s), tenants [{}]",
        plan.shards,
        plan.cpus_per_shard,
        tenants.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn plans_use_the_default_engine_configuration() {
        for w in Workload::ALL {
            let plan = w.plan(7);
            assert!(plan.fast_caches && plan.block_engine && plan.trace_engine);
            assert!(!plan.telemetry);
            assert!(plan
                .tenants
                .iter()
                .all(|t| t.weight == 1 && t.cycle_budget.is_none()));
        }
    }

    #[test]
    fn fleet_mix_runs_more_shards_than_a_two_core_pool() {
        assert!(Workload::FleetMix.plan(1).shards > 2);
    }
}
