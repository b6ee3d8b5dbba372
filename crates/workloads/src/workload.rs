//! The workload vocabulary: [`Op`], the [`Workload`] trait, and tenant
//! plumbing ([`TenantSpec`], [`Quota`], seed derivation).

use camo_cpu::pac::KeyClass;
use rand::rngs::StdRng;
use std::fmt;
use std::sync::Arc;

/// One operation a workload asks the executor to perform.
///
/// Workloads emit `Op`s; they never hold a kernel reference. The executor
/// ([`crate::TenantRun`]) owns the tenant's tasks and interprets each
/// variant against the machine, so an op stream is replayable on any
/// identically-seeded machine — the determinism the fleet driver's
/// parallel ≡ sequential invariant rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `batch` iterations of (tiny user block + syscall `nr` with first
    /// argument `arg0`) on the tenant's current task — the lmbench shape.
    Syscall {
        /// AArch64 syscall number (must be in `camo_kernel::SYSCALLS`).
        nr: u64,
        /// First syscall argument (fd-based calls want an fd ≥ 3).
        arg0: u64,
        /// Iterations; the executor may clamp this to a remaining
        /// syscall quota.
        batch: u64,
    },
    /// `iterations` × (named user computation block + syscall `nr`) — the
    /// compute-heavy Figure-4 shape. The block must be declared by the
    /// workload's [`Workload::user_blocks`] so it is compiled into the
    /// machine's user image at boot.
    UserRun {
        /// User block name.
        block: String,
        /// Iterations.
        iterations: u64,
        /// Syscall number issued after each block.
        nr: u64,
        /// First syscall argument.
        arg0: u64,
    },
    /// fork/exec a child task (fresh per-thread PAuth keys, §2.2), run
    /// `burst` null syscalls in it, then `exit()` it — one full
    /// process-lifetime round trip over the kernel's PID-recycling paths.
    ProcessChurn {
        /// Syscalls the short-lived child serves before exiting.
        burst: u64,
    },
    /// One `cpu_switch_to` round trip between two of the tenant's tasks —
    /// the §5.2 signed-SP save/authenticate path.
    ContextSwitch,
    /// Migrate the tenant's current task to the next core (the §6.1.1
    /// `thread_struct` key-follow path), then run one syscall so the
    /// destination core actually restores the task's user keys. Falls
    /// back to a null syscall on a 1-CPU machine.
    Migrate,
    /// Load a freshly generated module through §4.1 verification, run its
    /// entry function, and unload it — the run-time linkage churn loop.
    ModuleChurn {
        /// Instrumented functions in the generated module (≥ 1; the entry
        /// calls each of the others, exercising signed returns per call).
        funcs: u8,
    },
    /// `INIT_WORK` + run: sign a work callback in kernel code, then
    /// authenticate and call it (§4.4 forward-edge CFI).
    Work {
        /// Kernel symbol the work item points at (e.g. `"dev_poll"`).
        func: &'static str,
    },
    /// Mount one adversarial operation against the machine. The executor
    /// stages the attack on sacrificial tasks/objects, triggers it, and
    /// checks the kernel's reaction against the op's *declared* expected
    /// outcome ([`HostileOp::expected`]) — misattribution in either
    /// direction (a missing failure, a wrong key class, a wrong victim, or
    /// collateral failures) is recorded as a mismatch.
    Hostile(HostileOp),
}

/// One adversarial operation a fuzz tenant can mount, each modeling a
/// concrete attack from the paper's threat model (§3).
///
/// Every variant declares the exact reaction the §5.4 fault policy must
/// produce — which [`KeyClass`] fails, on which (sacrificial) task — so a
/// fleet run can assert *attribution*, not merely "something faulted".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileOp {
    /// Forged-pointer return (§5.2): overwrite a victim task's signed
    /// `SAVED_SP` with a raw kernel pointer, then context-switch into it.
    /// `cpu_switch_to` authenticates the slot under the data key → exactly
    /// one [`KeyClass::Data`] failure on the switching task.
    ForgedSavedSp,
    /// Replay (§5.2): copy another task's *validly signed* `SAVED_SP`
    /// qword over the victim's slot (after migrating the victim to a
    /// different core when one exists). The PAC is genuine but bound to
    /// the donor's `task_struct` address, so authentication under the
    /// victim's modifier fails → one [`KeyClass::Data`] failure.
    ReplaySavedSp,
    /// Forged `file->f_ops` (§4.2): overwrite a signed operations-table
    /// pointer with the raw (unsigned) table address, then drive a `read`
    /// through it → one [`KeyClass::Data`] failure in the syscall.
    ForgedFileOps,
    /// Forged work callback (§4.4): overwrite a signed `work->func` with
    /// a raw kernel symbol address, then run the work item → one
    /// [`KeyClass::Instruction`] failure at the indirect call.
    ForgedWorkFunc,
    /// Module-signing failure (§4.1): submit a module whose text reads a
    /// PAuth key register. Static verification must reject it before any
    /// byte is mapped — no PAC failure, no task killed.
    UnsignedModule,
    /// Direct physical-memory write to already-translated (and possibly
    /// block-cached) module code. Not a PAC attack: the expected outcome
    /// is *coherency* — re-execution observes the new bytes bit-exactly,
    /// with or without the block engine.
    CodeTamper,
}

impl HostileOp {
    /// Every hostile op, in a stable order (fuzz mixes index into this).
    pub const ALL: [HostileOp; 6] = [
        HostileOp::ForgedSavedSp,
        HostileOp::ReplaySavedSp,
        HostileOp::ForgedFileOps,
        HostileOp::ForgedWorkFunc,
        HostileOp::UnsignedModule,
        HostileOp::CodeTamper,
    ];

    /// Stable short name (reported in benchmarks and JSON).
    pub fn name(self) -> &'static str {
        match self {
            HostileOp::ForgedSavedSp => "forged-saved-sp",
            HostileOp::ReplaySavedSp => "replay-saved-sp",
            HostileOp::ForgedFileOps => "forged-file-ops",
            HostileOp::ForgedWorkFunc => "forged-work-func",
            HostileOp::UnsignedModule => "unsigned-module",
            HostileOp::CodeTamper => "code-tamper",
        }
    }

    /// The declared expected outcome — what the kernel must do, exactly.
    pub fn expected(self) -> ExpectedOutcome {
        match self {
            HostileOp::ForgedSavedSp | HostileOp::ReplaySavedSp | HostileOp::ForgedFileOps => {
                ExpectedOutcome::PacFailure {
                    kind: KeyClass::Data,
                }
            }
            HostileOp::ForgedWorkFunc => ExpectedOutcome::PacFailure {
                kind: KeyClass::Instruction,
            },
            HostileOp::UnsignedModule => ExpectedOutcome::ModuleRejected,
            HostileOp::CodeTamper => ExpectedOutcome::CoherentTamper,
        }
    }
}

/// The reaction a [`HostileOp`] declares the kernel must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedOutcome {
    /// Exactly one PAC failure of `kind` on the sacrificial task, which
    /// the §5.4 policy then kills — and nothing else.
    PacFailure {
        /// The key class whose authentication must fail.
        kind: KeyClass,
    },
    /// The §4.1 verifier rejects the module; nothing faults, nobody dies.
    ModuleRejected,
    /// Re-execution observes the tampered bytes bit-exactly (block-cache
    /// coherency); nothing faults, nobody dies.
    CoherentTamper,
}

/// A deterministic stream of [`Op`]s.
///
/// Implementations must be pure functions of their own state and the
/// supplied RNG: two instances built identically and driven by
/// identically-seeded RNGs must emit identical op streams. All built-in
/// mixes satisfy this, and `camo_smp`'s fleet driver relies on it.
pub trait Workload {
    /// Stable workload name (reported in benchmarks and JSON).
    fn name(&self) -> &str;

    /// The next operation. `rng` is the tenant's deterministic RNG,
    /// seeded per `(plan seed, shard, tenant)` by the driver.
    fn next_op(&mut self, rng: &mut StdRng) -> Op;

    /// How many long-lived tasks the executor should spawn for this
    /// tenant on a machine with `cpus` cores (default 1). Mixes that
    /// context-switch need at least 2; the lmbench mix asks for one per
    /// core so a multi-core shard serves traffic on every core.
    fn task_count(&self, cpus: usize) -> usize {
        let _ = cpus;
        1
    }

    /// User computation blocks `(name, alu, mem)` this workload's
    /// [`Op::UserRun`]s reference. Collected by the driver into the
    /// machine's boot configuration (user program text is compiled once,
    /// at boot).
    fn user_blocks(&self) -> Vec<(String, usize, usize)> {
        Vec::new()
    }
}

/// Builds fresh [`Workload`] instances — one per (shard, tenant), so
/// shards never share mutable workload state. Any
/// `Fn() -> Box<dyn Workload + Send>` closure qualifies.
pub trait WorkloadFactory: Send + Sync {
    /// A fresh workload instance.
    fn build(&self) -> Box<dyn Workload + Send>;
}

impl<F> WorkloadFactory for F
where
    F: Fn() -> Box<dyn Workload + Send> + Send + Sync,
{
    fn build(&self) -> Box<dyn Workload + Send> {
        self()
    }
}

/// How much service a tenant is owed, split evenly across shards (the
/// first `total % shards` shards serve one extra unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quota {
    /// Number of [`Op`]s to execute.
    Ops(u64),
    /// Number of syscalls to serve. [`Op::Syscall`] batches are clamped
    /// so a syscall-only workload (the lmbench mix) hits the quota
    /// exactly; ops of other kinds cannot be clamped mid-op, so a mixed
    /// workload under this quota may overshoot by at most one op's worth
    /// of syscalls.
    Syscalls(u64),
}

impl Quota {
    /// The raw amount, unitless.
    pub fn amount(self) -> u64 {
        match self {
            Quota::Ops(n) | Quota::Syscalls(n) => n,
        }
    }

    /// Shard `index`'s share of the quota.
    pub fn share(self, shards: usize, index: usize) -> u64 {
        let total = self.amount();
        let base = total / shards as u64;
        let extra = total % shards as u64;
        base + u64::from((index as u64) < extra)
    }
}

/// One tenant of a fleet: a named workload factory plus its quota and
/// scheduling parameters (weighted-fair share and optional cycle budget).
#[derive(Clone)]
pub struct TenantSpec {
    /// Tenant name (distinct from the workload name: two tenants may run
    /// the same mix).
    pub name: String,
    /// Service owed to this tenant across all shards.
    pub quota: Quota,
    /// Weighted-fair share of the simulated machine: the scheduler serves
    /// up to `weight` ops per sweep for this tenant (default 1 — plain
    /// round-robin). Part of the *simulated* schedule, so it is
    /// deterministic in the plan and identical across execution modes.
    pub weight: u32,
    /// Per-sweep *simulated-cycle* budget. A budgeted tenant accrues this
    /// many cycles of credit each sweep (burst-capped at two sweeps'
    /// worth) and is throttled — skipped for whole sweeps — while its
    /// credit is exhausted. `None` (the default) means unthrottled.
    /// Budgets are denominated in simulated cycles, never host time, so
    /// throttling decisions are bit-identical across execution modes.
    pub cycle_budget: Option<u64>,
    factory: Arc<dyn WorkloadFactory>,
}

impl fmt::Debug for TenantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSpec")
            .field("name", &self.name)
            .field("quota", &self.quota)
            .field("weight", &self.weight)
            .field("cycle_budget", &self.cycle_budget)
            .finish_non_exhaustive()
    }
}

impl TenantSpec {
    /// A tenant from an explicit factory (weight 1, no cycle budget).
    pub fn new(
        name: impl Into<String>,
        quota: Quota,
        factory: impl WorkloadFactory + 'static,
    ) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            quota,
            weight: 1,
            cycle_budget: None,
            factory: Arc::new(factory),
        }
    }

    /// Sets the weighted-fair share (ops per sweep; must be ≥ 1).
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> TenantSpec {
        assert!(weight >= 1, "a zero-weight tenant would never be served");
        self.weight = weight;
        self
    }

    /// Sets the per-sweep simulated-cycle budget (must be ≥ 1; a zero
    /// budget would never accrue credit and the tenant would starve).
    #[must_use]
    pub fn with_cycle_budget(mut self, cycles_per_sweep: u64) -> TenantSpec {
        assert!(cycles_per_sweep >= 1, "a zero budget would starve");
        self.cycle_budget = Some(cycles_per_sweep);
        self
    }

    /// A fresh workload instance for one shard.
    pub fn build(&self) -> Box<dyn Workload + Send> {
        self.factory.build()
    }

    /// The lmbench syscall mix serving `syscalls` syscalls.
    pub fn lmbench(name: impl Into<String>, syscalls: u64) -> TenantSpec {
        TenantSpec::new(name, Quota::Syscalls(syscalls), || {
            Box::new(crate::LmbenchMix::new()) as Box<dyn Workload + Send>
        })
    }

    /// The fork/exec process-churn storm running `ops` operations.
    pub fn process_churn(name: impl Into<String>, ops: u64) -> TenantSpec {
        TenantSpec::new(name, Quota::Ops(ops), || {
            Box::new(crate::ProcessChurn::new()) as Box<dyn Workload + Send>
        })
    }

    /// The module load/unload churn mix running `ops` operations.
    pub fn module_churn(name: impl Into<String>, ops: u64) -> TenantSpec {
        TenantSpec::new(name, Quota::Ops(ops), || {
            Box::new(crate::ModuleChurn::new()) as Box<dyn Workload + Send>
        })
    }

    /// The context-switch-heavy tenant mix running `ops` operations.
    pub fn tenant_mix(name: impl Into<String>, ops: u64) -> TenantSpec {
        TenantSpec::new(name, Quota::Ops(ops), || {
            Box::new(crate::TenantSwitchMix::new()) as Box<dyn Workload + Send>
        })
    }

    /// The seeded adversarial fuzz mix running `ops` operations
    /// (hostile ops with declared expected outcomes, interleaved with
    /// benign traffic).
    pub fn fuzz(name: impl Into<String>, ops: u64) -> TenantSpec {
        TenantSpec::new(name, Quota::Ops(ops), || {
            Box::new(crate::FuzzMix::new()) as Box<dyn Workload + Send>
        })
    }
}

/// Derives a well-spread child seed from `base` and an index (splitmix64
/// finalizer — deterministic, stable across runs, no correlated streams
/// for adjacent indices).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of tenant `tenant` on shard `shard` of a plan seeded
/// `base` — two derivation levels so tenant streams are independent of
/// both the shard's boot seed and each other.
///
/// Position-indexed, so inserting or removing a tenant renumbers (and
/// reseeds) everyone after it. The fleet driver derives from the tenant
/// *name* instead ([`tenant_stream_seed`]); this stays for callers that
/// genuinely want positional streams.
pub fn tenant_seed(base: u64, shard: usize, tenant: usize) -> u64 {
    derive_seed(derive_seed(base, shard as u64), 0x7E4A_0000 + tenant as u64)
}

/// The RNG seed of the tenant *named* `name` on shard `shard` of a plan
/// seeded `base`: the name (FNV-1a hashed) replaces the plan position in
/// the derivation, so adding or removing one tenant never shifts another
/// tenant's op stream — a tenant's traffic is a pure function of
/// `(plan seed, shard, its own name)`.
pub fn tenant_stream_seed(base: u64, shard: usize, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    derive_seed(derive_seed(base, shard as u64), h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_shares_partition_exactly() {
        for quota in [Quota::Ops(100), Quota::Syscalls(101)] {
            let shares: Vec<u64> = (0..3).map(|i| quota.share(3, i)).collect();
            assert_eq!(shares.iter().sum::<u64>(), quota.amount());
            assert!(shares.windows(2).all(|w| w[0] >= w[1]));
        }
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| derive_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    #[test]
    fn tenant_seeds_vary_in_both_axes() {
        let mut seen = std::collections::HashSet::new();
        for shard in 0..4 {
            for tenant in 0..4 {
                assert!(seen.insert(tenant_seed(9, shard, tenant)));
            }
        }
    }

    #[test]
    fn named_tenant_seeds_depend_only_on_their_own_name() {
        // The same (seed, shard, name) triple always derives the same
        // stream seed — no matter what other tenants exist.
        assert_eq!(
            tenant_stream_seed(9, 2, "web"),
            tenant_stream_seed(9, 2, "web")
        );
        let mut seen = std::collections::HashSet::new();
        for shard in 0..4 {
            for name in ["web", "batch", "build-farm", "fuzz-0"] {
                assert!(seen.insert(tenant_stream_seed(9, shard, name)));
            }
        }
    }

    #[test]
    fn tenant_spec_builds_fresh_instances() {
        let spec = TenantSpec::lmbench("t", 64);
        let mut a = spec.build();
        let mut b = spec.build();
        let mut rng_a = <StdRng as rand::SeedableRng>::seed_from_u64(1);
        let mut rng_b = <StdRng as rand::SeedableRng>::seed_from_u64(1);
        for _ in 0..8 {
            assert_eq!(a.next_op(&mut rng_a), b.next_op(&mut rng_b));
        }
    }
}
