//! The built-in workload mixes.

use crate::workload::{HostileOp, Op, Workload};
use camo_kernel::SYSCALLS;
use rand::rngs::StdRng;
use rand::Rng;

/// Syscalls per [`Op::Syscall`] batch emitted by [`LmbenchMix`]. Part of
/// the mix's definition: changing it changes the `run_user` sequence, and
/// with it every simulated total of an lmbench tenant (BENCH_3's among
/// them).
pub const LMBENCH_BATCH: u64 = 16;

/// The paper's lmbench syscall mix (Figure 3), as a workload: every
/// modeled syscall in spec order, round-robin, in batches of
/// [`LMBENCH_BATCH`]. Fully deterministic — the RNG is untouched.
#[derive(Debug, Default)]
pub struct LmbenchMix {
    turn: usize,
}

impl LmbenchMix {
    /// A fresh mix starting at the first syscall spec.
    pub fn new() -> LmbenchMix {
        LmbenchMix::default()
    }
}

impl Workload for LmbenchMix {
    fn name(&self) -> &str {
        "lmbench-mix"
    }

    fn next_op(&mut self, _rng: &mut StdRng) -> Op {
        let spec = &SYSCALLS[self.turn % SYSCALLS.len()];
        self.turn += 1;
        Op::Syscall {
            nr: spec.nr,
            arg0: 3,
            batch: LMBENCH_BATCH,
        }
    }

    fn task_count(&self, cpus: usize) -> usize {
        cpus.max(1) // one serving task per core, like the PR-3 driver
    }
}

/// A fork/exec process-churn storm: most ops spawn a short-lived child
/// (fresh per-thread PAuth keys, §2.2 `exec()`), run a small syscall
/// burst in it, and `exit()` it — hammering task creation, the signed
/// saved-SP seeding (`task_init_sp`), and the kernel's PID recycling.
/// The occasional plain syscall keeps the long-lived task warm.
#[derive(Debug, Default)]
pub struct ProcessChurn;

impl ProcessChurn {
    /// A fresh churn workload.
    pub fn new() -> ProcessChurn {
        ProcessChurn
    }
}

impl Workload for ProcessChurn {
    fn name(&self) -> &str {
        "fork-exec-churn"
    }

    fn next_op(&mut self, rng: &mut StdRng) -> Op {
        if rng.gen_bool(0.125) {
            Op::Syscall {
                nr: 172,
                arg0: 0,
                batch: 4,
            }
        } else {
            Op::ProcessChurn {
                burst: rng.gen_range(4..=12),
            }
        }
    }
}

/// Module load/unload churn: generates a fresh instrumented module per
/// op, pushes it through §4.1 verification and §4.6 load-time signing,
/// runs its entry (signed returns on every internal call), and unloads
/// it — with authenticated work-queue callbacks (§4.4) mixed in.
#[derive(Debug, Default)]
pub struct ModuleChurn;

impl ModuleChurn {
    /// A fresh module-churn workload.
    pub fn new() -> ModuleChurn {
        ModuleChurn
    }
}

impl Workload for ModuleChurn {
    fn name(&self) -> &str {
        "module-churn"
    }

    fn next_op(&mut self, rng: &mut StdRng) -> Op {
        if rng.gen_bool(0.25) {
            Op::Work { func: "dev_poll" }
        } else {
            Op::ModuleChurn {
                funcs: rng.gen_range(1..=3),
            }
        }
    }
}

/// A context-switch-heavy multi-task tenant: mostly `cpu_switch_to`
/// round trips between its tasks (§5.2 signed-SP save/authenticate) and
/// cross-core migrations (§6.1.1 `thread_struct` key-follow), with
/// syscall bursts and a medium user-compute block in between — the §5
/// key-switch paths under pressure.
#[derive(Debug, Default)]
pub struct TenantSwitchMix;

impl TenantSwitchMix {
    /// A fresh tenant mix.
    pub fn new() -> TenantSwitchMix {
        TenantSwitchMix
    }
}

impl Workload for TenantSwitchMix {
    fn name(&self) -> &str {
        "tenant-switch-mix"
    }

    fn next_op(&mut self, rng: &mut StdRng) -> Op {
        match rng.gen_range(0..10u32) {
            0..=4 => Op::ContextSwitch,
            5 | 6 => Op::Syscall {
                nr: [172, 63, 64][rng.gen_range(0..3usize)],
                arg0: 3,
                batch: 2,
            },
            7 => Op::Migrate,
            _ => Op::UserRun {
                block: "tenant".to_string(),
                iterations: 2,
                nr: 63,
                arg0: 3,
            },
        }
    }

    fn task_count(&self, _cpus: usize) -> usize {
        3
    }

    fn user_blocks(&self) -> Vec<(String, usize, usize)> {
        vec![("tenant".to_string(), 600, 60)]
    }
}

/// The seeded adversarial traffic plane: hostile operations — each with a
/// declared expected outcome ([`HostileOp::expected`]) — interleaved with
/// the benign op vocabulary, so attacks land *under load* rather than on a
/// quiet machine. Roughly one op in four is hostile, drawn uniformly from
/// [`HostileOp::ALL`]; the rest are switch/syscall/compute/work traffic.
///
/// Like every mix, the stream is a pure function of the tenant RNG: the
/// same `(plan seed, shard, tenant name)` triple replays the same attack
/// sequence, which is what lets the BENCH_6 gate compare a mixed run
/// against isolated baselines and the block engine A/B arms bit-exactly.
#[derive(Debug, Default)]
pub struct FuzzMix;

impl FuzzMix {
    /// A fresh fuzz mix.
    pub fn new() -> FuzzMix {
        FuzzMix
    }
}

impl Workload for FuzzMix {
    fn name(&self) -> &str {
        "fuzz-mix"
    }

    fn next_op(&mut self, rng: &mut StdRng) -> Op {
        match rng.gen_range(0..8u32) {
            0 | 1 => Op::Hostile(HostileOp::ALL[rng.gen_range(0..HostileOp::ALL.len())]),
            2 | 3 => Op::ContextSwitch,
            4 | 5 => Op::Syscall {
                nr: [172, 63, 64][rng.gen_range(0..3usize)],
                arg0: 3,
                batch: 2,
            },
            6 => Op::Work { func: "dev_poll" },
            _ => Op::UserRun {
                block: "fuzz".to_string(),
                iterations: 2,
                nr: 63,
                arg0: 3,
            },
        }
    }

    fn task_count(&self, _cpus: usize) -> usize {
        2
    }

    fn user_blocks(&self) -> Vec<(String, usize, usize)> {
        vec![("fuzz".to_string(), 400, 40)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn stream(w: &mut dyn Workload, seed: u64, n: usize) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| w.next_op(&mut rng)).collect()
    }

    #[test]
    fn every_mix_is_deterministic_per_seed() {
        let builders: Vec<fn() -> Box<dyn Workload>> = vec![
            || Box::new(LmbenchMix::new()),
            || Box::new(ProcessChurn::new()),
            || Box::new(ModuleChurn::new()),
            || Box::new(TenantSwitchMix::new()),
        ];
        for build in builders {
            let a = stream(&mut *build(), 42, 64);
            let b = stream(&mut *build(), 42, 64);
            assert_eq!(a, b, "same seed must replay the same op stream");
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        // (For the RNG-driven mixes; lmbench is deliberately seed-free.)
        let a = stream(&mut TenantSwitchMix::new(), 1, 64);
        let b = stream(&mut TenantSwitchMix::new(), 2, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn lmbench_mix_cycles_the_full_syscall_table() {
        let ops = stream(&mut LmbenchMix::new(), 0, SYSCALLS.len());
        let nrs: Vec<u64> = ops
            .iter()
            .map(|op| match op {
                Op::Syscall { nr, batch, .. } => {
                    assert_eq!(*batch, LMBENCH_BATCH);
                    *nr
                }
                other => panic!("lmbench only emits syscalls, got {other:?}"),
            })
            .collect();
        assert_eq!(nrs, SYSCALLS.iter().map(|s| s.nr).collect::<Vec<_>>());
    }

    #[test]
    fn mixes_emit_their_signature_ops() {
        assert!(stream(&mut ProcessChurn::new(), 3, 32)
            .iter()
            .any(|op| matches!(op, Op::ProcessChurn { .. })));
        assert!(stream(&mut ModuleChurn::new(), 3, 32)
            .iter()
            .any(|op| matches!(op, Op::ModuleChurn { .. })));
        let tenant = stream(&mut TenantSwitchMix::new(), 3, 64);
        assert!(tenant.iter().any(|op| matches!(op, Op::ContextSwitch)));
        assert!(tenant.iter().any(|op| matches!(op, Op::Migrate)));
    }

    #[test]
    fn tenant_mix_declares_its_user_block() {
        let w = TenantSwitchMix::new();
        assert_eq!(w.user_blocks()[0].0, "tenant");
        assert!(w.task_count(1) >= 2, "context switching needs a pair");
    }
}
