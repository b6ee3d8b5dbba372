//! Kernel objects: tasks, the file table, operations tables, and the
//! PAC-failure policy.

use crate::layout::{self, file_operations};
use camo_cpu::pac::KeyClass;
use camo_mem::{Frame, TableId};
use camo_qarma::QarmaKey;
use std::collections::HashMap;

/// Task identifier.
pub type Tid = u32;

/// Host-side bookkeeping for one kernel task (the parts of `task_struct`
/// that are not security-relevant live here; the signed saved SP, the
/// callee-saved context, and the user keys live in simulated memory).
#[derive(Debug, Clone)]
pub struct Task {
    /// Task id.
    pub tid: Tid,
    /// Human-readable name.
    pub name: String,
    /// The process's user-half translation table, freed when the task
    /// exits or is reaped.
    pub user_table: TableId,
    /// The frames backing the process's private user stack, owned by the
    /// task and freed with it. (The user text frames are shared by every
    /// process and never freed.)
    pub user_stack: [Frame; layout::USER_STACK_PAGES],
    /// The task's pre-opened `/dev/zero` fd, closed when the task exits or
    /// is reaped.
    pub fd: u64,
    /// Whether the task is schedulable (false once killed).
    pub alive: bool,
    /// The per-thread user PAuth keys (also written into the simulated
    /// `thread_struct`): IB, IA, DB.
    pub user_keys: [QarmaKey; 3],
    /// The CPU this task is currently queued on (its runqueue home;
    /// updated by migration).
    pub cpu: usize,
    /// PAC authentication failures observed while this task was current —
    /// per-task forensic accounting (§6.2.3). The §5.4 panic threshold is
    /// tripped by the *cluster-wide* total, not this counter.
    pub pac_failures: u32,
}

impl Task {
    /// The simulated `task_struct` address.
    pub fn struct_va(&self) -> u64 {
        layout::task_struct_va(self.tid)
    }

    /// Top of this task's kernel stack.
    pub fn stack_top(&self) -> u64 {
        layout::stack_top(self.tid)
    }

    /// The `pt_regs` address on this task's kernel stack.
    pub fn ptregs_va(&self) -> u64 {
        self.stack_top() - u64::from(layout::PT_REGS_SIZE)
    }
}

/// The backing "device" behind an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// `/dev/zero`-like source.
    DevZero,
    /// `/dev/null`-like sink.
    DevNull,
    /// An in-memory pipe end.
    Pipe,
}

impl FileKind {
    /// All table kinds, in rodata layout order.
    pub const ALL: [FileKind; 3] = [FileKind::DevZero, FileKind::DevNull, FileKind::Pipe];

    /// The VA of this kind's read-only `file_operations` table.
    pub fn ops_va(self) -> u64 {
        let index = match self {
            FileKind::DevZero => 0,
            FileKind::DevNull => 1,
            FileKind::Pipe => 2,
        };
        layout::RODATA_BASE + index * file_operations::SIZE
    }
}

/// The global descriptor table (simplified: one namespace).
#[derive(Debug, Default)]
pub struct FileTable {
    files: HashMap<u64, u64>,
    next_fd: u64,
}

impl FileTable {
    /// Creates an empty table; fds start at 3 (0-2 reserved).
    pub fn new() -> Self {
        FileTable {
            files: HashMap::new(),
            next_fd: 3,
        }
    }

    /// Registers an open file object, returning its fd.
    pub fn insert(&mut self, file_va: u64) -> u64 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.files.insert(fd, file_va);
        fd
    }

    /// The file object behind `fd`.
    pub fn get(&self, fd: u64) -> Option<u64> {
        self.files.get(&fd).copied()
    }

    /// Closes `fd`.
    pub fn remove(&mut self, fd: u64) -> Option<u64> {
        self.files.remove(&fd)
    }

    /// Number of open files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no files are open.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// The §5.4 brute-force mitigation policy.
///
/// "Consecutive pointer authentication failures must therefore be limited.
/// … We change the kernel configuration to halt after a limited number of
/// PAuth failures have occurred."
#[derive(Debug, Clone)]
pub struct PacPolicy {
    threshold: u32,
    failures: u32,
}

impl PacPolicy {
    /// Creates a policy that panics after `threshold` failures.
    pub fn new(threshold: u32) -> Self {
        PacPolicy {
            threshold,
            failures: 0,
        }
    }

    /// Records one PAC authentication failure.
    ///
    /// Returns `true` when the halt threshold has been reached.
    pub fn record_failure(&mut self) -> bool {
        self.failures += 1;
        self.failures >= self.threshold
    }

    /// Failures recorded so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }
}

/// Events logged by the kernel (every PAC failure is logged so "vulnerable
/// code paths can be fixed", §6.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// A PAC authentication failure was detected via its fault signature.
    PacFailure {
        /// Faulting (corrupted) address.
        far: u64,
        /// PC of the faulting use.
        elr: u64,
        /// Task that was running.
        tid: Tid,
        /// CPU that observed the failure (all cores feed the same §5.4
        /// panic threshold).
        cpu: usize,
        /// Which key class produced the failure signature, recovered from
        /// the error code in the faulting address — instruction keys for
        /// forged code pointers, data keys for forged signed fields.
        kind: KeyClass,
    },
    /// A kernel-mode fault that did not look like a PAC failure.
    KernelFault {
        /// Faulting address.
        far: u64,
        /// Task that was running.
        tid: Tid,
    },
    /// A task was killed (`SIGKILL` on kernel fault, §5.4).
    TaskKilled {
        /// The killed task.
        tid: Tid,
    },
    /// A module failed §4.1 verification and was rejected.
    ModuleRejected {
        /// Number of violations found.
        violations: usize,
    },
    /// A task moved to another CPU's runqueue (migration or balancing).
    TaskMigrated {
        /// The migrated task.
        tid: Tid,
        /// Source CPU.
        from: usize,
        /// Destination CPU.
        to: usize,
    },
    /// A task exited gracefully (`exit()`, as opposed to being killed);
    /// its tid returns to the free pool for reuse by a later `fork`.
    TaskExited {
        /// The exiting task.
        tid: Tid,
    },
    /// A module was unloaded: its text unmapped (with the TLB-generation
    /// bump acting as the shootdown) and its load slot freed for reuse.
    ModuleUnloaded {
        /// The unloaded module's base VA.
        base_va: u64,
    },
    /// A dead (killed) task's entry was reaped after forensic inspection;
    /// its tid returns to the free pool like a graceful exit's.
    TaskReaped {
        /// The reaped task.
        tid: Tid,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_numbering_starts_at_three() {
        let mut t = FileTable::new();
        assert_eq!(t.insert(0xffff_0000_0000_1000), 3);
        assert_eq!(t.insert(0xffff_0000_0000_1040), 4);
        assert_eq!(t.get(3), Some(0xffff_0000_0000_1000));
        assert_eq!(t.remove(3), Some(0xffff_0000_0000_1000));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn ops_tables_are_distinct_rodata_slots() {
        let mut seen = std::collections::HashSet::new();
        for kind in FileKind::ALL {
            assert!(kind.ops_va() >= layout::RODATA_BASE);
            assert!(seen.insert(kind.ops_va()));
        }
    }

    #[test]
    fn pac_policy_trips_at_threshold() {
        let mut p = PacPolicy::new(3);
        assert!(!p.record_failure());
        assert!(!p.record_failure());
        assert!(p.record_failure());
        assert_eq!(p.failures(), 3);
    }

    #[test]
    fn task_addresses_follow_layout() {
        let task = Task {
            tid: 2,
            name: "t".into(),
            user_table: TableId::from_raw(0),
            user_stack: [Frame::containing(0); layout::USER_STACK_PAGES],
            fd: 3,
            alive: true,
            user_keys: [QarmaKey::default(); 3],
            cpu: 0,
            pac_failures: 0,
        };
        assert_eq!(task.struct_va(), layout::task_struct_va(2));
        assert_eq!(task.stack_top(), layout::stack_top(2));
        assert_eq!(
            task.ptregs_va(),
            task.stack_top() - u64::from(layout::PT_REGS_SIZE)
        );
    }
}
