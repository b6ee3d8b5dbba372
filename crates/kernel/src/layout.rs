//! Kernel virtual-address-space layout and in-memory structure offsets.
//!
//! Mirrors the aspects of the Linux/AArch64 layout the paper's arguments
//! depend on: 16 KiB kernel task stacks whose bases repeat modulo the
//! 4 KiB page size (§4.2) — ours are placed 64 KiB apart, which is also
//! the exact stride that defeats PARTS' 16-bit SP modifier (§7) — and
//! operations tables living in `.rodata` (§4.4).

use camo_mem::{KERNEL_BASE, PAGE_SIZE};

/// Kernel text base (the linked kernel image).
pub const KERNEL_TEXT_BASE: u64 = KERNEL_BASE;
/// Reserved size for kernel text.
pub const KERNEL_TEXT_SIZE: u64 = 0x10_0000;
/// Exception vector page (`VBAR_EL1`).
pub const VECTORS_VA: u64 = KERNEL_BASE + 0x20_0000;
/// The XOM key-setter page (§5.1).
pub const KEYSETTER_VA: u64 = KERNEL_BASE + 0x21_0000;
/// `.rodata`: operations structures (§4.4).
pub const RODATA_BASE: u64 = KERNEL_BASE + 0x30_0000;
/// Kernel heap: `struct file`, `task_struct`, `work_struct` objects.
pub const KDATA_BASE: u64 = KERNEL_BASE + 0x40_0000;
/// Kernel task stacks: 16 KiB each, 64 KiB stride.
pub const STACKS_BASE: u64 = KERNEL_BASE + 0x80_0000;
/// Loadable module text area.
pub const MODULES_BASE: u64 = KERNEL_BASE + 0x100_0000;
/// Stride between module load slots (128 KiB — also the maximum module
/// image size). `load_module` allocates slots at
/// `MODULES_BASE + slot * MODULE_STRIDE`; `unload_module` inverts it.
pub const MODULE_STRIDE: u64 = 0x2_0000;

/// Task stack size (16 KiB, §4.2).
pub const STACK_SIZE: u64 = 4 * PAGE_SIZE;
/// Stride between consecutive task stacks (64 KiB = 2¹⁶ — the PARTS
/// replay stride from §7).
pub const STACK_STRIDE: u64 = 0x1_0000;

/// User text base.
pub const USER_TEXT_BASE: u64 = 0x0000_0000_0040_0000;
/// User stack top.
pub const USER_STACK_TOP: u64 = 0x0000_7fff_ff00_0000;
/// Pages of user stack below [`USER_STACK_TOP`], private to each process.
pub const USER_STACK_PAGES: usize = 4;
/// User scratch/data page.
pub const USER_DATA_BASE: u64 = 0x0000_0000_0080_0000;

/// Size of the saved register area (reduced `pt_regs`): x0..x29 at 0..232,
/// x30 at 240, `sp_el0` at 248, `elr_el1` at 256, `spsr_el1` at 264.
pub const PT_REGS_SIZE: u16 = 272;
/// Offset of saved `x(n)` (n even, pairs) within `pt_regs`.
pub const PT_X0: u16 = 0;
/// Offset of saved x8 (the syscall number register).
pub const PT_X8: u16 = 64;
/// Offset of saved x30.
pub const PT_X30: u16 = 240;
/// Offset of saved `sp_el0`.
pub const PT_SP_EL0: u16 = 248;
/// Offset of saved `elr_el1`.
pub const PT_ELR: u16 = 256;
/// Offset of saved `spsr_el1`.
pub const PT_SPSR: u16 = 264;

/// `task_struct` analogue layout (one page per task at
/// `KDATA_BASE + tid * PAGE_SIZE`).
pub mod task_struct {
    /// Task id.
    pub const TID: u16 = 0x00;
    /// `thread_struct` user PAuth keys: IB, IA, DB — 16 bytes each
    /// (lo, hi), matching the per-thread keys Linux keeps (§2.2).
    pub const USER_KEYS: u16 = 0x10;
    /// Saved (signed) kernel SP of a scheduled-out task (§5.2).
    pub const SAVED_SP: u16 = 0x70;
    /// Callee-saved register area (`cpu_context`): x19..x28, fp, lr.
    pub const CPU_CONTEXT: u16 = 0x80;
}

/// `struct file` analogue layout.
pub mod file_struct {
    /// Flags / mode word.
    pub const FLAGS: u16 = 0x00;
    /// Position.
    pub const POS: u16 = 0x08;
    /// The protected `f_ops` pointer — offset 40 as in Listing 4.
    pub const F_OPS: u16 = 40;
    /// The `f_cred` pointer (§4.5 mentions it as equally protectable).
    pub const F_CRED: u16 = 48;
    /// Object size.
    pub const SIZE: u64 = 64;
}

/// `struct file_operations` analogue layout (member offsets inside the
/// read-only ops tables). `read` sits at offset 16 as in Listing 4.
pub mod file_operations {
    /// `llseek`.
    pub const LLSEEK: u16 = 0;
    /// Padding / owner.
    pub const OWNER: u16 = 8;
    /// `read`.
    pub const READ: u16 = 16;
    /// `write`.
    pub const WRITE: u16 = 24;
    /// `poll`.
    pub const POLL: u16 = 32;
    /// `open`.
    pub const OPEN: u16 = 40;
    /// `release`.
    pub const RELEASE: u16 = 48;
    /// Table size.
    pub const SIZE: u64 = 64;
}

/// `struct work_struct` analogue layout.
pub mod work_struct {
    /// Pending flag.
    pub const FLAGS: u16 = 0x00;
    /// The protected callback pointer (`func`).
    pub const FUNC: u16 = 0x18;
    /// Object size.
    pub const SIZE: u64 = 0x20;
}

/// The 16-bit type constants discriminating protected (type, member)
/// pairs (§4.3). `FILE_F_OPS` is 0xfb45, the value in Listing 4.
pub mod type_consts {
    /// `struct file::f_ops`.
    pub const FILE_F_OPS: u16 = 0xfb45;
    /// `struct file::f_cred`.
    pub const FILE_F_CRED: u16 = 0xfb46;
    /// `struct task_struct::saved_sp`.
    pub const TASK_SAVED_SP: u16 = 0x7a01;
    /// `struct work_struct::func`.
    pub const WORK_FUNC: u16 = 0x3c99;
}

/// `BRK` immediates used as kernel upcalls (simulation boundary to the
/// host-side "rest of the C kernel"; see `camo-cpu`'s `Step::BrkTrap`).
pub mod upcall {
    /// Syscall dispatch: pick the body for saved x8.
    pub const SYSCALL: u16 = 0x100;
    /// Synchronous fault taken at EL1 (possible PAC failure, §5.4).
    pub const EL1_FAULT: u16 = 0x101;
    /// Synchronous non-SVC exception from EL0.
    pub const EL0_FAULT: u16 = 0x102;
    /// IRQ (scheduler tick).
    pub const IRQ: u16 = 0x103;
    /// User program finished.
    pub const USER_DONE: u16 = 0x110;
}

/// The kernel stack top (initial SP) for a task id.
pub fn stack_top(tid: u32) -> u64 {
    STACKS_BASE + u64::from(tid) * STACK_STRIDE + STACK_SIZE
}

/// The `task_struct` VA for a task id.
pub fn task_struct_va(tid: u32) -> u64 {
    KDATA_BASE + u64::from(tid) * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_repeat_mod_4k_and_64k() {
        // §4.2: the low 12 bits of SP repeat across threads; our layout
        // also repeats the low 16 bits, the §7 PARTS-replay scenario.
        let a = stack_top(1);
        let b = stack_top(2);
        assert_eq!(a % 0x1000, b % 0x1000);
        assert_eq!(a % 0x10000, b % 0x10000);
        assert_eq!(b - a, STACK_STRIDE);
    }

    #[test]
    fn stack_size_is_16k() {
        assert_eq!(STACK_SIZE, 16 * 1024);
    }

    #[test]
    fn regions_do_not_overlap() {
        let regions = [
            (KERNEL_TEXT_BASE, KERNEL_TEXT_BASE + KERNEL_TEXT_SIZE),
            (VECTORS_VA, VECTORS_VA + PAGE_SIZE),
            (KEYSETTER_VA, KEYSETTER_VA + PAGE_SIZE),
            (RODATA_BASE, RODATA_BASE + PAGE_SIZE),
            (KDATA_BASE, KDATA_BASE + 0x40_0000),
            (STACKS_BASE, STACKS_BASE + 64 * STACK_STRIDE),
            (MODULES_BASE, MODULES_BASE + 0x10_0000),
        ];
        for (i, a) in regions.iter().enumerate() {
            for b in &regions[i + 1..] {
                assert!(a.1 <= b.0 || b.1 <= a.0, "{a:x?} overlaps {b:x?}");
            }
        }
    }

    #[test]
    fn listing4_constants() {
        // Listing 4 loads f_ops from offset 40 with constant 0xfb45 and
        // calls `read` at offset 16.
        assert_eq!(file_struct::F_OPS, 40);
        assert_eq!(type_consts::FILE_F_OPS, 0xfb45);
        assert_eq!(file_operations::READ, 16);
    }

    #[test]
    fn pt_regs_slots_are_within_size() {
        for off in [PT_X0, PT_X8, PT_X30, PT_SP_EL0, PT_ELR, PT_SPSR] {
            assert!(off < PT_REGS_SIZE);
        }
        assert_eq!(u64::from(PT_REGS_SIZE) % 16, 0, "SP stays 16-aligned");
    }
}
