//! Stage-1 translation: the OS-controlled page tables.

use crate::layout::PAGE_SIZE;
use crate::phys::Frame;
use std::collections::HashMap;

/// Stage-1 page attributes.
///
/// The field set mirrors what the VMSAv8 descriptor AP/UXN/PXN bits can
/// express. Deliberately, there is **no `el1_read` field**: the VMSAv8
/// translation-table format makes every stage-1 mapping readable at EL1
/// (Appendix A.2 of the paper), which is exactly why kernel XOM needs the
/// hypervisor's stage 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct S1Attr {
    /// Readable at EL0.
    pub el0_read: bool,
    /// Writable at EL0.
    pub el0_write: bool,
    /// Executable at EL0 (`UXN` clear).
    pub el0_exec: bool,
    /// Writable at EL1.
    pub el1_write: bool,
    /// Executable at EL1 (`PXN` clear).
    pub el1_exec: bool,
}

impl S1Attr {
    /// Kernel text: EL1 execute, no writes, invisible to EL0.
    pub fn kernel_text() -> Self {
        S1Attr {
            el0_read: false,
            el0_write: false,
            el0_exec: false,
            el1_write: false,
            el1_exec: true,
        }
    }

    /// Kernel read-only data (`.rodata`): no writes, no execute, EL1 only.
    pub fn kernel_rodata() -> Self {
        S1Attr {
            el0_read: false,
            el0_write: false,
            el0_exec: false,
            el1_write: false,
            el1_exec: false,
        }
    }

    /// Kernel read-write data: EL1 read/write, no execute (W⊕X).
    pub fn kernel_data() -> Self {
        S1Attr {
            el0_read: false,
            el0_write: false,
            el0_exec: false,
            el1_write: true,
            el1_exec: false,
        }
    }

    /// User text: EL0 read/execute (and implicitly EL1-readable).
    pub fn user_text() -> Self {
        S1Attr {
            el0_read: true,
            el0_write: false,
            el0_exec: true,
            el1_write: false,
            el1_exec: false,
        }
    }

    /// User data: EL0 read/write, never executable.
    pub fn user_data() -> Self {
        S1Attr {
            el0_read: true,
            el0_write: true,
            el0_exec: false,
            el1_write: true,
            el1_exec: false,
        }
    }
}

/// One stage-1 translation entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S1Entry {
    /// The backing physical frame.
    pub frame: Frame,
    /// Page attributes.
    pub attr: S1Attr,
}

/// A stage-1 translation table: VA page → physical frame + attributes.
///
/// The simulator models translation maps rather than the multi-level
/// descriptor walk; permissions and the split-half semantics are faithful,
/// the walk mechanics are not what the paper's design depends on.
#[derive(Debug, Clone, Default)]
pub struct Stage1Table {
    entries: HashMap<u64, S1Entry>,
}

impl Stage1Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Stage1Table::default()
    }

    /// Maps the page containing `va` to `frame` with `attr`.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not page-aligned.
    pub fn map(&mut self, va: u64, frame: Frame, attr: S1Attr) {
        assert!(va % PAGE_SIZE == 0, "mapping must be page aligned");
        self.entries.insert(va / PAGE_SIZE, S1Entry { frame, attr });
    }

    /// Removes the mapping for the page containing `va`, returning it.
    pub fn unmap(&mut self, va: u64) -> Option<S1Entry> {
        self.entries.remove(&(va / PAGE_SIZE))
    }

    /// Looks up the entry for the page containing `va`.
    pub fn lookup(&self, va: u64) -> Option<S1Entry> {
        self.entries.get(&(va / PAGE_SIZE)).copied()
    }

    /// Changes the attributes of an existing mapping.
    ///
    /// Returns `false` if the page is unmapped.
    pub fn set_attr(&mut self, va: u64, attr: S1Attr) -> bool {
        if let Some(entry) = self.entries.get_mut(&(va / PAGE_SIZE)) {
            entry.attr = attr;
            true
        } else {
            false
        }
    }

    /// Removes every mapping.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over `(va_page_base, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, S1Entry)> + '_ {
        self.entries.iter().map(|(&page, &e)| (page * PAGE_SIZE, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: u64) -> Frame {
        Frame::containing(n * PAGE_SIZE)
    }

    #[test]
    fn map_lookup_unmap() {
        let mut table = Stage1Table::new();
        table.map(0x1000, frame(7), S1Attr::kernel_data());
        let entry = table.lookup(0x1ABC).expect("same page");
        assert_eq!(entry.frame, frame(7));
        assert!(table.lookup(0x2000).is_none());
        assert!(table.unmap(0x1000).is_some());
        assert!(table.lookup(0x1000).is_none());
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_map_panics() {
        let mut table = Stage1Table::new();
        table.map(0x1004, frame(1), S1Attr::kernel_data());
    }

    #[test]
    fn attr_presets_enforce_w_xor_x() {
        for attr in [
            S1Attr::kernel_text(),
            S1Attr::kernel_rodata(),
            S1Attr::kernel_data(),
            S1Attr::user_text(),
            S1Attr::user_data(),
        ] {
            assert!(
                !(attr.el1_write && attr.el1_exec),
                "no page may be EL1-writable and EL1-executable: {attr:?}"
            );
            assert!(
                !(attr.el0_write && attr.el0_exec),
                "no page may be EL0-writable and EL0-executable: {attr:?}"
            );
        }
    }

    #[test]
    fn set_attr_on_mapped_page() {
        let mut table = Stage1Table::new();
        table.map(0x3000, frame(2), S1Attr::kernel_data());
        assert!(table.set_attr(0x3000, S1Attr::kernel_rodata()));
        assert_eq!(table.lookup(0x3000).unwrap().attr, S1Attr::kernel_rodata());
        assert!(!table.set_attr(0x9000, S1Attr::kernel_rodata()));
    }

    #[test]
    fn iter_reports_page_bases() {
        let mut table = Stage1Table::new();
        table.map(0x5000, frame(3), S1Attr::user_data());
        let all: Vec<_> = table.iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, 0x5000);
        assert_eq!(table.mapped_pages(), 1);
    }
}
