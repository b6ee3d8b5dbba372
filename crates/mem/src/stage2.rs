//! Stage-2 translation: the hypervisor's permission overlay.
//!
//! With AArch64 virtualization, every stage-1 output address is checked
//! against a second, hypervisor-owned table. Unlike stage 1, stage 2 has an
//! independent *read* permission — which is the only way to build
//! execute-only memory visible from EL1 (Appendix A.2). The Camouflage
//! bootloader asks the hypervisor to map the key-setter page execute-only
//! and to lock translation control, realizing the threat-model assumption
//! that "the adversary cannot modify write-protected memory (including
//! XOM)".

use crate::phys::Frame;
use std::collections::HashMap;

/// Stage-2 permissions for one physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct S2Attr {
    /// Stage-2 read permission.
    pub read: bool,
    /// Stage-2 write permission.
    pub write: bool,
    /// Stage-2 execute permission.
    pub exec: bool,
}

impl S2Attr {
    /// Full access: the default for frames the hypervisor does not guard.
    pub fn full() -> Self {
        S2Attr {
            read: true,
            write: true,
            exec: true,
        }
    }

    /// Execute-only: the XOM attribute for the key-setter page.
    pub fn execute_only() -> Self {
        S2Attr {
            read: false,
            write: false,
            exec: true,
        }
    }

    /// Read-only (e.g. hypervisor-sealed kernel text).
    pub fn read_exec() -> Self {
        S2Attr {
            read: true,
            write: false,
            exec: true,
        }
    }
}

impl Default for S2Attr {
    fn default() -> Self {
        S2Attr::full()
    }
}

/// The hypervisor's stage-2 table. Frames without an explicit entry get
/// [`S2Attr::full`].
#[derive(Debug, Clone, Default)]
pub struct Stage2Table {
    overrides: HashMap<Frame, S2Attr>,
    locked: bool,
}

impl Stage2Table {
    /// Creates a permissive stage-2 table.
    pub fn new() -> Self {
        Stage2Table::default()
    }

    /// The effective stage-2 permissions of `frame`.
    pub fn attr(&self, frame: Frame) -> S2Attr {
        self.overrides.get(&frame).copied().unwrap_or_default()
    }

    /// Sets the stage-2 permissions of `frame`.
    ///
    /// # Errors
    ///
    /// Fails once the table has been [locked](Stage2Table::lock): the
    /// hypervisor refuses reconfiguration after boot, which is what defeats
    /// in-guest attempts to lift XOM.
    pub fn protect(&mut self, frame: Frame, attr: S2Attr) -> Result<(), Stage2Locked> {
        if self.locked {
            return Err(Stage2Locked);
        }
        self.overrides.insert(frame, attr);
        Ok(())
    }

    /// Permanently locks the table against further permission changes.
    pub fn lock(&mut self) {
        self.locked = true;
    }

    /// Whether the table has been locked.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Whether `frame` carries an explicit permission override (the
    /// hypervisor-sealed kernel text, vectors, rodata and XOM key setter).
    pub fn is_guarded(&self, frame: Frame) -> bool {
        self.overrides.contains_key(&frame)
    }

    /// Number of frames with non-default permissions.
    pub fn guarded_frames(&self) -> usize {
        self.overrides.len()
    }
}

/// Error: the stage-2 table is locked (post-boot reconfiguration attempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage2Locked;

impl core::fmt::Display for Stage2Locked {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "stage-2 table is locked; hypervisor refuses reconfiguration"
        )
    }
}

impl std::error::Error for Stage2Locked {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_access() {
        let table = Stage2Table::new();
        let attr = table.attr(Frame::containing(0x9000));
        assert_eq!(attr, S2Attr::full());
    }

    #[test]
    fn xom_attr_denies_read_and_write() {
        let xom = S2Attr::execute_only();
        assert!(!xom.read);
        assert!(!xom.write);
        assert!(xom.exec);
    }

    #[test]
    fn protect_then_query() {
        let mut table = Stage2Table::new();
        let frame = Frame::containing(0x4000);
        table.protect(frame, S2Attr::execute_only()).unwrap();
        assert_eq!(table.attr(frame), S2Attr::execute_only());
        assert_eq!(table.guarded_frames(), 1);
        assert!(table.is_guarded(frame));
        assert!(!table.is_guarded(Frame::containing(0x5000)));
    }

    #[test]
    fn locked_table_rejects_reconfiguration() {
        let mut table = Stage2Table::new();
        let frame = Frame::containing(0x4000);
        table.protect(frame, S2Attr::execute_only()).unwrap();
        table.lock();
        assert!(table.is_locked());
        let err = table.protect(frame, S2Attr::full()).unwrap_err();
        assert_eq!(err, Stage2Locked);
        // The XOM attribute survives the attempt.
        assert_eq!(table.attr(frame), S2Attr::execute_only());
    }
}
