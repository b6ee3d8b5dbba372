//! Two-stage translation and the memory facade used by the CPU.

use crate::layout::{classify_va, VaClass, PAGE_SIZE};
use crate::phys::{Frame, PhysMem};
use crate::stage1::{S1Attr, Stage1Table};
use crate::stage2::{S2Attr, Stage2Locked, Stage2Table};
use core::fmt;
use std::cell::Cell;

/// Exception level of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum El {
    /// User mode.
    El0,
    /// Kernel mode.
    El1,
}

impl fmt::Display for El {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            El::El0 => write!(f, "EL0"),
            El::El1 => write!(f, "EL1"),
        }
    }
}

/// The kind of memory access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Read => write!(f, "read"),
            AccessType::Write => write!(f, "write"),
            AccessType::Execute => write!(f, "execute"),
        }
    }
}

/// Handle to a stage-1 translation table owned by [`Memory`].
///
/// The value programmed into `TTBR0_EL1`/`TTBR1_EL1` in the simulated
/// machine is a `TableId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub(crate) usize);

impl TableId {
    /// The raw index, as stored in a TTBR system register.
    pub fn raw(self) -> u64 {
        self.0 as u64
    }

    /// Reconstructs a table id from a TTBR register value.
    pub fn from_raw(raw: u64) -> TableId {
        TableId(raw as usize)
    }
}

/// Everything translation needs to know about the current machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationCtx {
    /// Table for the user half (VA bit 55 = 0).
    pub ttbr0: TableId,
    /// Table for the kernel half (VA bit 55 = 1).
    pub ttbr1: TableId,
    /// Exception level performing the access.
    pub el: El,
    /// Top-byte-ignore for user addresses (Linux default: on).
    pub tbi_user: bool,
}

/// A translation or permission fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// The address's sign-extension bits do not match bit 55 — the fault a
    /// failed `AUT*` ultimately produces when the pointer is used.
    NonCanonical {
        /// Faulting virtual address.
        va: u64,
    },
    /// No stage-1 mapping for the page.
    Translation {
        /// Faulting virtual address.
        va: u64,
    },
    /// Stage-1 permission denial.
    Permission {
        /// Faulting virtual address.
        va: u64,
        /// Attempted access.
        access: AccessType,
        /// Level performing the access.
        el: El,
    },
    /// Stage-2 (hypervisor) permission denial — e.g. reading XOM.
    Stage2 {
        /// Faulting virtual address.
        va: u64,
        /// Physical address after stage-1 translation.
        pa: u64,
        /// Attempted access.
        access: AccessType,
    },
    /// Translation produced a physical address with no backing frame.
    Unmapped {
        /// The unbacked physical address.
        pa: u64,
    },
    /// Instruction fetch from a non-word-aligned address.
    FetchUnaligned {
        /// Faulting virtual address.
        va: u64,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::NonCanonical { va } => write!(f, "non-canonical address {va:#x}"),
            MemFault::Translation { va } => write!(f, "translation fault at {va:#x}"),
            MemFault::Permission { va, access, el } => {
                write!(f, "stage-1 permission fault: {access} at {va:#x} from {el}")
            }
            MemFault::Stage2 { va, pa, access } => {
                write!(f, "stage-2 fault: {access} at {va:#x} (pa {pa:#x})")
            }
            MemFault::Unmapped { pa } => write!(f, "no frame backs pa {pa:#x}"),
            MemFault::FetchUnaligned { va } => write!(f, "unaligned fetch from {va:#x}"),
        }
    }
}

impl std::error::Error for MemFault {}

/// A private one-entry translation memo owned by a single access site
/// (e.g. one load/store op inside a CPU trace), checked before the shared
/// software TLB.
///
/// A hit proves exactly what a TLB hit proves — a previously *successful*
/// translation of the same page, under the same table, at the same
/// exception level, in the same translation generation — so serving the
/// frame base from the memo is equivalent to the TLB hit path (any
/// `map`/`unmap`/`set_attr`/stage-2 change bumps the generation and
/// forces the full path). Two constraints the owner must uphold: one memo
/// is used with **one access type** only (the memo does not tag it), and
/// only while the shared caches are enabled (the accessors fall back to
/// the seed-faithful path themselves when they are not).
///
/// Memo hits bypass the TLB entirely, so they do not advance the
/// `tlb_hits`/`tlb_misses` observability counters — those describe the
/// shared TLB only, exactly as PAC-site memos are excluded from the
/// shared `pac_memo_*` counters.
#[derive(Debug, Clone, Copy)]
pub struct TransMemo {
    valid: bool,
    page: u64,
    table: u64,
    el: El,
    generation: u64,
    frame_base: u64,
}

impl Default for TransMemo {
    fn default() -> TransMemo {
        TransMemo {
            valid: false,
            page: 0,
            table: 0,
            el: El::El0,
            generation: 0,
            frame_base: 0,
        }
    }
}

/// One software-TLB slot, sized and laid out for the hit path: a packed
/// tag (effective-VA page, EL, access type), the stage-1 table consulted,
/// the fill-time generation, and the frame base. A slot whose generation
/// no longer matches the memory system's is stale and must never be served
/// — this is what makes permission downgrades (`set_attr`,
/// `protect_stage2`) take effect on the very next access.
///
/// The table is identified by the table actually consulted (the TTBR the
/// VA's bit 55 selects), so two contexts sharing a kernel table share its
/// TLB entries — exactly like a physical TLB tagged by ASID.
///
/// An empty slot is encoded as `generation == u64::MAX` (the counter
/// starts at zero and increments, so no live fill can carry it).
#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    /// `page << 4 | el << 2 | access` of the effective (tag-stripped) VA.
    ///
    /// Matching the full page-bit pattern of a *cached* (hence canonical)
    /// address proves the probed address canonical too, which is what
    /// lets the hit path skip the canonical-form classification.
    tag: u64,
    /// Index of the stage-1 table consulted.
    table: u64,
    /// Fill-time generation ([`u64::MAX`] = empty slot).
    generation: u64,
    /// Base PA of the backing frame.
    frame_base: u64,
}

impl TlbSlot {
    const EMPTY: TlbSlot = TlbSlot {
        tag: 0,
        table: 0,
        generation: u64::MAX,
        frame_base: 0,
    };

    fn tag(page: u64, el: El, access: AccessType) -> u64 {
        page << 4 | (el as u64) << 2 | access as u64
    }

    /// Direct-mapped slot index: spread page indices so that the (page,
    /// table, el, access) combinations a hot loop touches land in distinct
    /// slots, and mix the table id so that two tables mapping the same VA
    /// page (two processes across a context switch) do not evict each
    /// other's entries.
    fn slot(tag: u64, table: u64) -> usize {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        ((tag ^ table.rotate_left(23)).wrapping_mul(GOLDEN) >> 49) as usize & (TLB_SIZE - 1)
    }
}

/// Number of direct-mapped software-TLB slots (power of two).
///
/// Direct-mapped rather than associative: a conflict simply evicts, and
/// correctness never depends on residency — only speed does.
const TLB_SIZE: usize = 1024;

/// The complete simulated memory system: physical frames, stage-1 tables,
/// and the hypervisor's stage-2 overlay.
///
/// # Performance architecture
///
/// Translation results are cached in a direct-mapped software TLB so hot
/// loops do not re-walk the tables on every byte, and bulk accesses
/// translate once per *page* instead of once per byte. The fast path is
/// *architecturally invisible*: only successful translations are cached,
/// every cacheable input is part of the key, and a global generation
/// counter — bumped by every operation that can change a translation or
/// permission ([`Memory::map`], [`Memory::set_attr`],
/// [`Memory::protect_stage2`], [`Memory::map_new`]) — invalidates all
/// entries at once. A stale entry can therefore never serve a downgraded
/// permission.
///
/// # Recycling
///
/// Physical frames ([`Memory::free_frame`]) and stage-1 tables
/// ([`Memory::free_table`]) are reused after they are freed. Both frees
/// bump the generation, and a freed frame's write version only ever grows
/// (see [`PhysMem`]), so no cache keyed on a table id, a physical address
/// or a frame version can serve a freed object's old contents to its next
/// owner.
///
/// [`Memory::set_caching`]`(false)` selects the seed-faithful slow path —
/// no TLB *and* per-byte translation in the bulk accessors — which is the
/// A/B baseline the `perfcheck` harness measures against. Architectural
/// behaviour — every fault, every value, every permission decision — is
/// bit-identical on either path.
#[derive(Debug)]
pub struct Memory {
    phys: PhysMem,
    tables: Vec<Stage1Table>,
    /// Freed (emptied) tables, reused LIFO by [`Memory::new_table`].
    free_tables: Vec<TableId>,
    stage2: Stage2Table,
    /// Generation counter for translation-affecting mutations.
    generation: u64,
    /// Software TLB (`Cell` interior mutability: `translate` is `&self`,
    /// and the hit path must not pay `RefCell`'s borrow bookkeeping).
    tlb: Vec<Cell<TlbSlot>>,
    tlb_enabled: bool,
    tlb_hits: Cell<u64>,
    tlb_misses: Cell<u64>,
    /// Explicit whole-TLB invalidations requested via [`Memory::tlb_flush`]
    /// (the cluster shootdown protocol), as opposed to the implicit
    /// invalidation every mutation performs.
    shootdowns: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// Creates an empty memory system (caching enabled).
    pub fn new() -> Self {
        Memory {
            phys: PhysMem::new(),
            tables: Vec::new(),
            free_tables: Vec::new(),
            stage2: Stage2Table::new(),
            generation: 0,
            tlb: vec![Cell::new(TlbSlot::EMPTY); TLB_SIZE],
            tlb_enabled: true,
            tlb_hits: Cell::new(0),
            tlb_misses: Cell::new(0),
            shootdowns: 0,
        }
    }

    /// Enables or disables the fast path (A/B benchmarking knob): the
    /// software TLB *and* the page-granular bulk accessors. Disabled, the
    /// memory system walks the tables once per byte, faithfully
    /// reproducing the seed implementation the `perfcheck` harness
    /// baselines against.
    ///
    /// Architectural behaviour — every fault, every value, every
    /// permission decision — is identical with caching on or off; only
    /// wall-clock speed changes.
    pub fn set_caching(&mut self, enabled: bool) {
        self.tlb_enabled = enabled;
        if !enabled {
            self.tlb.fill(Cell::new(TlbSlot::EMPTY));
        }
    }

    /// Whether the software TLB is enabled.
    pub fn caching(&self) -> bool {
        self.tlb_enabled
    }

    /// Software-TLB hit count since construction.
    pub fn tlb_hits(&self) -> u64 {
        self.tlb_hits.get()
    }

    /// Software-TLB miss count since construction (counts only translations
    /// attempted while caching is enabled).
    pub fn tlb_misses(&self) -> u64 {
        self.tlb_misses.get()
    }

    /// The current translation generation (bumped by every mutation that
    /// can affect a translation result).
    pub fn translation_generation(&self) -> u64 {
        self.generation
    }

    /// Explicitly invalidates every TLB entry — the `TLBI`-broadcast half
    /// of a cluster TLB shootdown.
    ///
    /// One `Memory` serves every core of a cluster, so its generation
    /// counter is *per-cluster* by construction: a permission downgrade
    /// performed through core 0 is unservable from any core's next access
    /// even without this call. `tlb_flush` exists for the protocol level —
    /// host-side kernel code that wants an explicit barrier (and a
    /// counter) to pair with its shootdown IPIs.
    pub fn tlb_flush(&mut self) {
        self.bump_generation();
        self.shootdowns += 1;
    }

    /// Number of explicit [`Memory::tlb_flush`] shootdowns performed.
    pub fn tlb_shootdowns(&self) -> u64 {
        self.shootdowns
    }

    /// Invalidates every TLB entry by advancing the generation.
    ///
    /// The generation check alone is what guarantees staleness can never
    /// be served; slots are left in place and simply refill on next use.
    fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Allocates an empty stage-1 table: the most recently freed one if
    /// any, otherwise a new one.
    pub fn new_table(&mut self) -> TableId {
        if let Some(table) = self.free_tables.pop() {
            return table;
        }
        self.tables.push(Stage1Table::new());
        TableId(self.tables.len() - 1)
    }

    /// Frees `table` for reuse by a later [`Memory::new_table`]: every
    /// mapping is removed and the generation bumped, so no cached
    /// translation through the old table survives into the id's next
    /// life. The frames it mapped are *not* freed; their owner frees them.
    ///
    /// Returns `false`, and changes nothing, for an unknown or already
    /// freed table.
    pub fn free_table(&mut self, table: TableId) -> bool {
        if table.0 >= self.tables.len() || self.free_tables.contains(&table) {
            return false;
        }
        self.tables[table.0].clear();
        self.free_tables.push(table);
        self.bump_generation();
        true
    }

    /// Number of live stage-1 tables: created and not freed since. The
    /// frame-side twin is [`PhysMem::frame_count`].
    pub fn table_count(&self) -> usize {
        self.tables.len() - self.free_tables.len()
    }

    /// Allocates a zeroed physical frame (a recycled one when any is free).
    pub fn alloc_frame(&mut self) -> Frame {
        self.phys.alloc()
    }

    /// Frees `frame` for reuse by a later [`Memory::alloc_frame`] (see
    /// [`PhysMem::free`]) and bumps the generation.
    ///
    /// The caller must own the frame and have unmapped it: this layer
    /// keeps no reverse map. It does refuse — returning `false` and
    /// changing nothing — a frame that is not live (no double free) and
    /// a frame that carries a stage-2 override: hypervisor-sealed memory
    /// such as the XOM kernel text is never recycled.
    pub fn free_frame(&mut self, frame: Frame) -> bool {
        if self.stage2.is_guarded(frame) || !self.phys.free(frame) {
            return false;
        }
        self.bump_generation();
        true
    }

    /// Maps `va`'s page to `frame` in `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is stale or `va` is not page-aligned.
    pub fn map(&mut self, table: TableId, va: u64, frame: Frame, attr: S1Attr) {
        self.tables[table.0].map(va, frame, attr);
        self.bump_generation();
    }

    /// Removes the stage-1 mapping of `va`'s page from `table`, returning
    /// whether a mapping existed. The generation bump makes any cached
    /// translation of the page unservable from the very next access on any
    /// core — the module-unload path relies on this to guarantee that
    /// unloaded kernel text can never be fetched again.
    ///
    /// The backing frame is *not* freed; only the translation disappears.
    /// Its owner frees it with [`Memory::free_frame`].
    pub fn unmap(&mut self, table: TableId, va: u64) -> bool {
        let removed = self.tables[table.0].unmap(va).is_some();
        if removed {
            self.bump_generation();
        }
        removed
    }

    /// Changes the stage-1 attributes of a mapped page.
    pub fn set_attr(&mut self, table: TableId, va: u64, attr: S1Attr) -> bool {
        let changed = self.tables[table.0].set_attr(va, attr);
        if changed {
            self.bump_generation();
        }
        changed
    }

    /// Read access to a stage-1 table.
    pub fn table(&self, table: TableId) -> &Stage1Table {
        &self.tables[table.0]
    }

    /// Applies a stage-2 permission override (hypervisor operation).
    ///
    /// # Errors
    ///
    /// Fails with [`Stage2Locked`] after [`Memory::lock_stage2`].
    pub fn protect_stage2(&mut self, frame: Frame, attr: S2Attr) -> Result<(), Stage2Locked> {
        self.stage2.protect(frame, attr)?;
        self.bump_generation();
        Ok(())
    }

    /// Locks the stage-2 table (hypervisor boot-finalisation).
    pub fn lock_stage2(&mut self) {
        self.stage2.lock();
    }

    /// The hypervisor's stage-2 table.
    pub fn stage2(&self) -> &Stage2Table {
        &self.stage2
    }

    /// Direct physical memory access (bootloader / debugging use).
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Direct mutable physical memory access (bootloader / debugging use).
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// A kernel-mode translation context with both halves on `table`.
    ///
    /// Convenient for early boot, before any user address space exists.
    pub fn kernel_ctx(&self, table: TableId) -> TranslationCtx {
        TranslationCtx {
            ttbr0: table,
            ttbr1: table,
            el: El::El1,
            tbi_user: true,
        }
    }

    /// Strips ignored tag bits and validates canonical form.
    fn effective_va(&self, ctx: &TranslationCtx, va: u64) -> Result<u64, MemFault> {
        let select = (va >> 55) & 1;
        let va = if select == 0 && ctx.tbi_user {
            va & 0x00FF_FFFF_FFFF_FFFF
        } else {
            va
        };
        match classify_va(va) {
            VaClass::Invalid => Err(MemFault::NonCanonical { va }),
            _ => Ok(va),
        }
    }

    /// Translates `va` for `access`, applying both stages.
    ///
    /// # Errors
    ///
    /// Returns the architectural fault the access would raise, in priority
    /// order: canonical check, stage-1 walk, stage-1 permissions, stage-2
    /// permissions, physical backing.
    #[inline]
    pub fn translate(
        &self,
        ctx: &TranslationCtx,
        va: u64,
        access: AccessType,
    ) -> Result<u64, MemFault> {
        // Strip ignored user tag bits first; the full canonical-form
        // classification is deferred to the miss path, because a hit —
        // whose tag matches every page bit of a previously *successful*
        // (hence canonical) translation — proves the address canonical.
        let stripped = if (va >> 55) & 1 == 0 && ctx.tbi_user {
            va & 0x00FF_FFFF_FFFF_FFFF
        } else {
            va
        };
        let table_id = if (stripped >> 55) & 1 == 1 {
            ctx.ttbr1
        } else {
            ctx.ttbr0
        };
        if self.tlb_enabled {
            let tag = TlbSlot::tag(stripped / PAGE_SIZE, ctx.el, access);
            let slot = TlbSlot::slot(tag, table_id.0 as u64);
            let entry = self.tlb[slot].get();
            if entry.tag == tag
                && entry.table == table_id.0 as u64
                && entry.generation == self.generation
            {
                self.tlb_hits.set(self.tlb_hits.get() + 1);
                return Ok(entry.frame_base + stripped % PAGE_SIZE);
            }
            self.tlb_misses.set(self.tlb_misses.get() + 1);
            let eva = self.effective_va(ctx, va)?;
            let pa = self.translate_slow(table_id, eva, access, ctx.el)?;
            self.tlb[slot].set(TlbSlot {
                tag,
                table: table_id.0 as u64,
                generation: self.generation,
                frame_base: Frame::containing(pa).base(),
            });
            Ok(pa)
        } else {
            let eva = self.effective_va(ctx, va)?;
            self.translate_slow(table_id, eva, access, ctx.el)
        }
    }

    /// The uncached two-stage walk over an already-canonicalised address.
    fn translate_slow(
        &self,
        table_id: TableId,
        eva: u64,
        access: AccessType,
        el: El,
    ) -> Result<u64, MemFault> {
        let table = &self.tables[table_id.0];
        let entry = table.lookup(eva).ok_or(MemFault::Translation { va: eva })?;

        let s1_ok = match (el, access) {
            // The VMSAv8 quirk: stage 1 cannot deny an EL1 read.
            (El::El1, AccessType::Read) => true,
            (El::El1, AccessType::Write) => entry.attr.el1_write,
            (El::El1, AccessType::Execute) => entry.attr.el1_exec,
            (El::El0, AccessType::Read) => entry.attr.el0_read,
            (El::El0, AccessType::Write) => entry.attr.el0_write,
            (El::El0, AccessType::Execute) => entry.attr.el0_exec,
        };
        if !s1_ok {
            return Err(MemFault::Permission {
                va: eva,
                access,
                el,
            });
        }

        let pa = entry.frame.base() + (eva % PAGE_SIZE);
        let s2 = self.stage2.attr(entry.frame);
        let s2_ok = match access {
            AccessType::Read => s2.read,
            AccessType::Write => s2.write,
            AccessType::Execute => s2.exec,
        };
        if !s2_ok {
            return Err(MemFault::Stage2 {
                va: eva,
                pa,
                access,
            });
        }

        if !self.phys.is_allocated(entry.frame) {
            return Err(MemFault::Unmapped { pa });
        }
        Ok(pa)
    }

    /// Reads `buf.len()` bytes at `va` (may span pages), translating once
    /// per touched page and slice-copying against physical memory.
    ///
    /// With caching disabled the seed-faithful per-byte walk runs instead;
    /// results and faults are identical (every byte of a page shares one
    /// translation result).
    pub fn read_bytes(
        &self,
        ctx: &TranslationCtx,
        va: u64,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        if !self.tlb_enabled {
            // Seed baseline: one full two-stage walk per byte.
            for (i, byte) in buf.iter_mut().enumerate() {
                let addr = va.wrapping_add(i as u64);
                let pa = self.translate(ctx, addr, AccessType::Read)?;
                *byte = self.phys.read_u8(pa).ok_or(MemFault::Unmapped { pa })?;
            }
            return Ok(());
        }
        let mut off = 0usize;
        while off < buf.len() {
            let addr = va.wrapping_add(off as u64);
            let pa = self.translate(ctx, addr, AccessType::Read)?;
            let n = ((PAGE_SIZE - addr % PAGE_SIZE) as usize).min(buf.len() - off);
            self.phys
                .read_bytes(pa, &mut buf[off..off + n])
                .ok_or(MemFault::Unmapped { pa })?;
            off += n;
        }
        Ok(())
    }

    /// Writes `bytes` at `va` (may span pages).
    ///
    /// A faulting write has **no partial effect**: one translation per
    /// touched page is validated up front (not one per byte — within a page
    /// every byte shares a translation result, so per-page validation is
    /// exactly as strong), and only then are the page slices copied.
    pub fn write_bytes(
        &mut self,
        ctx: &TranslationCtx,
        va: u64,
        bytes: &[u8],
    ) -> Result<(), MemFault> {
        if bytes.is_empty() {
            return Ok(());
        }
        if !self.tlb_enabled {
            // Seed baseline: validate one walk per byte, then write one
            // walk per byte. (Within a page every byte shares a
            // translation result, so the page-granular fast path below is
            // exactly as strong — this path exists as the perfcheck A/B
            // reference and to prove that equivalence.)
            for i in 0..bytes.len() {
                self.translate(ctx, va.wrapping_add(i as u64), AccessType::Write)?;
            }
            for (i, &byte) in bytes.iter().enumerate() {
                let addr = va.wrapping_add(i as u64);
                let pa = self.translate(ctx, addr, AccessType::Write)?;
                self.phys
                    .write_u8(pa, byte)
                    .ok_or(MemFault::Unmapped { pa })?;
            }
            return Ok(());
        }
        let first_page_span = (PAGE_SIZE - va % PAGE_SIZE) as usize;
        if bytes.len() <= first_page_span {
            // Fast path: the write stays within one page — a single
            // translation is both the validation pass and the write pass.
            let pa = self.translate(ctx, va, AccessType::Write)?;
            return self
                .phys
                .write_bytes(pa, bytes)
                .ok_or(MemFault::Unmapped { pa });
        }
        // Page-crossing write: validate one translation per touched page
        // before mutating anything, so a faulting write has no partial
        // effect; then copy per-page slices through the recorded PAs.
        let mut chunks: Vec<(u64, usize, usize)> = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let addr = va.wrapping_add(off as u64);
            let pa = self.translate(ctx, addr, AccessType::Write)?;
            let n = ((PAGE_SIZE - addr % PAGE_SIZE) as usize).min(bytes.len() - off);
            chunks.push((pa, off, n));
            off += n;
        }
        for (pa, off, n) in chunks {
            self.phys
                .write_bytes(pa, &bytes[off..off + n])
                .ok_or(MemFault::Unmapped { pa })?;
        }
        Ok(())
    }

    /// Reads a little-endian u64 (single translation when page-local).
    #[inline]
    pub fn read_u64(&self, ctx: &TranslationCtx, va: u64) -> Result<u64, MemFault> {
        if self.tlb_enabled && va % PAGE_SIZE <= PAGE_SIZE - 8 {
            let pa = self.translate(ctx, va, AccessType::Read)?;
            return self.phys.read_u64(pa).ok_or(MemFault::Unmapped { pa });
        }
        let mut buf = [0u8; 8];
        self.read_bytes(ctx, va, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian u64 (single translation when page-local).
    #[inline]
    pub fn write_u64(&mut self, ctx: &TranslationCtx, va: u64, value: u64) -> Result<(), MemFault> {
        if self.tlb_enabled && va % PAGE_SIZE <= PAGE_SIZE - 8 {
            // Page-local fast path, mirroring `read_u64`: one translation
            // is both the validation pass and the write pass.
            let pa = self.translate(ctx, va, AccessType::Write)?;
            return self
                .phys
                .write_u64(pa, value)
                .ok_or(MemFault::Unmapped { pa });
        }
        self.write_bytes(ctx, va, &value.to_le_bytes())
    }

    /// [`Memory::translate`] with a per-site [`TransMemo`] checked first.
    ///
    /// The memo compares the same validity tuple the TLB tag encodes
    /// (page, table, exception level, generation — access type is fixed
    /// per site, see [`TransMemo`]); on a miss the shared path runs and
    /// refills the memo.
    #[inline]
    pub fn translate_memo(
        &self,
        ctx: &TranslationCtx,
        va: u64,
        access: AccessType,
        memo: &mut TransMemo,
    ) -> Result<u64, MemFault> {
        if !self.tlb_enabled {
            return self.translate(ctx, va, access);
        }
        // Mirror `translate`'s tag handling exactly: strip ignored user
        // tag bits, then select the table by VA bit 55.
        let stripped = if (va >> 55) & 1 == 0 && ctx.tbi_user {
            va & 0x00FF_FFFF_FFFF_FFFF
        } else {
            va
        };
        let table_id = if (stripped >> 55) & 1 == 1 {
            ctx.ttbr1
        } else {
            ctx.ttbr0
        };
        if memo.valid
            && memo.page == stripped / PAGE_SIZE
            && memo.table == table_id.0 as u64
            && memo.el == ctx.el
            && memo.generation == self.generation
        {
            return Ok(memo.frame_base + stripped % PAGE_SIZE);
        }
        let pa = self.translate(ctx, va, access)?;
        *memo = TransMemo {
            valid: true,
            page: stripped / PAGE_SIZE,
            table: table_id.0 as u64,
            el: ctx.el,
            generation: self.generation,
            frame_base: Frame::containing(pa).base(),
        };
        Ok(pa)
    }

    /// [`Memory::read_u64`] through a per-site [`TransMemo`].
    #[inline]
    pub fn read_u64_memo(
        &self,
        ctx: &TranslationCtx,
        va: u64,
        memo: &mut TransMemo,
    ) -> Result<u64, MemFault> {
        if self.tlb_enabled && va % PAGE_SIZE <= PAGE_SIZE - 8 {
            let pa = self.translate_memo(ctx, va, AccessType::Read, memo)?;
            return self.phys.read_u64(pa).ok_or(MemFault::Unmapped { pa });
        }
        self.read_u64(ctx, va)
    }

    /// [`Memory::write_u64`] through a per-site [`TransMemo`].
    #[inline]
    pub fn write_u64_memo(
        &mut self,
        ctx: &TranslationCtx,
        va: u64,
        value: u64,
        memo: &mut TransMemo,
    ) -> Result<(), MemFault> {
        if self.tlb_enabled && va % PAGE_SIZE <= PAGE_SIZE - 8 {
            let pa = self.translate_memo(ctx, va, AccessType::Write, memo)?;
            return self
                .phys
                .write_u64(pa, value)
                .ok_or(MemFault::Unmapped { pa });
        }
        self.write_u64(ctx, va, value)
    }

    /// Reads the adjacent qwords at `va` and `va + 8` with one
    /// translation, through a per-site [`TransMemo`] — the `LDP` shape.
    ///
    /// Faults and results are identical to two [`Memory::read_u64`] calls:
    /// the single-translation path is only taken when both qwords sit in
    /// one page (one translation result covers every byte of a page), and
    /// anything else falls back to the two-call sequence.
    #[inline]
    pub fn read_u64_pair_memo(
        &self,
        ctx: &TranslationCtx,
        va: u64,
        memo: &mut TransMemo,
    ) -> Result<(u64, u64), MemFault> {
        if self.tlb_enabled && va % PAGE_SIZE <= PAGE_SIZE - 16 {
            let pa = self.translate_memo(ctx, va, AccessType::Read, memo)?;
            let lo = self.phys.read_u64(pa).ok_or(MemFault::Unmapped { pa })?;
            let hi = self
                .phys
                .read_u64(pa + 8)
                .ok_or(MemFault::Unmapped { pa: pa + 8 })?;
            return Ok((lo, hi));
        }
        Ok((
            self.read_u64(ctx, va)?,
            self.read_u64(ctx, va.wrapping_add(8))?,
        ))
    }

    /// Writes the adjacent qwords at `va` and `va + 8` with one
    /// translation, through a per-site [`TransMemo`] — the `STP` shape
    /// (see [`Memory::read_u64_pair_memo`] for the fault-equivalence
    /// argument).
    #[inline]
    pub fn write_u64_pair_memo(
        &mut self,
        ctx: &TranslationCtx,
        va: u64,
        lo: u64,
        hi: u64,
        memo: &mut TransMemo,
    ) -> Result<(), MemFault> {
        if self.tlb_enabled && va % PAGE_SIZE <= PAGE_SIZE - 16 {
            let pa = self.translate_memo(ctx, va, AccessType::Write, memo)?;
            self.phys
                .write_u64(pa, lo)
                .ok_or(MemFault::Unmapped { pa })?;
            return self
                .phys
                .write_u64(pa + 8, hi)
                .ok_or(MemFault::Unmapped { pa: pa + 8 });
        }
        self.write_u64(ctx, va, lo)?;
        self.write_u64(ctx, va.wrapping_add(8), hi)
    }

    /// Translates an instruction fetch: execute access, must be 4-aligned.
    ///
    /// Returns the physical address of the instruction word. The CPU's
    /// decoded-instruction cache keys on this address; the permission walk
    /// (or TLB hit) still happens on *every* fetch, so revoking execute
    /// rights faults on the very next step even for cached instructions.
    #[inline]
    pub fn fetch_loc(&self, ctx: &TranslationCtx, va: u64) -> Result<u64, MemFault> {
        if va % 4 != 0 {
            return Err(MemFault::FetchUnaligned { va });
        }
        self.translate(ctx, va, AccessType::Execute)
    }

    /// Fetches one instruction word (execute access, must be 4-aligned).
    pub fn fetch(&self, ctx: &TranslationCtx, va: u64) -> Result<u32, MemFault> {
        let pa = self.fetch_loc(ctx, va)?;
        self.phys.read_u32(pa).ok_or(MemFault::Unmapped { pa })
    }

    /// Maps a fresh frame at `va` and returns it (allocate-and-map).
    pub fn map_new(&mut self, table: TableId, va: u64, attr: S1Attr) -> Frame {
        let frame = self.alloc_frame();
        self.map(table, va, frame, attr);
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::KERNEL_BASE;

    fn setup() -> (Memory, TableId) {
        let mut mem = Memory::new();
        let table = mem.new_table();
        (mem, table)
    }

    #[test]
    fn read_write_through_translation() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let ctx = mem.kernel_ctx(table);
        mem.write_u64(&ctx, KERNEL_BASE + 8, 0xfeed_f00d).unwrap();
        assert_eq!(mem.read_u64(&ctx, KERNEL_BASE + 8), Ok(0xfeed_f00d));
    }

    #[test]
    fn unmapped_page_translation_fault() {
        let (mem, table) = setup();
        let ctx = mem.kernel_ctx(table);
        assert_eq!(
            mem.read_u64(&ctx, KERNEL_BASE),
            Err(MemFault::Translation { va: KERNEL_BASE })
        );
    }

    #[test]
    fn noncanonical_address_faults() {
        let (mem, table) = setup();
        let ctx = mem.kernel_ctx(table);
        let bad = 0x00ff_0000_0000_1000u64; // ext bits set, bit 55 clear
        assert!(matches!(
            mem.read_u64(&ctx, bad),
            Err(MemFault::NonCanonical { .. })
        ));
    }

    #[test]
    fn user_tag_byte_is_ignored_with_tbi() {
        let (mut mem, table) = setup();
        mem.map_new(table, 0x1000, S1Attr::user_data());
        let mut ctx = mem.kernel_ctx(table);
        ctx.el = El::El0;
        let tagged = 0xAB00_0000_0000_1008u64;
        mem.write_u64(&ctx, tagged, 7).unwrap();
        assert_eq!(mem.read_u64(&ctx, 0x1008), Ok(7));

        // Kernel addresses get no such leniency: a "tagged" kernel pointer
        // is simply non-canonical.
        let mut kctx = mem.kernel_ctx(table);
        kctx.el = El::El1;
        let tagged_kernel = KERNEL_BASE & !(0xFFu64 << 56) | (0xAB << 56);
        assert!(matches!(
            mem.read_u64(&kctx, tagged_kernel),
            Err(MemFault::NonCanonical { .. })
        ));
    }

    #[test]
    fn el1_read_cannot_be_denied_by_stage1() {
        // The architectural quirk from Appendix A.2.
        let (mut mem, table) = setup();
        let frame = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        let ctx = mem.kernel_ctx(table);
        // kernel_text denies EL1 writes but reads still succeed.
        assert!(mem.read_u64(&ctx, KERNEL_BASE).is_ok());
        assert!(matches!(
            mem.write_u64(&mut mem.kernel_ctx(table).clone(), KERNEL_BASE, 0),
            Err(MemFault::Permission { .. })
        ));
        let _ = frame;
    }

    #[test]
    fn stage2_makes_xom_real() {
        let (mut mem, table) = setup();
        let frame = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        mem.protect_stage2(frame, S2Attr::execute_only()).unwrap();
        let ctx = mem.kernel_ctx(table);
        // Fetch works...
        assert!(mem.fetch(&ctx, KERNEL_BASE).is_ok());
        // ...but reads now take a stage-2 fault, despite stage 1 allowing
        // every EL1 read.
        assert!(matches!(
            mem.read_u64(&ctx, KERNEL_BASE),
            Err(MemFault::Stage2 {
                access: AccessType::Read,
                ..
            })
        ));
        // And writes too.
        assert!(matches!(
            mem.write_u64(&mut mem.kernel_ctx(table).clone(), KERNEL_BASE, 0),
            Err(MemFault::Permission { .. }) | Err(MemFault::Stage2 { .. })
        ));
    }

    #[test]
    fn el0_cannot_execute_kernel_xom() {
        let (mut mem, table) = setup();
        let frame = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        mem.protect_stage2(frame, S2Attr::execute_only()).unwrap();
        let mut ctx = mem.kernel_ctx(table);
        ctx.el = El::El0;
        assert!(matches!(
            mem.fetch(&ctx, KERNEL_BASE),
            Err(MemFault::Permission {
                access: AccessType::Execute,
                el: El::El0,
                ..
            })
        ));
    }

    #[test]
    fn el0_cannot_touch_kernel_data() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let mut ctx = mem.kernel_ctx(table);
        ctx.el = El::El0;
        assert!(matches!(
            mem.read_u64(&ctx, KERNEL_BASE),
            Err(MemFault::Permission { .. })
        ));
    }

    #[test]
    fn split_halves_use_their_own_tables() {
        let mut mem = Memory::new();
        let user_table = mem.new_table();
        let kernel_table = mem.new_table();
        mem.map_new(user_table, 0x1000, S1Attr::user_data());
        mem.map_new(kernel_table, KERNEL_BASE, S1Attr::kernel_data());
        let ctx = TranslationCtx {
            ttbr0: user_table,
            ttbr1: kernel_table,
            el: El::El1,
            tbi_user: true,
        };
        assert!(mem.read_u64(&ctx, 0x1000).is_ok());
        assert!(mem.read_u64(&ctx, KERNEL_BASE).is_ok());
        // The kernel half never consults TTBR0.
        assert!(mem.read_u64(&ctx, KERNEL_BASE + 0x1000).is_err());
    }

    #[test]
    fn fetch_requires_alignment() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        let ctx = mem.kernel_ctx(table);
        assert_eq!(
            mem.fetch(&ctx, KERNEL_BASE + 2),
            Err(MemFault::FetchUnaligned {
                va: KERNEL_BASE + 2
            })
        );
    }

    #[test]
    fn faulting_write_has_no_partial_effect() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        // Next page unmapped: a straddling write must fail atomically.
        let ctx = mem.kernel_ctx(table);
        let straddle = KERNEL_BASE + PAGE_SIZE - 4;
        let before = mem.read_u64(&ctx, KERNEL_BASE + PAGE_SIZE - 8).unwrap();
        assert!(mem.write_u64(&mut ctx.clone(), straddle, u64::MAX).is_err());
        assert_eq!(mem.read_u64(&ctx, KERNEL_BASE + PAGE_SIZE - 8), Ok(before));
    }

    #[test]
    fn page_crossing_write_with_faulting_middle_page_is_atomic() {
        // Three-page write with the *middle* page unmapped: the per-page
        // pre-validation must reject the whole write before byte one lands.
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        mem.map_new(table, KERNEL_BASE + 2 * PAGE_SIZE, S1Attr::kernel_data());
        let ctx = mem.kernel_ctx(table);
        let start = KERNEL_BASE + PAGE_SIZE - 8;
        let len = (8 + PAGE_SIZE + 8) as usize;
        let payload = vec![0xABu8; len];
        assert!(matches!(
            mem.write_bytes(&mut ctx.clone(), start, &payload),
            Err(MemFault::Translation { .. })
        ));
        // Neither the mapped head nor the mapped tail was touched.
        assert_eq!(mem.read_u64(&ctx, start), Ok(0));
        assert_eq!(mem.read_u64(&ctx, KERNEL_BASE + 2 * PAGE_SIZE), Ok(0));
    }

    #[test]
    fn page_crossing_write_into_readonly_tail_is_atomic() {
        // The second page is mapped but not writable: the write must fail
        // with a permission fault and leave the writable head untouched.
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_rodata());
        let ctx = mem.kernel_ctx(table);
        let straddle = KERNEL_BASE + PAGE_SIZE - 4;
        assert!(matches!(
            mem.write_u64(&mut ctx.clone(), straddle, u64::MAX),
            Err(MemFault::Permission { .. })
        ));
        assert_eq!(mem.read_u64(&ctx, KERNEL_BASE + PAGE_SIZE - 8), Ok(0));
    }

    #[test]
    fn page_crossing_accesses_roundtrip_through_translation() {
        let (mut mem, table) = setup();
        let f1 = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let f2 = mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_data());
        assert_ne!(f1, f2);
        let ctx = mem.kernel_ctx(table);
        let straddle = KERNEL_BASE + PAGE_SIZE - 3;
        let payload: Vec<u8> = (0..64u8).collect();
        mem.write_bytes(&mut ctx.clone(), straddle, &payload)
            .unwrap();
        let mut back = vec![0u8; 64];
        mem.read_bytes(&ctx, straddle, &mut back).unwrap();
        assert_eq!(back, payload);
        // And the page-boundary u64 fast/slow paths agree.
        mem.write_u64(&mut ctx.clone(), straddle, 0x0102_0304_0506_0708)
            .unwrap();
        assert_eq!(mem.read_u64(&ctx, straddle), Ok(0x0102_0304_0506_0708));
    }

    #[test]
    fn tlb_hits_on_repeated_access_and_counts() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let ctx = mem.kernel_ctx(table);
        let miss0 = mem.tlb_misses();
        mem.read_u64(&ctx, KERNEL_BASE).unwrap();
        assert_eq!(mem.tlb_misses(), miss0 + 1, "first access walks");
        let hits0 = mem.tlb_hits();
        for i in 0..100 {
            mem.read_u64(&ctx, KERNEL_BASE + i * 8).unwrap();
        }
        assert_eq!(mem.tlb_hits(), hits0 + 100, "same page, same generation");
        assert_eq!(mem.tlb_misses(), miss0 + 1);
    }

    #[test]
    fn set_attr_downgrade_invalidates_tlb_immediately() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let ctx = mem.kernel_ctx(table);
        // Warm the write entry.
        mem.write_u64(&mut ctx.clone(), KERNEL_BASE, 7).unwrap();
        mem.write_u64(&mut ctx.clone(), KERNEL_BASE, 8).unwrap();
        assert!(mem.tlb_hits() > 0);
        // Downgrade to read-only: the very next write must fault.
        assert!(mem.set_attr(table, KERNEL_BASE, S1Attr::kernel_rodata()));
        assert!(matches!(
            mem.write_u64(&mut ctx.clone(), KERNEL_BASE, 9),
            Err(MemFault::Permission { .. })
        ));
        assert_eq!(mem.read_u64(&ctx, KERNEL_BASE), Ok(8), "write was blocked");
    }

    #[test]
    fn protect_stage2_invalidates_tlb_immediately() {
        let (mut mem, table) = setup();
        let frame = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        let ctx = mem.kernel_ctx(table);
        // Warm read + fetch entries.
        assert!(mem.read_u64(&ctx, KERNEL_BASE).is_ok());
        assert!(mem.read_u64(&ctx, KERNEL_BASE).is_ok());
        // Hypervisor seals the page execute-only: reads fault on the very
        // next access, fetches keep working.
        mem.protect_stage2(frame, S2Attr::execute_only()).unwrap();
        assert!(matches!(
            mem.read_u64(&ctx, KERNEL_BASE),
            Err(MemFault::Stage2 {
                access: AccessType::Read,
                ..
            })
        ));
        assert!(mem.fetch(&ctx, KERNEL_BASE).is_ok());
    }

    #[test]
    fn caching_off_is_architecturally_identical() {
        let build = |caching: bool| {
            let mut mem = Memory::new();
            mem.set_caching(caching);
            let table = mem.new_table();
            mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
            let ctx = mem.kernel_ctx(table);
            let mut log = Vec::new();
            for i in 0..16u64 {
                log.push(mem.write_u64(&mut ctx.clone(), KERNEL_BASE + i * 64, i));
                log.push(mem.write_u64(&mut ctx.clone(), KERNEL_BASE + PAGE_SIZE, i));
            }
            for i in 0..16u64 {
                log.push(mem.read_u64(&ctx, KERNEL_BASE + i * 64).map(|_| ()));
            }
            log
        };
        assert_eq!(build(true), build(false));
        let mut mem = Memory::new();
        mem.set_caching(false);
        let table = mem.new_table();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let ctx = mem.kernel_ctx(table);
        mem.read_u64(&ctx, KERNEL_BASE).unwrap();
        assert_eq!(mem.tlb_hits() + mem.tlb_misses(), 0, "caches fully off");
    }

    #[test]
    fn tlb_flush_invalidates_and_counts() {
        let (mut mem, table) = setup();
        mem.map_new(table, KERNEL_BASE, S1Attr::kernel_data());
        let ctx = mem.kernel_ctx(table);
        mem.read_u64(&ctx, KERNEL_BASE).unwrap();
        let misses = mem.tlb_misses();
        let gen = mem.translation_generation();
        assert_eq!(mem.tlb_shootdowns(), 0);
        mem.tlb_flush();
        assert_eq!(mem.tlb_shootdowns(), 1);
        assert!(mem.translation_generation() > gen);
        // The previously warm entry must re-walk.
        mem.read_u64(&ctx, KERNEL_BASE).unwrap();
        assert_eq!(mem.tlb_misses(), misses + 1);
    }

    #[test]
    fn a_recycled_table_starts_empty_and_serves_no_stale_translation() {
        let (mut mem, kernel) = setup();
        let user = mem.new_table();
        mem.map_new(user, 0x1000, S1Attr::user_data());
        let ctx = TranslationCtx {
            ttbr0: user,
            ttbr1: kernel,
            el: El::El0,
            tbi_user: true,
        };
        mem.write_u64(&ctx, 0x1000, 7).unwrap();
        assert_eq!(mem.read_u64(&ctx, 0x1000), Ok(7), "warm the TLB");
        assert_eq!(mem.table_count(), 2);
        assert!(mem.free_table(user));
        assert!(!mem.free_table(user), "no double free");
        assert!(!mem.free_table(TableId(99)), "unknown table");
        assert_eq!(mem.table_count(), 1);
        let again = mem.new_table();
        assert_eq!(again, user, "freed ids are reused");
        assert_eq!(mem.table(again).mapped_pages(), 0);
        assert_eq!(
            mem.read_u64(&ctx, 0x1000),
            Err(MemFault::Translation { va: 0x1000 })
        );
        assert_eq!(mem.table_count(), 2);
    }

    #[test]
    fn free_frame_refuses_stage2_guarded_and_dead_frames() {
        let (mut mem, table) = setup();
        let xom = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        mem.protect_stage2(xom, S2Attr::execute_only()).unwrap();
        let data = mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_data());
        let live = mem.phys().frame_count();
        assert!(!mem.free_frame(xom), "sealed text is never recycled");
        assert!(mem.phys().is_allocated(xom));
        let gen = mem.translation_generation();
        assert!(mem.unmap(table, KERNEL_BASE + PAGE_SIZE));
        assert!(mem.free_frame(data));
        assert!(mem.translation_generation() > gen);
        assert!(!mem.free_frame(data), "no double free");
        assert_eq!(mem.phys().frame_count(), live - 1);
        assert_eq!(mem.alloc_frame(), data, "the freed frame comes back first");
    }

    #[test]
    fn fetch_loc_returns_the_instruction_pa() {
        let (mut mem, table) = setup();
        let frame = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        let ctx = mem.kernel_ctx(table);
        assert_eq!(mem.fetch_loc(&ctx, KERNEL_BASE + 8), Ok(frame.base() + 8));
        assert_eq!(
            mem.fetch_loc(&ctx, KERNEL_BASE + 2),
            Err(MemFault::FetchUnaligned {
                va: KERNEL_BASE + 2
            })
        );
    }
}
