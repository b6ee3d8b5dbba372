//! Sparse physical memory.

use crate::layout::PAGE_SIZE;

/// A physical page frame number.
///
/// Frames are handed out by [`PhysMem::alloc`]; the frame's base physical
/// address is `frame.base()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Frame(u64);

impl Frame {
    /// The frame containing physical address `pa`.
    pub fn containing(pa: u64) -> Frame {
        Frame(pa / PAGE_SIZE)
    }

    /// The frame number.
    pub fn number(self) -> u64 {
        self.0
    }

    /// The base physical address of this frame.
    pub fn base(self) -> u64 {
        self.0 * PAGE_SIZE
    }
}

/// One backed frame: its bytes plus a monotonically increasing write
/// version.
///
/// The version is bumped on **every** mutation, including direct
/// [`PhysMem`] writes that bypass translation (the attacker's primitive and
/// the loader's fast path). The CPU's decoded-instruction cache keys its
/// entries on `(physical address, frame version)`, so no write — however it
/// reaches the frame — can leave a stale decoded instruction behind.
#[derive(Debug)]
struct FrameData {
    bytes: Box<[u8; PAGE_SIZE as usize]>,
    version: u64,
}

/// Sparse byte-addressable physical memory, allocated in 4 KiB frames.
///
/// Frames are handed out with dense numbers, so the store is a plain `Vec`
/// indexed by frame number — every access is an array index, which is what
/// keeps the CPU's per-step `frame_version` check (and the slice fast paths
/// under the page-granular MMU accessors) cheap.
///
/// Frames are recycled: [`PhysMem::free`] zeroes a frame and parks its
/// storage on a free list, and [`PhysMem::alloc`] hands parked frames out
/// again (most recently freed first) before it grows the store. A freed
/// frame reads as unbacked until it is reallocated. Its write version is
/// bumped on free and never reset, so every `(physical address, version)`
/// snapshot taken before the free is stale after the reuse.
#[derive(Debug, Default)]
pub struct PhysMem {
    /// Indexed by frame number; index 0 is never backed so that physical
    /// address 0 stays invalid. A freed frame's slot is `None`.
    frames: Vec<Option<FrameData>>,
    /// Freed frames awaiting reuse: frame number plus its zeroed storage,
    /// version preserved.
    free: Vec<(u64, FrameData)>,
    live: usize,
}

impl PhysMem {
    /// Creates empty physical memory.
    pub fn new() -> Self {
        PhysMem {
            // Leave frame 0 unused so that physical address 0 stays invalid.
            frames: vec![None],
            free: Vec::new(),
            live: 0,
        }
    }

    /// Allocates a zeroed frame: the most recently freed one if any,
    /// otherwise a fresh one.
    pub fn alloc(&mut self) -> Frame {
        self.live += 1;
        if let Some((number, data)) = self.free.pop() {
            self.frames[number as usize] = Some(data);
            return Frame(number);
        }
        let frame = Frame(self.frames.len() as u64);
        self.frames.push(Some(FrameData {
            bytes: Box::new([0u8; PAGE_SIZE as usize]),
            version: 0,
        }));
        frame
    }

    /// Frees `frame` for reuse by a later [`PhysMem::alloc`]: its bytes
    /// are zeroed and its version bumped past every value it had.
    ///
    /// Returns `false`, and changes nothing, if `frame` is not live — so a
    /// frame can never be freed twice or sit on the free list twice.
    pub fn free(&mut self, frame: Frame) -> bool {
        let Some(mut data) = usize::try_from(frame.0)
            .ok()
            .and_then(|i| self.frames.get_mut(i))
            .and_then(Option::take)
        else {
            return false;
        };
        data.bytes.fill(0);
        data.version += 1;
        self.free.push((frame.0, data));
        self.live -= 1;
        true
    }

    #[inline]
    fn frame(&self, number: u64) -> Option<&FrameData> {
        self.frames.get(usize::try_from(number).ok()?)?.as_ref()
    }

    fn frame_mut(&mut self, number: u64) -> Option<&mut FrameData> {
        self.frames.get_mut(usize::try_from(number).ok()?)?.as_mut()
    }

    /// Whether `frame` is backed by storage.
    pub fn is_allocated(&self, frame: Frame) -> bool {
        self.frame(frame.0).is_some()
    }

    /// Number of live frames: allocated and not freed since.
    pub fn frame_count(&self) -> usize {
        self.live
    }

    /// The write version of `frame`: bumped on every mutation of the
    /// frame's bytes and on every free, never reset (0 for unallocated
    /// and freed frames, which hold no bytes).
    ///
    /// Caches that snapshot frame contents (the CPU's decoded-instruction
    /// cache) validate against this counter.
    #[inline]
    pub fn frame_version(&self, frame: Frame) -> u64 {
        self.frame(frame.0).map_or(0, |f| f.version)
    }

    /// Reads one byte at physical address `pa`, if backed.
    pub fn read_u8(&self, pa: u64) -> Option<u8> {
        let frame = self.frame(pa / PAGE_SIZE)?;
        Some(frame.bytes[(pa % PAGE_SIZE) as usize])
    }

    /// Writes one byte at physical address `pa`, if backed.
    pub fn write_u8(&mut self, pa: u64, value: u8) -> Option<()> {
        let frame = self.frame_mut(pa / PAGE_SIZE)?;
        frame.bytes[(pa % PAGE_SIZE) as usize] = value;
        frame.version += 1;
        Some(())
    }

    /// Reads `buf.len()` bytes starting at `pa` into `buf`, slice-copying
    /// one frame at a time (may span frames).
    pub fn read_bytes(&self, pa: u64, buf: &mut [u8]) -> Option<()> {
        let mut off = 0usize;
        while off < buf.len() {
            let addr = pa + off as u64;
            let in_frame = (PAGE_SIZE - addr % PAGE_SIZE) as usize;
            let n = in_frame.min(buf.len() - off);
            let frame = self.frame(addr / PAGE_SIZE)?;
            let lo = (addr % PAGE_SIZE) as usize;
            buf[off..off + n].copy_from_slice(&frame.bytes[lo..lo + n]);
            off += n;
        }
        Some(())
    }

    /// Writes `bytes` starting at `pa`, slice-copying one frame at a time
    /// (may span frames).
    ///
    /// Fails (returning `None`) without writing anything if any touched
    /// frame is unbacked.
    pub fn write_bytes(&mut self, pa: u64, bytes: &[u8]) -> Option<()> {
        // Validate every touched frame first so a failing write stays
        // all-or-nothing, matching the historic byte-loop behaviour of
        // stopping before the first unbacked byte only at frame granularity.
        let mut off = 0usize;
        while off < bytes.len() {
            let addr = pa + off as u64;
            if self.frame(addr / PAGE_SIZE).is_none() {
                return None;
            }
            off += (PAGE_SIZE - addr % PAGE_SIZE) as usize;
        }
        let mut off = 0usize;
        while off < bytes.len() {
            let addr = pa + off as u64;
            let in_frame = (PAGE_SIZE - addr % PAGE_SIZE) as usize;
            let n = in_frame.min(bytes.len() - off);
            let frame = self.frame_mut(addr / PAGE_SIZE)?;
            let lo = (addr % PAGE_SIZE) as usize;
            frame.bytes[lo..lo + n].copy_from_slice(&bytes[off..off + n]);
            frame.version += 1;
            off += n;
        }
        Some(())
    }

    /// Reads a little-endian u64 at `pa`.
    #[inline]
    pub fn read_u64(&self, pa: u64) -> Option<u64> {
        let off = (pa % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            // Frame-local fast path: one index, one 8-byte load.
            let frame = self.frame(pa / PAGE_SIZE)?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&frame.bytes[off..off + 8]);
            return Some(u64::from_le_bytes(buf));
        }
        let mut buf = [0u8; 8];
        self.read_bytes(pa, &mut buf)?;
        Some(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian u64 at `pa`.
    #[inline]
    pub fn write_u64(&mut self, pa: u64, value: u64) -> Option<()> {
        let off = (pa % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 8 {
            let frame = self.frame_mut(pa / PAGE_SIZE)?;
            frame.bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
            frame.version += 1;
            return Some(());
        }
        self.write_bytes(pa, &value.to_le_bytes())
    }

    /// Reads a little-endian u32 at `pa`.
    #[inline]
    pub fn read_u32(&self, pa: u64) -> Option<u32> {
        let off = (pa % PAGE_SIZE) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            let frame = self.frame(pa / PAGE_SIZE)?;
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&frame.bytes[off..off + 4]);
            return Some(u32::from_le_bytes(buf));
        }
        let mut buf = [0u8; 4];
        self.read_bytes(pa, &mut buf)?;
        Some(u32::from_le_bytes(buf))
    }

    /// Writes a little-endian u32 at `pa`.
    pub fn write_u32(&mut self, pa: u64, value: u32) -> Option<()> {
        self.write_bytes(pa, &value.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_frames_are_zeroed() {
        let mut mem = PhysMem::new();
        let f = mem.alloc();
        assert_eq!(mem.read_u64(f.base()), Some(0));
        assert_eq!(mem.read_u64(f.base() + PAGE_SIZE - 8), Some(0));
    }

    #[test]
    fn frame_zero_is_never_handed_out() {
        let mut mem = PhysMem::new();
        for _ in 0..16 {
            assert_ne!(mem.alloc().number(), 0);
        }
        assert_eq!(mem.read_u8(0), None);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut mem = PhysMem::new();
        let f = mem.alloc();
        mem.write_u64(f.base() + 16, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(mem.read_u64(f.base() + 16), Some(0xdead_beef_cafe_f00d));
        mem.write_u32(f.base(), 0xD503_201F).unwrap();
        assert_eq!(mem.read_u32(f.base()), Some(0xD503_201F));
    }

    #[test]
    fn unbacked_access_returns_none() {
        let mut mem = PhysMem::new();
        assert_eq!(mem.read_u8(0x1_0000_0000), None);
        assert_eq!(mem.write_u8(0x1_0000_0000, 1), None);
    }

    #[test]
    fn cross_frame_spanning_access() {
        let mut mem = PhysMem::new();
        let f1 = mem.alloc();
        let f2 = mem.alloc();
        assert_eq!(f2.number(), f1.number() + 1, "frames allocate contiguously");
        let boundary = f1.base() + PAGE_SIZE - 4;
        mem.write_u64(boundary, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(boundary), Some(0x1122_3344_5566_7788));
    }

    #[test]
    fn frame_base_and_containing() {
        let f = Frame::containing(0x3_2100);
        assert_eq!(f.number(), 0x32);
        assert_eq!(f.base(), 0x3_2000);
    }

    #[test]
    fn every_write_path_bumps_the_frame_version() {
        let mut mem = PhysMem::new();
        let f = mem.alloc();
        assert_eq!(mem.frame_version(f), 0);
        mem.write_u8(f.base(), 1).unwrap();
        let v1 = mem.frame_version(f);
        assert!(v1 > 0);
        mem.write_u32(f.base() + 4, 2).unwrap();
        let v2 = mem.frame_version(f);
        assert!(v2 > v1);
        mem.write_u64(f.base() + 8, 3).unwrap();
        let v3 = mem.frame_version(f);
        assert!(v3 > v2);
        mem.write_bytes(f.base() + 16, &[1, 2, 3]).unwrap();
        assert!(mem.frame_version(f) > v3);
        // Reads leave the version untouched.
        let v = mem.frame_version(f);
        let mut buf = [0u8; 32];
        mem.read_bytes(f.base(), &mut buf).unwrap();
        assert_eq!(mem.frame_version(f), v);
    }

    #[test]
    fn a_reused_frame_reads_zero_under_a_newer_version() {
        let mut mem = PhysMem::new();
        let f = mem.alloc();
        let mut seen = vec![mem.frame_version(f)];
        for i in 0..8u64 {
            mem.write_u64(f.base() + 8 * i, !i).unwrap();
            seen.push(mem.frame_version(f));
        }
        assert!(mem.free(f));
        assert!(!mem.is_allocated(f), "a freed frame is unbacked");
        assert_eq!(mem.read_u8(f.base()), None);
        assert_eq!(mem.frame_count(), 0);
        let again = mem.alloc();
        assert_eq!(again, f, "freed frames are reused before the store grows");
        assert_eq!(mem.frame_count(), 1);
        let mut buf = vec![0xFFu8; PAGE_SIZE as usize];
        mem.read_bytes(again.base(), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "a reused frame reads as zero");
        let v = mem.frame_version(again);
        assert!(seen.iter().all(|&old| v > old), "{v} vs {seen:?}");
    }

    #[test]
    fn free_refuses_dead_and_unknown_frames() {
        let mut mem = PhysMem::new();
        let f = mem.alloc();
        assert!(!mem.free(Frame(0)), "frame 0 is never backed");
        assert!(!mem.free(Frame(99)), "never allocated");
        assert!(mem.free(f));
        assert!(!mem.free(f), "no double free");
        // One free-list entry: two allocations get two distinct frames.
        let a = mem.alloc();
        let b = mem.alloc();
        assert_ne!(a, b);
        assert_eq!(mem.frame_count(), 2);
    }

    #[test]
    fn spanning_write_to_unbacked_tail_is_all_or_nothing() {
        let mut mem = PhysMem::new();
        let f = mem.alloc();
        // No second frame: a straddling write must not touch the first.
        let boundary = f.base() + PAGE_SIZE - 4;
        assert_eq!(mem.write_u64(boundary, u64::MAX), None);
        assert_eq!(mem.read_u32(boundary), Some(0), "no partial write");
        assert_eq!(mem.frame_version(f), 0, "failed write bumps nothing");
    }
}
