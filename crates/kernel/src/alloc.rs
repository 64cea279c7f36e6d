//! `kmalloc`: the kernel heap allocator.
//!
//! Allocation headers live *in simulated memory* (16 bytes before each
//! block: magic + size), so heap bit flips corrupt them and the validation
//! on `kfree` — "bad magic", "double free" — produces exactly the kind of
//! consistency-check panic that §3.3 credits with stopping sick systems.
//! The free list itself is host-side state (it models pointer chains we do
//! not need to fault-target: the paper's allocation fault is the *premature
//! free*, delivered via [`crate::hooks::FaultHooks::on_kmalloc`]).

use crate::error::PanicReason;
use rio_mem::PhysMem;

/// Bytes of header before every allocation.
pub const HDR_BYTES: u64 = 16;
/// Magic tag of a live allocation.
pub const KMALLOC_MAGIC: u32 = 0x4B4D_414C;
/// Magic tag of a freed block.
pub const KFREE_MAGIC: u32 = 0x4B46_5245;

/// Heap-region byte offsets reserved ahead of the kmalloc arena. Bytes
/// 64–127 are unused: the syscall activation record lives at the stack
/// region's base ([`crate::machine::act_record`]), not here.
pub mod heap_map {
    /// Lock words (8 bytes each; see [`crate::locks`]).
    pub const LOCKS_OFFSET: u64 = 0;
    /// Integrity-probe canary pattern (see
    /// [`crate::machine::Machine::integrity_probe`]).
    pub const CANARY_OFFSET: u64 = 128;
    /// Integrity-probe scratch area.
    pub const SCRATCH_OFFSET: u64 = 192;
    /// Probe canary/scratch length.
    pub const CANARY_LEN: u64 = 64;
    /// First byte of the kmalloc arena.
    pub const ARENA_OFFSET: u64 = 256;
}

/// Allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// kmalloc calls served.
    pub allocs: u64,
    /// kfree calls served.
    pub frees: u64,
    /// Bytes currently outstanding.
    pub live_bytes: u64,
}

/// First-fit free-list allocator over the kernel heap arena.
#[derive(Debug, Clone)]
pub struct KernelAlloc {
    arena_start: u64,
    arena_end: u64,
    /// `(addr, size)` of free spans, addr = header address.
    free: Vec<(u64, u64)>,
    stats: AllocStats,
}

impl KernelAlloc {
    /// An allocator over `[start, end)` of simulated memory.
    ///
    /// # Panics
    ///
    /// Panics if the arena is smaller than one header.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end > start + HDR_BYTES, "arena too small");
        KernelAlloc {
            arena_start: start,
            arena_end: end,
            free: vec![(start, end - start)],
            stats: AllocStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Whether `addr` is a plausible allocation address in this arena.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.arena_start + HDR_BYTES && addr < self.arena_end
    }

    /// Allocates `size` bytes; returns the block address (after header).
    ///
    /// # Errors
    ///
    /// Panics the kernel (`Consistency`) when the arena is exhausted — the
    /// simulated heap is sized so this only happens under fault-induced
    /// leak storms, and a real kernel's `panic("kmem_malloc: out of space")`
    /// is the honest analogue.
    pub fn kmalloc(&mut self, mem: &mut PhysMem, size: u64) -> Result<u64, PanicReason> {
        let size = size.max(8); // minimum granule
        let need = size + HDR_BYTES;
        let pos = self
            .free
            .iter()
            .position(|&(_, len)| len >= need)
            .ok_or_else(|| PanicReason::Consistency("kmalloc: out of space".to_owned()))?;
        let (span_addr, len) = self.free[pos];
        // Carve from the TOP of the span (the arena grows downward, like
        // many real kernel allocators): long-lived objects end up at high
        // addresses with later transient buffers just below them — which is
        // exactly the adjacency that makes buffer overruns dangerous.
        let addr = span_addr + len - need;
        if len > need {
            // Keep any remainder, however small: coalescing re-merges it.
            self.free[pos] = (span_addr, len - need);
        } else {
            self.free.remove(pos);
        }
        // Write the header into simulated memory.
        mem.write_u64(addr, (KMALLOC_MAGIC as u64) | (size << 32));
        mem.write_u64(addr + 8, 0);
        self.stats.allocs += 1;
        self.stats.live_bytes += size;
        Ok(addr + HDR_BYTES)
    }

    /// Returns a span to the free list, coalescing with adjacent spans so
    /// the arena does not fragment under variable-size churn.
    fn insert_free(&mut self, addr: u64, size: u64) {
        let pos = self.free.partition_point(|&(a, _)| a < addr);
        self.free.insert(pos, (addr, size));
        // Merge with successor.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        // Merge with predecessor.
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }

    /// Frees a block previously returned by [`KernelAlloc::kmalloc`].
    ///
    /// # Errors
    ///
    /// Kernel panic on bad magic (header corrupted or wild pointer) or
    /// double free.
    pub fn kfree(&mut self, mem: &mut PhysMem, addr: u64) -> Result<(), PanicReason> {
        if !self.contains(addr) {
            return Err(PanicReason::Consistency(
                "kfree: pointer outside arena".to_owned(),
            ));
        }
        let hdr_addr = addr - HDR_BYTES;
        let hdr = mem.read_u64(hdr_addr);
        let magic = (hdr & 0xFFFF_FFFF) as u32;
        let size = hdr >> 32;
        if magic == KFREE_MAGIC {
            return Err(PanicReason::Consistency("kfree: double free".to_owned()));
        }
        if magic != KMALLOC_MAGIC || hdr_addr + HDR_BYTES + size > self.arena_end {
            return Err(PanicReason::Consistency(
                "kfree: bad block magic".to_owned(),
            ));
        }
        mem.write_u64(hdr_addr, (KFREE_MAGIC as u64) | (size << 32));
        self.insert_free(hdr_addr, size + HDR_BYTES);
        self.stats.frees += 1;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(size);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_mem::{MemConfig, PhysMem};

    fn setup() -> (PhysMem, KernelAlloc) {
        let mem = PhysMem::new(MemConfig::small());
        let heap = mem.layout().heap;
        let alloc = KernelAlloc::new(heap.start + heap_map::ARENA_OFFSET, heap.end);
        (mem, alloc)
    }

    #[test]
    fn alloc_free_round_trip() {
        let (mut mem, mut a) = setup();
        let p = a.kmalloc(&mut mem, 100).unwrap();
        assert!(a.contains(p));
        assert_eq!(a.stats().live_bytes, 100);
        a.kfree(&mut mem, p).unwrap();
        assert_eq!(a.stats().live_bytes, 0);
        assert_eq!(a.stats().allocs, 1);
        assert_eq!(a.stats().frees, 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut mem, mut a) = setup();
        let p1 = a.kmalloc(&mut mem, 64).unwrap();
        let p2 = a.kmalloc(&mut mem, 64).unwrap();
        assert!(p2 >= p1 + 64 + HDR_BYTES || p1 >= p2 + 64 + HDR_BYTES);
        // Fill both; no cross-talk.
        mem.fill(p1, 64, 0xAA);
        mem.fill(p2, 64, 0xBB);
        assert!(mem.to_vec(p1, 64).iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn freed_memory_is_reused() {
        let (mut mem, mut a) = setup();
        let p1 = a.kmalloc(&mut mem, 64).unwrap();
        a.kfree(&mut mem, p1).unwrap();
        // First-fit immediately finds... the remainder span first, but the
        // freed span is eventually reused. Allocate until exhaustion check
        // would be slow; instead verify the span is on the free list by
        // consuming the arena-sized tail first.
        let mut got_back = false;
        for _ in 0..10 {
            let p = a.kmalloc(&mut mem, 64).unwrap();
            if p == p1 {
                got_back = true;
                break;
            }
        }
        // Reuse may not be immediate under first-fit, but the span must not
        // be lost: total live allocations all succeeded.
        assert!(got_back || a.stats().allocs == 11);
    }

    #[test]
    fn double_free_panics() {
        let (mut mem, mut a) = setup();
        let p = a.kmalloc(&mut mem, 32).unwrap();
        a.kfree(&mut mem, p).unwrap();
        let err = a.kfree(&mut mem, p).unwrap_err();
        assert!(matches!(err, PanicReason::Consistency(s) if s.contains("double free")));
    }

    #[test]
    fn corrupted_header_is_detected() {
        let (mut mem, mut a) = setup();
        let p = a.kmalloc(&mut mem, 32).unwrap();
        mem.flip_bit(p - HDR_BYTES, 3); // flip a magic bit
        let err = a.kfree(&mut mem, p).unwrap_err();
        assert!(matches!(err, PanicReason::Consistency(s) if s.contains("bad block magic")));
    }

    #[test]
    fn wild_pointer_is_detected() {
        let (mut mem, mut a) = setup();
        let err = a.kfree(&mut mem, 0x10).unwrap_err();
        assert!(matches!(err, PanicReason::Consistency(s) if s.contains("outside arena")));
    }

    #[test]
    fn exhaustion_panics() {
        let mem = PhysMem::new(MemConfig::small());
        let heap = mem.layout().heap;
        let mut mem = mem;
        let mut a = KernelAlloc::new(heap.start, heap.start + 1024);
        // Consume the arena.
        let mut n = 0;
        loop {
            match a.kmalloc(&mut mem, 100) {
                Ok(_) => n += 1,
                Err(PanicReason::Consistency(s)) => {
                    assert!(s.contains("out of space"));
                    break;
                }
                Err(other) => panic!("unexpected: {other:?}"),
            }
            assert!(n < 100, "arena never exhausted");
        }
        assert!(n >= 8); // 1024 / 116 ≈ 8 blocks fit
    }
}
