//! Physical-memory layout: how the simulated machine's RAM is carved into
//! the regions the kernel uses.
//!
//! The paper's machines have 128 MB of RAM of which the UBC (file data) uses
//! 80 MB and the buffer cache (metadata) a few megabytes. Our default
//! configurations are scaled down so a full fault-injection campaign runs in
//! CI time, but the proportions are preserved and every size is a parameter.

use crate::page::{round_up_to_page, PageNum, PAGE_SIZE};

/// A half-open byte range `[start, end)` of physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First byte address of the region.
    pub start: u64,
    /// One past the last byte address of the region.
    pub end: u64,
}

impl Region {
    /// Length of the region in bytes.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the byte address lies inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Number of whole pages in the region.
    pub fn pages(&self) -> u64 {
        self.len() / PAGE_SIZE as u64
    }

    /// Iterator over the page numbers covering the region.
    pub fn page_numbers(&self) -> impl Iterator<Item = PageNum> {
        let first = self.start / PAGE_SIZE as u64;
        let last = self.end.div_ceil(PAGE_SIZE as u64);
        (first..last).map(PageNum)
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start, self.end)
    }
}

/// Sizing knobs for the simulated machine's memory.
///
/// All sizes are rounded up to whole pages. Use [`MemConfig::small`] for
/// tests and the fault campaign, [`MemConfig::paper`] for paper-scale runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Bytes of kernel text (holds the encoded ISA routines).
    pub text_bytes: u64,
    /// Bytes of kernel heap (kmalloc arena: buffer headers, inode cache...).
    pub heap_bytes: u64,
    /// Bytes of kernel stack.
    pub stack_bytes: u64,
    /// Bytes of buffer cache (metadata blocks: inodes, directories, superblock).
    pub buffer_cache_bytes: u64,
    /// Bytes of UBC (file data pages).
    pub ubc_bytes: u64,
    /// Bytes reserved for the Rio registry.
    pub registry_bytes: u64,
}

impl MemConfig {
    /// Small configuration used by unit tests and the crash campaign:
    /// 64 KB text, 256 KB heap, 64 KB stack, 512 KB buffer cache, 4 MB UBC,
    /// 64 KB registry.
    pub fn small() -> Self {
        MemConfig {
            text_bytes: 64 * 1024,
            heap_bytes: 256 * 1024,
            stack_bytes: 64 * 1024,
            buffer_cache_bytes: 512 * 1024,
            ubc_bytes: 4 * 1024 * 1024,
            registry_bytes: 64 * 1024,
        }
    }

    /// Paper-scale configuration: 80 MB UBC and a few-megabyte buffer cache
    /// on a 128 MB machine (§2 of the paper).
    pub fn paper() -> Self {
        MemConfig {
            text_bytes: 4 * 1024 * 1024,
            heap_bytes: 16 * 1024 * 1024,
            stack_bytes: 1024 * 1024,
            buffer_cache_bytes: 4 * 1024 * 1024,
            ubc_bytes: 80 * 1024 * 1024,
            registry_bytes: 1024 * 1024,
        }
    }

    /// Total bytes of physical memory required by this configuration.
    pub fn total_bytes(&self) -> u64 {
        [
            self.text_bytes,
            self.heap_bytes,
            self.stack_bytes,
            self.buffer_cache_bytes,
            self.ubc_bytes,
            self.registry_bytes,
        ]
        .iter()
        .map(|&b| round_up_to_page(b))
        .sum()
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::small()
    }
}

/// The realized layout: one [`Region`] per kernel memory area, packed
/// contiguously from address 0.
///
/// Region order is fixed (text, heap, stack, buffer cache, UBC, registry) so
/// that physical addresses are stable for a given [`MemConfig`] — crash
/// images taken before a reboot can be interpreted by the rebooted system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLayout {
    /// Kernel text: encoded instructions for the ISA routines.
    pub text: Region,
    /// Kernel heap: the kmalloc arena.
    pub heap: Region,
    /// Kernel stack.
    pub stack: Region,
    /// Buffer cache: metadata blocks.
    pub buffer_cache: Region,
    /// Unified Buffer Cache: file data pages.
    pub ubc: Region,
    /// Rio registry.
    pub registry: Region,
}

/// Which named region an address belongs to. Used by fault injection (bit
/// flips target text/heap/stack) and by corruption reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Kernel text.
    Text,
    /// Kernel heap.
    Heap,
    /// Kernel stack.
    Stack,
    /// Buffer cache (metadata).
    BufferCache,
    /// UBC (file data).
    Ubc,
    /// Rio registry.
    Registry,
}

impl std::fmt::Display for RegionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RegionKind::Text => "text",
            RegionKind::Heap => "heap",
            RegionKind::Stack => "stack",
            RegionKind::BufferCache => "buffer-cache",
            RegionKind::Ubc => "ubc",
            RegionKind::Registry => "registry",
        };
        f.write_str(name)
    }
}

impl MemLayout {
    /// Builds the layout for a configuration, packing regions contiguously.
    pub fn new(config: MemConfig) -> Self {
        let mut cursor = 0u64;
        let mut take = |bytes: u64| {
            let start = cursor;
            cursor += round_up_to_page(bytes);
            Region { start, end: cursor }
        };
        MemLayout {
            text: take(config.text_bytes),
            heap: take(config.heap_bytes),
            stack: take(config.stack_bytes),
            buffer_cache: take(config.buffer_cache_bytes),
            ubc: take(config.ubc_bytes),
            registry: take(config.registry_bytes),
        }
    }

    /// Total bytes covered by the layout.
    pub fn total_bytes(&self) -> u64 {
        self.registry.end
    }

    /// The page number containing a byte address.
    pub fn page_of(&self, addr: u64) -> PageNum {
        PageNum::containing(addr)
    }

    /// The region a byte address belongs to, or `None` for addresses past
    /// the end of memory.
    pub fn region_of(&self, addr: u64) -> Option<RegionKind> {
        if self.text.contains(addr) {
            Some(RegionKind::Text)
        } else if self.heap.contains(addr) {
            Some(RegionKind::Heap)
        } else if self.stack.contains(addr) {
            Some(RegionKind::Stack)
        } else if self.buffer_cache.contains(addr) {
            Some(RegionKind::BufferCache)
        } else if self.ubc.contains(addr) {
            Some(RegionKind::Ubc)
        } else if self.registry.contains(addr) {
            Some(RegionKind::Registry)
        } else {
            None
        }
    }

    /// The byte range of a named region.
    pub fn region(&self, kind: RegionKind) -> Region {
        match kind {
            RegionKind::Text => self.text,
            RegionKind::Heap => self.heap,
            RegionKind::Stack => self.stack,
            RegionKind::BufferCache => self.buffer_cache,
            RegionKind::Ubc => self.ubc,
            RegionKind::Registry => self.registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_contiguous_and_page_aligned() {
        let l = MemLayout::new(MemConfig::small());
        let regions = [l.text, l.heap, l.stack, l.buffer_cache, l.ubc, l.registry];
        let mut prev_end = 0;
        for r in regions {
            assert_eq!(r.start, prev_end);
            assert_eq!(r.start % PAGE_SIZE as u64, 0);
            assert_eq!(r.end % PAGE_SIZE as u64, 0);
            assert!(!r.is_empty());
            prev_end = r.end;
        }
        assert_eq!(l.total_bytes(), MemConfig::small().total_bytes());
    }

    #[test]
    fn region_of_classifies_every_region() {
        let l = MemLayout::new(MemConfig::small());
        assert_eq!(l.region_of(l.text.start), Some(RegionKind::Text));
        assert_eq!(l.region_of(l.heap.start), Some(RegionKind::Heap));
        assert_eq!(l.region_of(l.stack.start), Some(RegionKind::Stack));
        assert_eq!(
            l.region_of(l.buffer_cache.start),
            Some(RegionKind::BufferCache)
        );
        assert_eq!(l.region_of(l.ubc.start), Some(RegionKind::Ubc));
        assert_eq!(l.region_of(l.registry.start), Some(RegionKind::Registry));
        assert_eq!(l.region_of(l.total_bytes()), None);
    }

    #[test]
    fn paper_config_has_80mb_ubc() {
        let c = MemConfig::paper();
        assert_eq!(c.ubc_bytes, 80 * 1024 * 1024);
        let l = MemLayout::new(c);
        assert_eq!(l.ubc.len(), 80 * 1024 * 1024);
    }

    #[test]
    fn page_numbers_cover_region() {
        let l = MemLayout::new(MemConfig::small());
        let pages: Vec<_> = l.registry.page_numbers().collect();
        assert_eq!(pages.len() as u64, l.registry.pages());
        assert_eq!(pages[0].base(), l.registry.start);
    }
}
