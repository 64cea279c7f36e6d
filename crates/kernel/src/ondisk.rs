//! On-disk format: superblock, inode table, allocation bitmap, journal
//! area, and directory entries.
//!
//! The format is a compact UFS-like layout:
//!
//! ```text
//! block 0          superblock
//! 1 .. 1+I         inode table   (32 inodes of 256 bytes per 8 KB block)
//! .. +B            block bitmap  (1 bit per block)
//! .. +J            journal area  (used only by the AdvFS policy)
//! .. end           data blocks
//! ```
//!
//! Every structure carries a magic tag; the kernel validates tags on access
//! and panics on mismatch — these are the "multitude of consistency checks"
//! that §3.3 credits for stopping a sick system quickly.

use rio_disk::BLOCK_SIZE;

/// Superblock magic ("RioF").
pub const SUPER_MAGIC: u32 = 0x5269_6F46;
/// In-use inode magic ("INOD" -> arbitrary tag).
pub const INODE_MAGIC: u32 = 0x494E_4F44;
/// Bytes per on-disk inode record.
pub const INODE_BYTES: usize = 256;
/// Inode records per block.
pub const INODES_PER_BLOCK: u64 = (BLOCK_SIZE / INODE_BYTES) as u64;
/// Direct block pointers per inode.
pub const NDIRECT: usize = 16;
/// Block pointers in an indirect block.
pub const NINDIRECT: usize = BLOCK_SIZE / 8;
/// Maximum file size in blocks.
pub const MAX_FILE_BLOCKS: u64 = NDIRECT as u64 + NINDIRECT as u64;
/// Bytes per directory entry.
pub const DIRENT_BYTES: usize = 64;
/// Directory entries per block.
pub const DIRENTS_PER_BLOCK: usize = BLOCK_SIZE / DIRENT_BYTES;
/// Maximum file-name length (bytes).
pub const MAX_NAME: usize = DIRENT_BYTES - 5;
/// The root directory's inode number (0 is reserved/invalid).
pub const ROOT_INO: u64 = 1;

/// File type stored in an inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Unallocated inode.
    Free,
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

impl FileType {
    fn to_u32(self) -> u32 {
        match self {
            FileType::Free => 0,
            FileType::File => 1,
            FileType::Dir => 2,
        }
    }

    fn from_u32(v: u32) -> Option<FileType> {
        match v {
            0 => Some(FileType::Free),
            1 => Some(FileType::File),
            2 => Some(FileType::Dir),
            _ => None,
        }
    }
}

/// Static geometry derived from a disk size: where each area begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Total blocks on the device.
    pub num_blocks: u64,
    /// Total inodes.
    pub num_inodes: u64,
    /// Blocks reserved for the journal area.
    pub journal_blocks: u64,
    /// First inode-table block (always 1).
    pub inode_start: u64,
    /// Inode-table length in blocks.
    pub inode_len: u64,
    /// First bitmap block.
    pub bitmap_start: u64,
    /// Bitmap length in blocks.
    pub bitmap_len: u64,
    /// First journal block.
    pub journal_start: u64,
    /// First data block.
    pub data_start: u64,
}

impl DiskGeometry {
    /// Computes the geometry for a device.
    ///
    /// # Panics
    ///
    /// Panics if the device is too small to hold the metadata areas plus at
    /// least one data block.
    pub fn new(num_blocks: u64, num_inodes: u64, journal_blocks: u64) -> Self {
        let inode_start = 1;
        let inode_len = num_inodes.div_ceil(INODES_PER_BLOCK);
        let bitmap_start = inode_start + inode_len;
        let bitmap_len = num_blocks.div_ceil(8 * BLOCK_SIZE as u64);
        let journal_start = bitmap_start + bitmap_len;
        let data_start = journal_start + journal_blocks;
        assert!(
            data_start < num_blocks,
            "disk too small: metadata needs {data_start} blocks, have {num_blocks}"
        );
        DiskGeometry {
            num_blocks,
            num_inodes,
            journal_blocks,
            inode_start,
            inode_len,
            bitmap_start,
            bitmap_len,
            journal_start,
            data_start,
        }
    }

    /// Geometry for the test/campaign disk: 16 MB, 512 inodes, 64 journal
    /// blocks.
    pub fn small() -> Self {
        DiskGeometry::new(2048, 512, 64)
    }

    /// The block holding inode `ino` and the byte offset of its record.
    pub fn inode_location(&self, ino: u64) -> (u64, usize) {
        let block = self.inode_start + ino / INODES_PER_BLOCK;
        let offset = (ino % INODES_PER_BLOCK) as usize * INODE_BYTES;
        (block, offset)
    }

    /// The bitmap block and bit position tracking data block `b`.
    pub fn bitmap_location(&self, b: u64) -> (u64, usize) {
        let per_block = 8 * BLOCK_SIZE as u64;
        (self.bitmap_start + b / per_block, (b % per_block) as usize)
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> u64 {
        self.num_blocks - self.data_start
    }
}

/// The superblock (block 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Device geometry.
    pub geometry: DiskGeometry,
    /// Incremented at every mount (distinguishes generations).
    pub mount_count: u64,
}

impl Superblock {
    /// Encodes to a full block.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        b[0..4].copy_from_slice(&SUPER_MAGIC.to_le_bytes());
        b[8..16].copy_from_slice(&self.geometry.num_blocks.to_le_bytes());
        b[16..24].copy_from_slice(&self.geometry.num_inodes.to_le_bytes());
        b[24..32].copy_from_slice(&self.geometry.journal_blocks.to_le_bytes());
        b[32..40].copy_from_slice(&self.mount_count.to_le_bytes());
        b
    }

    /// Decodes from a block; `None` if the magic is wrong (mount fails).
    pub fn decode(b: &[u8]) -> Option<Superblock> {
        if u32::from_le_bytes(b[0..4].try_into().ok()?) != SUPER_MAGIC {
            return None;
        }
        let num_blocks = u64::from_le_bytes(b[8..16].try_into().ok()?);
        let num_inodes = u64::from_le_bytes(b[16..24].try_into().ok()?);
        let journal_blocks = u64::from_le_bytes(b[24..32].try_into().ok()?);
        let mount_count = u64::from_le_bytes(b[32..40].try_into().ok()?);
        // Reject impossible geometry rather than panicking in the
        // constructor: a corrupt superblock must fail the mount, not the
        // simulator.
        let inode_len = num_inodes.div_ceil(INODES_PER_BLOCK);
        let bitmap_len = num_blocks.div_ceil(8 * BLOCK_SIZE as u64);
        if 1 + inode_len + bitmap_len + journal_blocks >= num_blocks {
            return None;
        }
        Some(Superblock {
            geometry: DiskGeometry::new(num_blocks, num_inodes, journal_blocks),
            mount_count,
        })
    }
}

/// A decoded inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File type.
    pub itype: FileType,
    /// Link count.
    pub nlink: u32,
    /// File size in bytes.
    pub size: u64,
    /// Last-modification time (simulated µs).
    pub mtime: u64,
    /// Direct block pointers (0 = hole/unallocated).
    pub direct: [u64; NDIRECT],
    /// Indirect block pointer (0 = none).
    pub indirect: u64,
}

impl Inode {
    /// A freshly allocated empty inode.
    pub fn empty(itype: FileType) -> Inode {
        Inode {
            itype,
            nlink: 1,
            size: 0,
            mtime: 0,
            direct: [0; NDIRECT],
            indirect: 0,
        }
    }

    /// Encodes into a 256-byte record.
    pub fn encode(&self) -> [u8; INODE_BYTES] {
        let mut b = [0u8; INODE_BYTES];
        let magic = if self.itype == FileType::Free {
            0
        } else {
            INODE_MAGIC
        };
        b[0..4].copy_from_slice(&magic.to_le_bytes());
        b[4..8].copy_from_slice(&self.itype.to_u32().to_le_bytes());
        b[8..12].copy_from_slice(&self.nlink.to_le_bytes());
        b[16..24].copy_from_slice(&self.size.to_le_bytes());
        b[24..32].copy_from_slice(&self.mtime.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[32 + i * 8..40 + i * 8].copy_from_slice(&d.to_le_bytes());
        }
        b[32 + NDIRECT * 8..40 + NDIRECT * 8].copy_from_slice(&self.indirect.to_le_bytes());
        b
    }

    /// Decodes a 256-byte record.
    ///
    /// Returns `Ok(None)` for a free (zero-magic) record and `Err(())` for
    /// a corrupt one — the kernel panics on the latter ("bad inode magic").
    #[allow(clippy::result_unit_err)] // the only failure is "corrupt": the
                                      // caller's response is always a kernel panic, so no error payload helps
    pub fn decode(b: &[u8]) -> Result<Option<Inode>, ()> {
        assert_eq!(b.len(), INODE_BYTES);
        let magic = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes"));
        if magic == 0 {
            return Ok(None);
        }
        if magic != INODE_MAGIC {
            return Err(());
        }
        let itype = FileType::from_u32(u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")))
            .ok_or(())?;
        if itype == FileType::Free {
            return Err(()); // live magic on a free record is corruption
        }
        let mut direct = [0u64; NDIRECT];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u64::from_le_bytes(b[32 + i * 8..40 + i * 8].try_into().expect("8 bytes"));
        }
        Ok(Some(Inode {
            itype,
            nlink: u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")),
            size: u64::from_le_bytes(b[16..24].try_into().expect("8 bytes")),
            mtime: u64::from_le_bytes(b[24..32].try_into().expect("8 bytes")),
            direct,
            indirect: u64::from_le_bytes(
                b[32 + NDIRECT * 8..40 + NDIRECT * 8]
                    .try_into()
                    .expect("8 bytes"),
            ),
        }))
    }
}

/// A directory entry: `ino:u32, name_len:u8, name bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number (never 0 for a live entry).
    pub ino: u64,
    /// Entry name.
    pub name: String,
}

impl DirEntry {
    /// Encodes into a 64-byte slot.
    ///
    /// # Panics
    ///
    /// Panics if the name exceeds [`MAX_NAME`] bytes (callers validate and
    /// return [`crate::KernelError::NameTooLong`] first).
    pub fn encode(&self) -> [u8; DIRENT_BYTES] {
        let name = self.name.as_bytes();
        assert!(name.len() <= MAX_NAME, "dirent name too long");
        let mut b = [0u8; DIRENT_BYTES];
        b[0..4].copy_from_slice(&(self.ino as u32).to_le_bytes());
        b[4] = name.len() as u8;
        b[5..5 + name.len()].copy_from_slice(name);
        b
    }

    /// Decodes a 64-byte slot; `None` if the slot is free or garbled.
    pub fn decode(b: &[u8]) -> Option<DirEntry> {
        assert_eq!(b.len(), DIRENT_BYTES);
        let ino = u32::from_le_bytes(b[0..4].try_into().ok()?) as u64;
        if ino == 0 {
            return None;
        }
        let len = b[4] as usize;
        if len == 0 || len > MAX_NAME {
            return None;
        }
        let name = std::str::from_utf8(&b[5..5 + len]).ok()?;
        Some(DirEntry {
            ino,
            name: name.to_owned(),
        })
    }

    /// The inode a 64-byte slot names if its name is `name`: what
    /// `decode(b).filter(|e| e.name == name).map(|e| e.ino)` returns,
    /// read where the bytes lie. Equal to a `&str`, the name bytes are
    /// valid UTF-8; `decode`'s other rules are checked as written.
    pub fn ino_if_named(b: &[u8], name: &str) -> Option<u64> {
        assert_eq!(b.len(), DIRENT_BYTES);
        let ino = u32::from_le_bytes(b[0..4].try_into().ok()?) as u64;
        let len = b[4] as usize;
        let valid = ino != 0 && (1..=MAX_NAME).contains(&len);
        (valid && &b[5..5 + len] == name.as_bytes()).then_some(ino)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_det::proptest_lite::{check, Config, Gen};
    use rio_det::pt_assert_eq;

    #[test]
    fn geometry_areas_are_disjoint_and_ordered() {
        let g = DiskGeometry::small();
        assert_eq!(g.inode_start, 1);
        assert!(g.inode_start < g.bitmap_start);
        assert!(g.bitmap_start < g.journal_start);
        assert!(g.journal_start < g.data_start);
        assert!(g.data_start < g.num_blocks);
        assert_eq!(g.inode_len, 512 / INODES_PER_BLOCK);
        assert!(g.data_blocks() > 1900);
    }

    #[test]
    fn inode_location_spans_table() {
        let g = DiskGeometry::small();
        let (b0, o0) = g.inode_location(0);
        assert_eq!((b0, o0), (1, 0));
        let (b1, o1) = g.inode_location(31);
        assert_eq!((b1, o1), (1, 31 * INODE_BYTES));
        let (b2, o2) = g.inode_location(32);
        assert_eq!((b2, o2), (2, 0));
    }

    #[test]
    fn bitmap_location_maps_bits() {
        let g = DiskGeometry::small();
        let (blk, bit) = g.bitmap_location(0);
        assert_eq!((blk, bit), (g.bitmap_start, 0));
        let (blk, bit) = g.bitmap_location(100);
        assert_eq!((blk, bit), (g.bitmap_start, 100));
    }

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            geometry: DiskGeometry::small(),
            mount_count: 7,
        };
        let d = Superblock::decode(&sb.encode()).unwrap();
        assert_eq!(d, sb);
    }

    #[test]
    fn corrupt_superblock_fails_decode() {
        let sb = Superblock {
            geometry: DiskGeometry::small(),
            mount_count: 1,
        };
        let mut b = sb.encode();
        b[0] ^= 1;
        assert_eq!(Superblock::decode(&b), None);
        // Impossible geometry also rejected.
        let mut b2 = sb.encode();
        b2[8..16].copy_from_slice(&2u64.to_le_bytes()); // 2-block disk
        assert_eq!(Superblock::decode(&b2), None);
    }

    #[test]
    fn inode_round_trips() {
        let mut ino = Inode::empty(FileType::File);
        ino.size = 12345;
        ino.direct[0] = 200;
        ino.direct[15] = 215;
        ino.indirect = 300;
        let d = Inode::decode(&ino.encode()).unwrap().unwrap();
        assert_eq!(d, ino);
    }

    #[test]
    fn free_inode_decodes_to_none() {
        let rec = [0u8; INODE_BYTES];
        assert_eq!(Inode::decode(&rec), Ok(None));
        // Encoding a Free inode produces a zero-magic record.
        let enc = Inode::empty(FileType::Free).encode();
        assert_eq!(Inode::decode(&enc), Ok(None));
    }

    #[test]
    fn corrupt_inode_magic_is_error() {
        let mut rec = Inode::empty(FileType::File).encode();
        rec[2] ^= 0x40;
        assert_eq!(Inode::decode(&rec), Err(()));
        // Corrupt type field is also an error.
        let mut rec2 = Inode::empty(FileType::File).encode();
        rec2[4] = 9;
        assert_eq!(Inode::decode(&rec2), Err(()));
    }

    #[test]
    fn dirent_round_trips() {
        let e = DirEntry {
            ino: 42,
            name: "hello.txt".to_owned(),
        };
        assert_eq!(DirEntry::decode(&e.encode()), Some(e));
    }

    #[test]
    fn free_and_garbled_dirents_decode_to_none() {
        assert_eq!(DirEntry::decode(&[0u8; DIRENT_BYTES]), None);
        let mut b = DirEntry {
            ino: 1,
            name: "x".to_owned(),
        }
        .encode();
        b[4] = 200; // impossible length
        assert_eq!(DirEntry::decode(&b), None);
    }

    /// A slot from `g`: a live entry, or one garbled the ways a scribbled
    /// directory page can be — name bytes that are not UTF-8, a length of
    /// 0 or past [`MAX_NAME`], inode 0, random bytes.
    fn arbitrary_slot(g: &mut Gen, names: &[&str]) -> [u8; DIRENT_BYTES] {
        let name = names[g.in_range(0..names.len())];
        let mut b = DirEntry {
            ino: g.in_range(1..1u64 << 32),
            name: name.to_owned(),
        }
        .encode();
        match g.in_range(0..6u32) {
            0 => {}
            1 if !name.is_empty() => b[5 + g.in_range(0..name.len())] = 0x80 | g.u8(),
            1 => {}
            2 => b[4] = [0, MAX_NAME as u8 + 1, u8::MAX][g.in_range(0..3)],
            3 => b[0..4].fill(0),
            4 => b[4] = g.in_range(1..=MAX_NAME as u8),
            _ => b.iter_mut().for_each(|x| *x = g.u8()),
        }
        b
    }

    #[test]
    fn ino_if_named_is_decode_filtered_on_the_name() {
        // Names that differ only in length, a multi-byte one whose
        // truncation is not UTF-8, and the empty name no live slot holds.
        let long = "n".repeat(MAX_NAME);
        let names = ["f1", "f10", "f100", "n", long.as_str(), "dé", "déa", ""];
        check("ino_if_named", Config::with_cases(4096), |g| {
            let slot = arbitrary_slot(g, &names);
            let name = names[g.in_range(0..names.len())];
            let decoded = DirEntry::decode(&slot)
                .filter(|e| e.name == name)
                .map(|e| e.ino);
            pt_assert_eq!(DirEntry::ino_if_named(&slot, name), decoded);
            Ok(())
        });
        let e = DirEntry {
            ino: 7,
            name: "f10".to_owned(),
        }
        .encode();
        assert_eq!(DirEntry::ino_if_named(&e, "f10"), Some(7));
        assert_eq!(DirEntry::ino_if_named(&e, "f1"), None);
        assert_eq!(DirEntry::ino_if_named(&e, "f100"), None);
        assert_eq!(DirEntry::ino_if_named(&[0u8; DIRENT_BYTES], ""), None);
    }

    #[test]
    #[should_panic(expected = "name too long")]
    fn oversized_name_panics_encode() {
        DirEntry {
            ino: 1,
            name: "x".repeat(MAX_NAME + 1),
        }
        .encode();
    }

    #[test]
    fn max_file_is_direct_plus_indirect() {
        assert_eq!(MAX_FILE_BLOCKS, 16 + 1024);
        assert_eq!(DIRENTS_PER_BLOCK, 128);
    }
}
