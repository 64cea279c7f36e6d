//! CRC32 (IEEE 802.3 polynomial) used for file-cache block checksums.
//!
//! §3.2 of the paper maintains "a checksum of each memory block in the file
//! cache": every legitimate writer updates the checksum, so an unintentional
//! store leaves the block inconsistent and is detected after the crash. We
//! implement CRC32 in-repo (reflected 0xEDB88320) rather than pulling a
//! dependency; it is also used to protect registry entries.
//!
//! Three properties make the checksum cheap enough for the write fast path:
//!
//! * **Slice-by-8** ([`crc32_update`]): eight 256-entry tables let the inner
//!   loop fold 8 input bytes per iteration instead of 1, roughly 5–8× faster
//!   on page-sized buffers than the classic byte-at-a-time loop (kept as
//!   [`crc32_bytewise`], the reference the property tests compare against).
//! * **Four lanes** for the two shapes that are hot — a whole page (every
//!   shadow commit re-checksums one) and a 512-byte sector (the kernel's
//!   sector cache): one slice-by-8 chain is bound by the latency of its own
//!   lookups, each step waiting for the last, so the input is cut into four
//!   equal lanes whose chains advance in one loop and overlap, and the four
//!   registers are spliced with a zero-advance operator tabulated per byte
//!   (four lookups a splice). ~3× faster on a page; the same `u32`.
//! * **Linearity over GF(2)** ([`crc32_combine`], [`CrcShift`]): the CRC of a
//!   concatenation can be spliced from the CRCs of the halves with a 32×32
//!   bit-matrix multiply, zlib-style. The kernel's sector checksum cache uses
//!   this to derive a page's registry CRC from per-sector CRCs — identical
//!   values, O(dirty sectors) work per write instead of O(valid bytes).

use crate::page::{PAGE_SIZE, SECTOR_BYTES};
use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// Lazily built slice-by-8 tables. `TABLES[0]` is the classic CRC table;
/// `TABLES[k][b]` advances the effect of byte `b` by `k` further zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256u32 {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            t[0][i as usize] = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Computes the CRC32 of a byte slice.
///
/// # Example
///
/// ```
/// // Standard test vector: CRC32("123456789") = 0xCBF43926.
/// assert_eq!(rio_mem::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks through repeated calls, starting from
/// `0xFFFF_FFFF` and XOR-finalizing with `0xFFFF_FFFF`.
///
/// Folds 8 bytes per iteration (slice-by-8), in four interleaved lanes
/// when `data` is exactly a page or a sector ([`PAGE_SIZE`],
/// [`SECTOR_BYTES`]); bit-identical to
/// [`crc32_bytewise`] on every input.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    match data.len() {
        PAGE_SIZE => update_lanes(state, data, &splices().page),
        SECTOR_BYTES => update_lanes(state, data, &splices().sector),
        _ => update_serial(state, data),
    }
}

/// One slice-by-8 step: folds the 8 bytes of `chunk` into register `c`.
#[inline(always)]
fn fold8(t: &[[u32; 256]; 8], c: u32, chunk: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// One chain over the whole input: any length.
fn update_serial(state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c = fold8(t, c, chunk);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Four chains over the four quarters of `data` (whose length is 32·k),
/// spliced by `splice`, the zero-advance operator for a quarter's length.
///
/// The register update is linear over GF(2) in (register, data), so the
/// register after `A ∥ B` from `s` is the register after `A` from `s`,
/// advanced across `|B|` zero bytes, XOR the register after `B` from 0.
fn update_lanes(state: u32, data: &[u8], splice: &Splice) -> u32 {
    let t = tables();
    let (a, rest) = data.split_at(data.len() / 4);
    let (b, rest) = rest.split_at(a.len());
    let (c, d) = rest.split_at(a.len());
    let (mut ra, mut rb, mut rc, mut rd) = (state, 0u32, 0u32, 0u32);
    let lanes = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
        .zip(d.chunks_exact(8));
    for (((a, b), c), d) in lanes {
        ra = fold8(t, ra, a);
        rb = fold8(t, rb, b);
        rc = fold8(t, rc, c);
        rd = fold8(t, rd, d);
    }
    let r = splice.apply(ra) ^ rb;
    let r = splice.apply(r) ^ rc;
    splice.apply(r) ^ rd
}

/// A [`CrcShift`] tabulated per byte of the register, so applying it is
/// four lookups instead of a 32-step matrix product.
struct Splice([[u32; 256]; 4]);

impl Splice {
    fn for_len(len: usize) -> Splice {
        let shift = CrcShift::for_len(len as u64);
        let mut t = [[0u32; 256]; 4];
        for (k, table) in t.iter_mut().enumerate() {
            for (b, entry) in table.iter_mut().enumerate() {
                *entry = shift.apply((b as u32) << (8 * k));
            }
        }
        Splice(t)
    }

    #[inline]
    fn apply(&self, r: u32) -> u32 {
        self.0[0][(r & 0xFF) as usize]
            ^ self.0[1][((r >> 8) & 0xFF) as usize]
            ^ self.0[2][((r >> 16) & 0xFF) as usize]
            ^ self.0[3][(r >> 24) as usize]
    }
}

/// The lane splices of the two four-lane shapes, and the splice across one
/// whole sector ([`crc32_append_sector`]).
struct Splices {
    page: Splice,
    sector: Splice,
    whole_sector: Splice,
}

fn splices() -> &'static Splices {
    static SPLICES: OnceLock<Splices> = OnceLock::new();
    SPLICES.get_or_init(|| Splices {
        page: Splice::for_len(PAGE_SIZE / 4),
        sector: Splice::for_len(SECTOR_BYTES / 4),
        whole_sector: Splice::for_len(SECTOR_BYTES),
    })
}

/// `crc32(A ∥ S)` from `crc_a = crc32(A)` and `crc_sector = crc32(S)` for a
/// sector `S` of [`SECTOR_BYTES`] bytes: [`crc32_combine`] at the one length
/// the kernel's sector checksum cache splices at, with the shift tabulated
/// per byte of the CRC — four lookups where [`CrcShift::apply`] takes up to
/// 32 steps.
#[inline]
pub fn crc32_append_sector(crc_a: u32, crc_sector: u32) -> u32 {
    splices().whole_sector.apply(crc_a) ^ crc_sector
}

/// The classic byte-at-a-time CRC32 — the reference implementation the
/// property suites check the slice-by-8 path against.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Multiplies the GF(2) matrix `mat` (32 column vectors) by bit-vector `vec`.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// `square = mat * mat` over GF(2).
fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// The operator advancing a CRC register by one zero *bit*.
fn odd_matrix() -> [u32; 32] {
    let mut odd = [0u32; 32];
    odd[0] = POLY;
    let mut row = 1u32;
    for entry in odd.iter_mut().skip(1) {
        *entry = row;
        row <<= 1;
    }
    odd
}

/// A precomputed "append `len` bytes" operator: [`CrcShift::apply`] maps
/// `crc(A)` to the CRC contribution of `A` within `A ∥ B` where `B` is `len`
/// bytes, so `crc(A ∥ B) = shift.apply(crc(A)) ^ crc(B)`.
///
/// Building the operator costs ~`log2(len)` 32×32 matrix squarings; applying
/// it is 32 AND/XOR steps. Callers that always splice at a fixed granularity
/// (the kernel's 512-byte sector cache) build it once and reuse it.
#[derive(Debug, Clone, Copy)]
pub struct CrcShift {
    mat: [u32; 32],
}

impl CrcShift {
    /// The operator for appending `len` bytes.
    pub fn for_len(len: u64) -> CrcShift {
        // Start from the "8 zero bits" operator and square into the binary
        // expansion of len (zlib's crc32_combine, cached as one matrix).
        let mut even = [0u32; 32];
        let mut odd = odd_matrix();
        gf2_matrix_square(&mut even, &odd); // 2 bits
        gf2_matrix_square(&mut odd, &even); // 4 bits
        gf2_matrix_square(&mut even, &odd); // 8 bits = 1 byte
                                            // `even` now advances by one zero byte. Exponentiate to `len`.
        let mut result = identity_matrix();
        let mut base = even;
        let mut n = len;
        while n != 0 {
            if n & 1 != 0 {
                let snapshot = result;
                for (r, row) in result.iter_mut().enumerate() {
                    *row = gf2_matrix_times(&base, snapshot[r]);
                }
            }
            n >>= 1;
            if n != 0 {
                let snapshot = base;
                gf2_matrix_square(&mut base, &snapshot);
            }
        }
        CrcShift { mat: result }
    }

    /// Advances a finalized CRC across `len` appended bytes (see type docs).
    pub fn apply(&self, crc: u32) -> u32 {
        gf2_matrix_times(&self.mat, crc)
    }
}

fn identity_matrix() -> [u32; 32] {
    let mut m = [0u32; 32];
    let mut bit = 1u32;
    for entry in m.iter_mut() {
        *entry = bit;
        bit <<= 1;
    }
    m
}

/// Splices two checksums: given `crc_a = crc32(A)` and `crc_b = crc32(B)`,
/// returns `crc32(A ∥ B)` where `B` is `len_b` bytes — without touching the
/// data. GF(2) matrix exponentiation, zlib-style.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    if len_b == 0 {
        return crc_a;
    }
    CrcShift::for_len(len_b).apply(crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"hello, rio file cache";
        let whole = crc32(data);
        let mut st = 0xFFFF_FFFF;
        for chunk in data.chunks(5) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, whole);
    }

    #[test]
    fn single_bit_changes_checksum() {
        let mut data = vec![0u8; 8192];
        let before = crc32(&data);
        data[4000] ^= 0x10;
        assert_ne!(crc32(&data), before);
    }

    #[test]
    fn slice_by_8_matches_bytewise() {
        // All lengths through a few words, so every remainder path runs.
        let data: Vec<u8> = (0..100u32)
            .map(|i| (i.wrapping_mul(97) >> 2) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "len {len}"
            );
        }
        let page: Vec<u8> = (0..8192u32).map(|i| (i ^ (i >> 5)) as u8).collect();
        assert_eq!(crc32(&page), crc32_bytewise(&page));
    }

    /// Every path — one-shot, streamed at random cuts, and the four-lane
    /// shapes entered from a non-initial state — against the bytewise
    /// reference, at every length around the serial/laned boundaries.
    #[test]
    fn every_path_matches_bytewise_at_every_length() {
        use rio_det::DetRng;
        let mut rng = DetRng::seed_from_u64(0xC4C32);
        let streamed = |pieces: &[&[u8]]| {
            pieces.iter().fold(0xFFFF_FFFF, |st, p| crc32_update(st, p)) ^ 0xFFFF_FFFF
        };
        for len in (0..=1100).chain(PAGE_SIZE - 9..=PAGE_SIZE + 9) {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let want = crc32_bytewise(&data);
            assert_eq!(crc32(&data), want, "len {len}");
            let mut cuts = [0, 0, 0].map(|_| rng.gen_range(0..=len));
            cuts.sort_unstable();
            let [a, b, c] = cuts;
            assert_eq!(
                streamed(&[&data[..a], &data[a..b], &data[b..c], &data[c..]]),
                want,
                "len {len} cut at {cuts:?}"
            );
            // A laned piece in the middle of a stream.
            for laned in [SECTOR_BYTES, PAGE_SIZE] {
                if len > laned {
                    let at = rng.gen_range(1..=len - laned);
                    assert_eq!(
                        streamed(&[&data[..at], &data[at..at + laned], &data[at + laned..]]),
                        want,
                        "len {len}: {laned} bytes at {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn combine_matches_concatenation() {
        let a = b"the rio file cache survives";
        let b = b" operating system crashes";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(
            crc32_combine(crc32(a), crc32(b), b.len() as u64),
            crc32(&joined)
        );
    }

    #[test]
    fn combine_edge_lengths() {
        let a = b"prefix";
        assert_eq!(crc32_combine(crc32(a), crc32(b""), 0), crc32(a));
        let mut joined = a.to_vec();
        joined.push(b'!');
        assert_eq!(crc32_combine(crc32(a), crc32(b"!"), 1), crc32(&joined));
        // Empty prefix: splicing onto crc("") must yield crc(B).
        let b = vec![0xEEu8; 513];
        assert_eq!(crc32_combine(crc32(b""), crc32(&b), 513), crc32(&b));
    }

    #[test]
    fn shift_operator_matches_combine_at_fixed_len() {
        let shift = CrcShift::for_len(512);
        let a = vec![0x11u8; 300];
        let b = vec![0x22u8; 512];
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        assert_eq!(shift.apply(crc32(&a)) ^ crc32(&b), crc32(&joined));
        assert_eq!(crc32_combine(crc32(&a), crc32(&b), 512), crc32(&joined));
    }

    #[test]
    fn tabulated_sector_append_equals_the_matrix_shift() {
        use rio_det::DetRng;
        let shift = CrcShift::for_len(SECTOR_BYTES as u64);
        let mut rng = DetRng::seed_from_u64(0x5EC7);
        let mut probes = vec![0u32, 1, 0x8000_0000, u32::MAX];
        probes.extend((0..1000).map(|_| rng.next_u32()));
        for a in probes {
            let b = rng.next_u32();
            assert_eq!(
                crc32_append_sector(a, b),
                shift.apply(a) ^ b,
                "{a:#x} {b:#x}"
            );
        }
        // And on data: a prefix of any length, then one sector.
        let data: Vec<u8> = (0..2000u32)
            .map(|i| (i.wrapping_mul(193) >> 3) as u8)
            .collect();
        for cut in [0, 1, 7, 512, 1000, 2000 - SECTOR_BYTES] {
            let (a, s) = (&data[..cut], &data[cut..cut + SECTOR_BYTES]);
            assert_eq!(
                crc32_append_sector(crc32(a), crc32(s)),
                crc32_bytewise(&data[..cut + SECTOR_BYTES]),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn sector_fold_reconstructs_page_crc() {
        // Fold 16 sector CRCs with one fixed shift operator — the kernel's
        // sector-cache derivation — and compare with the direct page CRC.
        let page: Vec<u8> = (0..8192u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let shift = CrcShift::for_len(512);
        let mut folded = 0u32; // crc32 of the empty prefix
        for sector in page.chunks(512) {
            folded = shift.apply(folded) ^ crc32(sector);
        }
        assert_eq!(folded, crc32(&page));
    }

    #[test]
    fn appending_tail_to_finalized_crc() {
        // crc(A ∥ B) = update(crc(A) ^ !0, B) ^ !0 — the cheap path for a
        // partial tail sector, no matrix needed.
        let a = vec![0x77u8; 1024];
        let b = vec![0x99u8; 300];
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        assert_eq!(
            crc32_update(crc32(&a) ^ 0xFFFF_FFFF, &b) ^ 0xFFFF_FFFF,
            crc32(&joined)
        );
    }
}
