//! Deterministic data generation: the byte streams workloads write.
//!
//! All content is a pure function of `(seed, tag, len)`, so a replay can
//! reconstruct exactly what any write produced without storing it.

/// xorshift64* step.
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Deterministic bytes for one logical object.
pub fn bytes(seed: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag)
        .max(1);
    let mut out = vec![0u8; len];
    let mut words = out.chunks_exact_mut(8);
    for word in &mut words {
        state = xorshift(state);
        word.copy_from_slice(&state.to_le_bytes());
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&xorshift(state).to_le_bytes()[..tail.len()]);
    out
}

/// Deterministic length in `[min, max]` for one logical object.
pub fn length(seed: u64, tag: u64, min: usize, max: usize) -> usize {
    assert!(min <= max);
    if min == max {
        return min;
    }
    let state = xorshift(
        seed.wrapping_mul(0xD134_2543_DE82_EF95)
            .wrapping_add(tag)
            .max(1),
    );
    min + (state as usize) % (max - min + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_are_deterministic() {
        assert_eq!(bytes(1, 2, 100), bytes(1, 2, 100));
        assert_ne!(bytes(1, 2, 100), bytes(1, 3, 100));
        assert_ne!(bytes(1, 2, 100), bytes(2, 2, 100));
    }

    /// The generator as first written, 8 bytes appended at a time: memTest's
    /// model and every committed artifact depend on these exact bytes.
    fn bytes_appended(seed: u64, tag: u64, len: usize) -> Vec<u8> {
        let mut state = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag)
            .max(1);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            state = xorshift(state);
            let chunk = state.to_le_bytes();
            let take = (len - out.len()).min(8);
            out.extend_from_slice(&chunk[..take]);
        }
        out
    }

    #[test]
    fn bytes_equal_the_appending_loop() {
        for (seed, tag) in [(0, 0), (1996, 7), (u64::MAX, 0x57EA_D75E_ED00_0001)] {
            for len in (0..=17).chain([511, 8192]) {
                assert_eq!(
                    bytes(seed, tag, len),
                    bytes_appended(seed, tag, len),
                    "seed {seed} tag {tag} len {len}"
                );
            }
        }
        // One absolute value, so the pair cannot drift together.
        assert_eq!(
            bytes(1996, 7, 11),
            [0xE4, 0x9D, 0x22, 0x1A, 0xB4, 0x5F, 0x77, 0x83, 0xDF, 0x21, 0xB3]
        );
    }

    #[test]
    fn bytes_have_requested_length() {
        for len in [0, 1, 7, 8, 9, 8192] {
            assert_eq!(bytes(5, 5, len).len(), len);
        }
    }

    #[test]
    fn prefix_stability() {
        // Longer requests extend shorter ones (same stream).
        let short = bytes(9, 1, 50);
        let long = bytes(9, 1, 200);
        assert_eq!(&long[..50], &short[..]);
    }

    #[test]
    fn length_is_bounded_and_deterministic() {
        for tag in 0..100 {
            let l = length(3, tag, 10, 20);
            assert!((10..=20).contains(&l));
            assert_eq!(l, length(3, tag, 10, 20));
        }
        assert_eq!(length(1, 1, 5, 5), 5);
    }
}
