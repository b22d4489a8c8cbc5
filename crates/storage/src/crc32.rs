//! CRC-32 (IEEE 802.3 polynomial), implemented in-repo to keep the
//! dependency surface at the workspace's allowed set. Used to detect torn
//! and corrupted records in the [`crate::FileStore`] log.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB88320;

/// Bytes folded in per step of [`crc32`] (slicing-by-16).
const SLICES: usize = 16;

/// Slicing-by-16 lookup tables, built at compile time: `TABLES[0]` is the
/// classic byte-at-a-time table, and `TABLES[k]` advances a byte through
/// `k` further zero bytes, so sixteen input bytes fold in per step.
const TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut t = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of a byte slice (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` —
/// the standard zlib/`cksum -o 3` variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(SLICES);
    for b in &mut blocks {
        // The running CRC folds into the first four bytes of the block.
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mut next = t[SLICES - 1][(lo & 0xFF) as usize]
            ^ t[SLICES - 2][((lo >> 8) & 0xFF) as usize]
            ^ t[SLICES - 3][((lo >> 16) & 0xFF) as usize]
            ^ t[SLICES - 4][(lo >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            next ^= t[SLICES - 5 - k][byte as usize];
        }
        crc = next;
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7BE43);
    }

    #[test]
    fn matches_the_bitwise_definition_at_every_alignment() {
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
                }
            }
            crc ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
        for start in 0..8 {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 100, 291] {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;

    proptest! {
        #[test]
        fn equal_inputs_equal_crcs(data in prop::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(crc32(&data), crc32(&data.clone()));
        }

        #[test]
        fn appending_changes_crc(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let mut longer = data.clone();
            longer.push(0xAB);
            // Not cryptographically guaranteed, but holds for CRC-32 with a
            // single appended byte.
            prop_assert_ne!(crc32(&data), crc32(&longer));
        }
    }
}
