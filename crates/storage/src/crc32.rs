//! CRC-32 (IEEE 802.3 polynomial), implemented in-repo to keep the
//! dependency surface at the workspace's allowed set. Every storage byte
//! passes through it: record frames, session seals and unseals, device
//! read checks and the recovery scan.
//!
//! Two arms compute the same function. On x86-64 CPUs with PCLMULQDQ and
//! SSE4.1 (detected at runtime), inputs of at least 64 bytes fold 64 bytes
//! per step with carry-less multiplication and reduce to 32 bits with a
//! Barrett step. Slicing-by-16 tables cover shorter inputs, the tail after
//! the last 16-byte block, and every other CPU; they are also the oracle
//! the folding arm is tested against.

/// Reflected polynomial of CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB88320;

/// Bytes folded in per step of the table arm (slicing-by-16).
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
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` just confirmed PCLMULQDQ and SSE4.1.
        return !unsafe { clmul::update(!0, bytes) };
    }
    !update_tables(!0, bytes)
}

/// The table arm: advance the CRC register `crc` (pre-inverted, as in
/// [`crc32`]) over `bytes`, sixteen bytes per step.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// The carry-less-multiply arm: Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
/// bit-reflected form zlib and Linux use. Each constant is a power of `x`
/// modulo the CRC polynomial P, bit-reflected and shifted one place.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input [`update`] takes: its first step loads four 16-byte
    /// lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(512+32)` and `x^(512-32)` mod P: carry a lane 512 bits on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128-32)` mod P: carry a lane 128 bits on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64` mod P: reduce 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself and the Barrett constant `floor(x^64 / P)`.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether this CPU has the instructions [`update`] uses. The standard
    /// library caches the detection, so this is one atomic load.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the CRC register over `bytes` (at least [`MIN_LEN`] of
    /// them): 64 bytes per step while they last, then 16, then the table
    /// arm for the tail.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn update(crc: u32, mut bytes: &[u8]) -> u32 {
        let mut x3 = take(&mut bytes);
        let mut x2 = take(&mut bytes);
        let mut x1 = take(&mut bytes);
        let mut x0 = take(&mut bytes);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while bytes.len() >= 64 {
            x3 = fold(x3, take(&mut bytes), k1k2);
            x2 = fold(x2, take(&mut bytes), k1k2);
            x1 = fold(x1, take(&mut bytes), k1k2);
            x0 = fold(x0, take(&mut bytes), k1k2);
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while bytes.len() >= 16 {
            x = fold(x, take(&mut bytes), k3k4);
        }

        // 128 bits to 64, then Barrett-reduce 64 to 32; the reflected form
        // leaves the remainder in the second 32-bit word.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_tables(crc, bytes)
    }

    /// Carry the 128-bit lane `a` forward by the distance `keys` encodes
    /// and add the block `b` that lies there.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Load the next 16 bytes and advance past them.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn take(bytes: &mut &[u8]) -> __m128i {
        let (block, rest) = bytes.split_at(16);
        *bytes = rest;
        // SAFETY: `block` is 16 readable bytes, exactly what an unaligned
        // 128-bit load reads.
        unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) }
    }
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

    /// The bit-at-a-time definition every arm is checked against.
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

    /// A full CRC-32, or `None` for an input the arm does not take.
    type Arm = fn(&[u8]) -> Option<u32>;

    /// Each arm this CPU runs, plus the dispatching [`crc32`].
    fn arms() -> Vec<(&'static str, Arm)> {
        let mut arms: Vec<(&'static str, Arm)> = vec![
            ("crc32", |b| Some(crc32(b))),
            ("tables", |b| Some(!update_tables(!0, b))),
        ];
        #[cfg(target_arch = "x86_64")]
        if clmul::available() {
            arms.push(("clmul", |b| {
                // SAFETY: pushed only when `available` confirmed the CPU
                // features.
                (b.len() >= clmul::MIN_LEN).then(|| !unsafe { clmul::update(!0, b) })
            }));
        }
        arms
    }

    #[test]
    fn matches_the_bitwise_definition_at_every_alignment() {
        let data: Vec<u8> =
            (0..528u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8).collect();
        for (name, arm) in arms() {
            for start in 0..16 {
                for len in 0..=512 {
                    let s = &data[start..start + len];
                    if let Some(got) = arm(s) {
                        assert_eq!(got, bitwise(s), "{name}: start {start} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn arms_agree_on_a_mebibyte_of_random_bytes() {
        let mut rng = kishu_testkit::rng::Rng::seed_from_u64(0xC4C32);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        let want = bitwise(&data);
        for (name, arm) in arms() {
            assert_eq!(arm(&data), Some(want), "{name}");
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
