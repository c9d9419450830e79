//! CRC-32 (IEEE 802.3 polynomial, reflected), implemented from scratch so
//! the crate stays free of external dependencies. Recovery checksums every
//! WAL frame, snapshot, and persisted index file before trusting it, so
//! startup latency is bounded by CRC throughput.
//!
//! Two kernels, one value:
//!
//! * **Slice-by-8** — eight 256-entry tables advance the register 8 bytes
//!   per step (~4× the classic byte-at-a-time table walk). Inputs shorter
//!   than four lane blocks (every WAL frame, the meta header) take only
//!   this loop.
//! * **Four lanes** — longer inputs (snapshots, index files, whole
//!   segments) are cut into groups of four consecutive [`LANE_BLOCK`]-byte
//!   blocks, and one loop runs four independent slice-by-8 registers side
//!   by side, one per block. A single register is a chain of dependent
//!   table loads; four chains keep the load ports busy. CRC is linear, so
//!   the four registers join exactly: feeding a block of `n` zero bytes
//!   multiplies a register by x^(8n) mod P, and the join is three
//!   carry-less multiplications by the compile-time constant
//!   [`X_POW_BLOCK`] (Horner: `((a·X ⊕ b)·X ⊕ c)·X ⊕ d`). The tail after
//!   the last full group takes the slice-by-8 loop.
//!
//! Both are safe Rust (no carry-less multiply intrinsics) and produce the
//! same value as zlib's `crc32` for every input.

/// Reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// Bytes each of the four lanes covers per group of four consecutive
/// blocks.
const LANE_BLOCK: usize = 8 << 10;

/// Eight 256-entry lookup tables, built at compile time. `TABLES[0]` is
/// the classic byte-at-a-time table; `TABLES[k]` advances a byte `k`
/// positions further through the shift register.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// `a · b mod P` over GF(2), both in the reflected representation (bit 31
/// is the coefficient of x^0).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// x^(8·LANE_BLOCK) mod P: what feeding one block of zero bytes multiplies
/// a register by. `LANE_BLOCK` bytes are 2^16 bits, so this is x squared
/// sixteen times.
const X_POW_BLOCK: u32 = {
    assert!(8 * LANE_BLOCK == 1 << 16);
    // x^1 in the reflected representation.
    let mut p = 1u32 << 30;
    let mut i = 0;
    while i < 16 {
        p = mul_mod_p(p, p);
        i += 1;
    }
    p
};

/// Advances `crc` over one 8-byte word.
#[inline(always)]
fn step8(crc: u32, word: &[u8]) -> u32 {
    let t = &TABLES;
    let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
    let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// Advances `crc` over `data` with the slice-by-8 loop.
fn slice_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        crc = step8(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `data` — the same value `cksum`-style IEEE implementations
/// (zlib's `crc32`, PNG, gzip) produce.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut groups = data.chunks_exact(4 * LANE_BLOCK);
    for group in &mut groups {
        let (a, rest) = group.split_at(LANE_BLOCK);
        let (b, rest) = rest.split_at(LANE_BLOCK);
        let (c, d) = rest.split_at(LANE_BLOCK);
        // Lane `a` continues the running register; the others start from
        // zero and are shifted into place by the join.
        let (mut ra, mut rb, mut rc, mut rd) = (crc, 0u32, 0u32, 0u32);
        for (((wa, wb), wc), wd) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
            .zip(d.chunks_exact(8))
        {
            ra = step8(ra, wa);
            rb = step8(rb, wb);
            rc = step8(rc, wc);
            rd = step8(rd, wd);
        }
        crc = mul_mod_p(X_POW_BLOCK, ra) ^ rb;
        crc = mul_mod_p(X_POW_BLOCK, crc) ^ rc;
        crc = mul_mod_p(X_POW_BLOCK, crc) ^ rd;
    }
    !slice_by_8(crc, groups.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = b"the catalog is a sequence of editing operations".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    /// The textbook bit-serial CRC-32, one byte at a time, sharing nothing
    /// with the kernels above but the polynomial.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic filler bytes (xorshift), so long inputs cost no
    /// strategy draws.
    fn filler(len: usize, mut seed: u64) -> Vec<u8> {
        seed |= 1;
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    #[test]
    fn lane_group_edges_match_the_reference() {
        assert_eq!(4 * LANE_BLOCK, 32_768);
        let data = filler(3 * 32_768 + 9, 0x5EED);
        for len in [32_767, 32_768, 32_769, 65_536, 3 * 32_768 + 9] {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(64)))]

        /// Any length from empty to just past three lane groups, starting
        /// at any offset (so the words are unaligned), agrees with the
        /// byte-at-a-time reference.
        #[test]
        fn matches_the_bytewise_reference(
            len in 0usize..3 * 4 * LANE_BLOCK + 100,
            offset in 0usize..8,
            seed in any::<u64>(),
        ) {
            let data = filler(offset + len, seed);
            let slice = &data[offset..];
            prop_assert_eq!(crc32(slice), bytewise(slice));
        }
    }
}
