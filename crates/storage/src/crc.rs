//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the one
//! checksum under page trailers, WAL frames, the database header page
//! and snapshot blobs.
//!
//! The kernel is portable *slicing-by-8*: eight 256-entry tables (8 KiB,
//! built by `const fn` at compile time) let one loop iteration fold eight
//! input bytes with eight independent table loads, instead of the
//! 64 dependent shift/xor steps a bit-at-a-time loop spends on them.
//! There is one code path on every target — no `cfg(target_feature)`
//! fork, no `unsafe` — so the bytes a page or frame carries never depend
//! on the machine that wrote them.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// A running CRC-32, for checksumming bytes that are not contiguous in
/// memory: `Crc32::new().update(a).update(b).finish()` equals
/// `crc32(a ‖ b)`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// The checksum of the empty string.
    pub const fn new() -> Crc32 {
        Crc32(!0)
    }

    /// Fold `bytes` into the checksum.
    #[must_use]
    pub fn update(self, bytes: &[u8]) -> Crc32 {
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][c[4] as usize]
                ^ TABLES[2][c[5] as usize]
                ^ TABLES[1][c[6] as usize]
                ^ TABLES[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        Crc32(crc)
    }

    /// The checksum of everything folded in so far.
    pub const fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition of the checksum: the oracle the
    /// table-driven kernel is held to.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic filler (xorshift64*), so failures reproduce.
    fn fill(buf: &mut [u8], mut seed: u64) {
        for b in buf {
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            *b = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8;
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn matches_bitwise_at_every_length_and_alignment() {
        let mut buf = vec![0u8; 1024 + 8];
        fill(&mut buf, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_bitwise_on_random_pages() {
        let mut page = vec![0u8; crate::PAGE_SIZE];
        for seed in 1..=32u64 {
            fill(&mut page, seed);
            assert_eq!(crc32(&page), crc32_bitwise(&page), "seed {seed}");
            let body = &page[..crate::PAGE_BODY];
            assert_eq!(crc32(body), crc32_bitwise(body), "seed {seed} body");
        }
    }

    #[test]
    fn every_two_way_split_streams_to_the_one_shot_value() {
        let mut buf = vec![0u8; 257];
        fill(&mut buf, 7);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                whole,
                "cut {cut}"
            );
        }
    }
}
