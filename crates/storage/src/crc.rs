//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the one
//! checksum under page trailers, WAL frames, the database header page
//! and snapshot blobs.
//!
//! The kernel is portable *slicing-by-8*: eight 256-entry tables (8 KiB,
//! built by `const fn` at compile time) let one loop iteration fold eight
//! input bytes with eight independent table loads, instead of the
//! 64 dependent shift/xor steps a bit-at-a-time loop spends on them.
//! Each 1 KiB block is four 256-byte stripes with a register apiece, so
//! four independent steps overlap in the CPU; CRC is linear, so shifting
//! each register over the zero bytes after its stripe (`ZERO256`) and
//! XOR-ing recombines them.  A shorter tail runs one register.
//!
//! There is one code path on every target — no `cfg(target_feature)`
//! fork, no `unsafe` — so the bytes a page or frame carries never depend
//! on the machine that wrote them.

const POLY: u32 = 0xEDB8_8320;

/// Bytes per interleaved block, and per stripe (one register each).
const BLOCK: usize = 1024;
const STRIPE: usize = BLOCK / 4;

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

/// `ZERO256[k][b]` is register `b << 8k` advanced over [`STRIPE`] zero
/// bytes; XOR-ing the four lookups of a register's bytes advances it.
static ZERO256: [[u32; 256]; 4] = build_zero256();

const fn build_zero256() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 1024 {
        let (k, b) = (i / 256, i % 256);
        let mut r = (b as u32) << (8 * k);
        // A slicing-by-8 step over eight zero bytes, STRIPE / 8 times.
        let mut n = 0;
        while n < STRIPE / 8 {
            r = TABLES[7][(r & 0xFF) as usize]
                ^ TABLES[6][((r >> 8) & 0xFF) as usize]
                ^ TABLES[5][((r >> 16) & 0xFF) as usize]
                ^ TABLES[4][(r >> 24) as usize];
            n += 1;
        }
        t[k][b] = r;
        i += 1;
    }
    t
}

/// Advance a register over [`STRIPE`] zero bytes.
#[inline(always)]
fn skip_stripe(r: u32) -> u32 {
    (0..4).fold(0, |acc, k| acc ^ ZERO256[k][(r >> (8 * k) & 0xFF) as usize])
}

/// Fold eight bytes into a register: one slicing-by-8 step (the register
/// is XOR-ed into the first four; byte `i` then looks up `TABLES[7 - i]`).
#[inline(always)]
fn fold8(crc: u32, c: &[u8]) -> u32 {
    let w = u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")) ^ crc as u64;
    (0..8).fold(0, |acc, i| {
        acc ^ TABLES[7 - i][(w >> (8 * i) & 0xFF) as usize]
    })
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
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            let (a, rest) = block.split_at(STRIPE);
            let (b, rest) = rest.split_at(STRIPE);
            let (c, d) = rest.split_at(STRIPE);
            // The incoming register rides stripe `a`; the others start at
            // zero and are shifted into place when the block is done.
            let (mut ra, mut rb, mut rc, mut rd) = (crc, 0, 0, 0);
            let quads = a.chunks_exact(8).zip(b.chunks_exact(8));
            for ((qa, qb), (qc, qd)) in quads.zip(c.chunks_exact(8).zip(d.chunks_exact(8))) {
                ra = fold8(ra, qa);
                rb = fold8(rb, qb);
                rc = fold8(rc, qc);
                rd = fold8(rd, qd);
            }
            crc = skip_stripe(skip_stripe(skip_stripe(ra) ^ rb) ^ rc) ^ rd;
        }
        let mut chunks = blocks.remainder().chunks_exact(8);
        for c in &mut chunks {
            crc = fold8(crc, c);
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
        !bytes.iter().fold(!0, |crc, &b| bitwise_step(crc, b))
    }

    /// Fold one byte into a register, one bit at a time.
    fn bitwise_step(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
        crc
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
        // Past three interleaved blocks, so every length lands before, on
        // and after a block edge with every tail length behind it.
        const MAX: usize = 3 * BLOCK + 64;
        let mut buf = vec![0u8; MAX + 8];
        fill(&mut buf, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            // The oracle's register runs along the buffer once per start.
            let mut oracle: u32 = !0;
            for len in 0..=MAX {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), !oracle, "start {start} len {len}");
                oracle = bitwise_step(oracle, buf[start + len]);
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
        // 2.5 KiB: cuts land before, on and across both block edges.
        let mut buf = vec![0u8; 2 * BLOCK + BLOCK / 2];
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
