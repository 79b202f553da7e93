//! Machine calibration: a fixed kernel owned by the benchmark, so that
//! numbers taken on different boxes can be normalised.  Table-driven
//! CRC-32 (the engine's page checksum is the same family) over 64 MiB
//! followed by a `memcpy` of the same buffer.  Diagnostic only.

use std::time::Instant;

const BYTES: usize = 64 << 20;

fn crc_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    for (i, slot) in t.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    t
}

/// Run the kernel at `bytes` size; returns `(milliseconds, checksum)`.
pub fn run_sized(bytes: usize) -> (f64, u32) {
    let table = crc_table();
    let src: Vec<u8> = (0..bytes)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761) as u8)
        .collect();
    let mut dst = vec![0u8; bytes];
    let t = Instant::now();
    let mut crc = !0u32;
    for &b in &src {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    dst.copy_from_slice(&src);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    // fold the copy into the result so neither half can be elided
    let crc = std::hint::black_box(!crc ^ dst[bytes / 2] as u32);
    (ms, crc)
}

pub fn run() -> f64 {
    run_sized(BYTES).0
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(super::run_sized(1 << 16).1, super::run_sized(1 << 16).1);
    }
}
