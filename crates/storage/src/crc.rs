//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) used for the
//! per-page checksums embedded by the buffer pool and for the WAL's
//! record trailers.
//!
//! Every physical page read is verified before it is decoded, so this
//! checksum sits on the buffer pool's miss path. A byte-at-a-time table
//! loop costs about 12.8 µs per 4092-byte page payload on a 2-vCPU
//! x86-64 VM: an eighth of the 100 µs simulated read it protects, and
//! nearly all of a miss when no latency is simulated. The kernel is
//! therefore slicing-by-16: sixteen 256-entry tables, built at compile
//! time, fold 16 input bytes per step with independent lookups, about
//! 2.4 µs per page on the same VM. It computes the same function as the
//! bytewise loop the tests keep as an oracle, so neither the page format
//! nor the WAL format depends on which kernel wrote it.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const SLICE: usize = 16;

/// `TABLES[k][b]` is the CRC register contribution of byte `b` followed
/// by `k` zero bytes; `TABLES[0]` is the classic bytewise table.
static TABLES: [[u32; 256]; SLICE] = make_tables();

const fn make_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(SLICE);
    for block in &mut blocks {
        let b: &[u8; SLICE] = block.try_into().expect("chunks_exact yields SLICE bytes");
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic 256-entry table, built bit by bit.
    fn bytewise_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    }

    /// The byte-at-a-time table loop: the reference the kernel must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = bytewise_table();
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn matches_the_bytewise_oracle_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..4092 + SLICE)
            .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(7) as u8)
            .collect();
        for offset in 0..SLICE {
            for len in (0..=64).chain([4092]) {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn golden_page_checksum() {
        // Computed by the bytewise kernel: pins the page trailer format.
        let page: Vec<u8> = (0..4092usize)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 5)) as u8)
            .collect();
        assert_eq!(crc32_bytewise(&page), 0x0827_6790);
        assert_eq!(crc32(&page), 0x0827_6790);
    }

    #[test]
    fn golden_wal_record_checksum() {
        // `lsn ‖ kind ‖ payload`, the span a WAL record's CRC covers;
        // computed by the bytewise kernel to pin the record format.
        let mut body = Vec::new();
        body.extend_from_slice(&42u64.to_le_bytes());
        body.push(3);
        body.extend_from_slice(b"insert o264 at 0.5,0.5 {cafe, wifi}");
        assert_eq!(crc32_bytewise(&body), 0xD164_4F2B);
        assert_eq!(crc32(&body), 0xD164_4F2B);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut page = vec![0u8; 4092];
        page[100] = 0x55;
        let clean = crc32(&page);
        for bit in [0, 1, 7] {
            page[2000] ^= 1 << bit;
            assert_ne!(crc32(&page), clean, "bit {bit} flip went undetected");
            page[2000] ^= 1 << bit;
        }
        assert_eq!(crc32(&page), clean);
    }

    #[test]
    fn zero_payload_has_nonzero_crc() {
        // The all-zero page exemption in the buffer pool relies on a
        // written-then-zeroed page being distinguishable from a fresh one:
        // a legitimately written all-zero payload stores a nonzero CRC.
        assert_ne!(crc32(&[0u8; 4092]), 0);
    }
}
