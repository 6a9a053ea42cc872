//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! guarding WAL records and checkpoint images. Hand-rolled slicing-by-8:
//! eight derived tables fold eight input bytes per step, which keeps the
//! checksum of a recovery's reads well below their decoding. The store
//! depends on nothing outside `std`.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes, so the eight lookups of
/// one step can be XORed independently.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Feeds `data` into a running CRC state, eight bytes per step.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The CRC-32 of one contiguous byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// The CRC-32 of the concatenation of `parts`, without materialising it.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for part in parts {
        state = update(state, part);
    }
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook one-byte-at-a-time CRC-32, the reference the sliced
    /// loop must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn parts_equal_concatenation() {
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), crc32(b"123456789"));
        assert_eq!(crc32_parts(&[b"", b"a", b"", b"bc"]), crc32(b"abc"));
    }

    #[test]
    fn sliced_loop_matches_the_bytewise_reference_at_every_length_and_alignment() {
        let buffer: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8).collect();
        for align in 0..8 {
            for len in 0..=64 {
                let data = &buffer[align..align + len];
                assert_eq!(crc32(data), bytewise(data), "length {len} at offset {align}");
                // split anywhere: the running state carries across parts
                let (a, b) = data.split_at(len / 3);
                assert_eq!(crc32_parts(&[a, b]), bytewise(data), "split {len} at offset {align}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = crc32(b"pending update list");
        let mut bytes = b"pending update list".to_vec();
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "bit {i} undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }
}
