//! WAL record framing: `magic | length | version | crc | payload`.
//!
//! Every committed PUL round becomes exactly one record. The frame is
//! self-delimiting and self-validating, so a scan can walk a segment from the
//! start and stop at the first record that is torn (the file ends inside it)
//! or corrupt (checksum or magic mismatch) — everything before that point is
//! durable. What follows is a torn tail and is discarded, unless a valid
//! frame of a later version lies past the damage ([`later_frame`]).
//!
//! ```text
//!  offset  size  field
//!  0       4     magic  "XWAL"
//!  4       4     payload length (LE)
//!  8       8     version the record commits (LE)
//!  16      4     CRC-32 over version bytes ++ payload (LE)
//!  20      len   payload
//! ```

use crate::crc::crc32_parts;

/// Magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"XWAL";

/// Bytes of the fixed frame header preceding the payload.
pub const RECORD_HEADER_LEN: usize = 20;

/// Hard cap on one record's payload — a corrupt length field must not make
/// the scanner allocate terabytes. One committed round encodes one binary PUL
/// (or one per shard); 256 MiB is orders of magnitude above
/// anything real. [`Store::append`](crate::Store::append) refuses larger
/// payloads up front, since [`scan`] would discard them as a corrupt tail.
pub const MAX_PAYLOAD_LEN: usize = 256 << 20;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The session version this record's commit produced.
    pub version: u64,
    /// The serialized commit (see the payload codec in the façade crate).
    pub payload: Vec<u8>,
}

/// Encodes one record into its on-disk frame.
pub fn encode_record(version: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let version_bytes = version.to_le_bytes();
    out.extend_from_slice(&version_bytes);
    out.extend_from_slice(&crc32_parts(&[&version_bytes, payload]).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The outcome of scanning one segment's bytes.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// The records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix. Anything past it is a torn or
    /// corrupt tail and must be truncated away before appending again.
    pub valid_len: u64,
}

/// The frame opening `rest`, as its version and payload, if it is complete
/// and its checksum holds.
fn frame(rest: &[u8]) -> Option<(u64, &[u8])> {
    if rest.len() < RECORD_HEADER_LEN || rest[..4] != RECORD_MAGIC {
        return None; // torn header (or clean end of segment), or bad magic
    }
    let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD_LEN || rest.len() < RECORD_HEADER_LEN + len {
        return None; // implausible length or torn payload
    }
    let version_bytes: [u8; 8] = rest[8..16].try_into().expect("8 bytes");
    let stored_crc = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
    let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
    (crc32_parts(&[&version_bytes, payload]) == stored_crc)
        .then(|| (u64::from_le_bytes(version_bytes), payload))
}

/// Walks `bytes` record by record, stopping at the first torn or corrupt
/// frame. Never fails: corruption just ends the valid prefix.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some((version, payload)) = frame(&bytes[at..]) {
        records.push(WalRecord { version, payload: payload.to_vec() });
        at += RECORD_HEADER_LEN + payload.len();
    }
    ScanOutcome { records, valid_len: at as u64 }
}

/// The version of the first valid frame past the point where `scan` stopped
/// whose version is above the scan's last record (any version, if it kept
/// none). `None` means the bytes past the valid prefix are a torn tail; a
/// frame found there means acknowledged commits lie behind the damage.
pub fn later_frame(bytes: &[u8], scan: &ScanOutcome) -> Option<u64> {
    let last = scan.records.last().map(|r| r.version);
    (scan.valid_len as usize + 1..bytes.len())
        .filter_map(|at| frame(&bytes[at..]))
        .map(|(version, _)| version)
        .find(|&version| last.is_none_or(|l| version > l))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(records: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(v, p) in records {
            out.extend_from_slice(&encode_record(v, p));
        }
        out
    }

    #[test]
    fn encode_scan_round_trip() {
        let bytes = segment(&[(1, b"alpha"), (2, b""), (3, b"gamma-delta")]);
        let scan = scan(&bytes);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(
            scan.records,
            vec![
                WalRecord { version: 1, payload: b"alpha".to_vec() },
                WalRecord { version: 2, payload: Vec::new() },
                WalRecord { version: 3, payload: b"gamma-delta".to_vec() },
            ]
        );
    }

    #[test]
    fn every_truncation_point_keeps_exactly_the_complete_records() {
        let bytes = segment(&[(1, b"one"), (2, b"two-two"), (3, b"three")]);
        let boundaries: Vec<usize> = {
            let mut b = vec![0];
            let mut at = 0;
            for p in [b"one".len(), b"two-two".len(), b"three".len()] {
                at += RECORD_HEADER_LEN + p;
                b.push(at);
            }
            b
        };
        for cut in 0..=bytes.len() {
            let scan = scan(&bytes[..cut]);
            let expect = boundaries.iter().filter(|&&b| b <= cut && b > 0).count();
            assert_eq!(scan.records.len(), expect, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, boundaries[expect], "cut at {cut}");
            assert_eq!(later_frame(&bytes[..cut], &scan), None, "a torn tail, cut at {cut}");
        }
    }

    #[test]
    fn a_byte_flipped_mid_segment_leaves_a_later_frame() {
        let mut bytes = segment(&[(1, b"aaaa"), (2, b"bbbb"), (3, b"cccc")]);
        bytes[2 * RECORD_HEADER_LEN + 4 + 1] ^= 0x40; // inside v2's payload
        let kept = scan(&bytes);
        assert_eq!(kept.records.len(), 1);
        assert_eq!(later_frame(&bytes, &kept), Some(3));
        // Damage in the first frame: any valid frame after it counts.
        let mut bytes = segment(&[(1, b"aaaa"), (2, b"bbbb")]);
        bytes[RECORD_HEADER_LEN] ^= 0x40;
        let kept = scan(&bytes);
        assert!(kept.records.is_empty());
        assert_eq!(later_frame(&bytes, &kept), Some(2));
    }

    #[test]
    fn corrupt_payload_ends_the_valid_prefix() {
        let mut bytes = segment(&[(1, b"aaaa"), (2, b"bbbb")]);
        let second_payload_at = 2 * RECORD_HEADER_LEN + 4;
        bytes[second_payload_at] ^= 0x40;
        let scan = scan(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].version, 1);
    }

    #[test]
    fn corrupt_version_field_is_detected() {
        let mut bytes = segment(&[(7, b"payload")]);
        bytes[9] ^= 0x01; // version byte
        assert_eq!(scan(&bytes).records.len(), 0);
    }

    #[test]
    fn bad_magic_and_implausible_length_stop_the_scan() {
        let mut bytes = segment(&[(1, b"x")]);
        bytes.extend_from_slice(b"JUNKJUNKJUNKJUNKJUNKJUNK");
        assert_eq!(scan(&bytes).records.len(), 1);

        let mut huge = Vec::new();
        huge.extend_from_slice(&RECORD_MAGIC);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&[0u8; 12]);
        huge.extend_from_slice(&[0u8; 64]);
        assert_eq!(scan(&huge).records.len(), 0);
    }
}
