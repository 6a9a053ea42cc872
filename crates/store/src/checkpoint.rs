//! Checkpoint images: one contiguous, checksummed snapshot of a session.
//!
//! A checkpoint freezes everything a backend needs to rebuild itself at one
//! version: per shard (a single executor is the one-shard case) the
//! identified document serialization, every node label in its lossless
//! compact form, the fresh-identifier counter and the routing interval, plus
//! the session-level fields (version, root identity). The store writes the
//! encoded image as **one** write to a temporary file, fsyncs, and renames it
//! into place — a crash leaves either the previous checkpoint set or the new
//! one, never a half image. A trailing CRC-32 guards the loader against
//! silent corruption.

use std::io;

use crate::crc::crc32;

/// Format magic opening every checkpoint image.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"XCKP";

/// Current encoding version. Format 2 added the session compaction epoch;
/// format 1 images (pre-epoch) still decode, with `epoch = 0`.
pub const CHECKPOINT_FORMAT: u32 = 2;

/// The frozen state of one shard (a single executor checkpoints as exactly
/// one shard with an empty routing interval).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard document's identified serialization (node ids preserved).
    pub doc: String,
    /// Every label as `"<id> <compact>"` — the lossless compact label form.
    pub labels: Vec<String>,
    /// The shard's fresh-identifier counter (restored with `reserve_ids`, so
    /// identifiers minted after recovery never collide with dead slots).
    pub next_id: u64,
    /// The shard core's own version counter (shards skipped by a commit stay
    /// behind the session version).
    pub version: u64,
    /// Routing interval low key digits (empty for a single executor).
    pub interval_lo: Vec<u8>,
    /// Routing interval high key digits (empty for a single executor).
    pub interval_hi: Vec<u8>,
}

/// The full frozen state of a session at one version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointState {
    /// The session version the snapshot freezes.
    pub version: u64,
    /// The session's compaction epoch at the snapshot (0 for sessions that
    /// never compacted, and for format-1 images written before epochs).
    pub epoch: u64,
    /// Whether the snapshot came from a sharded session.
    pub sharded: bool,
    /// The root element identifier (sharded sessions only; 0 otherwise).
    pub root_id: u64,
    /// The global root label in compact form (sharded sessions only).
    pub root_label: String,
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt checkpoint: {what}"))
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return Err(corrupt("unexpected end of image"));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?).map_err(|_| corrupt("non-UTF-8 string"))
    }
}

/// Encodes a checkpoint into its on-disk image (magic, format, body, CRC).
pub fn encode(state: &CheckpointState) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u32(&mut out, CHECKPOINT_FORMAT);
    put_u64(&mut out, state.version);
    put_u64(&mut out, state.epoch);
    out.push(u8::from(state.sharded));
    put_u64(&mut out, state.root_id);
    put_str(&mut out, &state.root_label);
    put_u32(&mut out, state.shards.len() as u32);
    for shard in &state.shards {
        put_str(&mut out, &shard.doc);
        put_u32(&mut out, shard.labels.len() as u32);
        for label in &shard.labels {
            put_str(&mut out, label);
        }
        put_u64(&mut out, shard.next_id);
        put_u64(&mut out, shard.version);
        put_bytes(&mut out, &shard.interval_lo);
        put_bytes(&mut out, &shard.interval_hi);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// Decodes (and integrity-checks) a checkpoint image.
pub fn decode(bytes: &[u8]) -> io::Result<CheckpointState> {
    if bytes.len() < 4 + 4 + 4 {
        return Err(corrupt("image too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader { bytes: body, at: 0 };
    if r.take(4)? != CHECKPOINT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let format = r.u32()?;
    if format == 0 || format > CHECKPOINT_FORMAT {
        return Err(corrupt("unknown format version"));
    }
    let version = r.u64()?;
    // Format 1 predates compaction epochs: such a session never compacted.
    let epoch = if format >= 2 { r.u64()? } else { 0 };
    let sharded = r.take(1)?[0] != 0;
    let root_id = r.u64()?;
    let root_label = r.string()?;
    // The counts are untrusted (the CRC only catches accidents), so vectors
    // grow with the entries actually read instead of being sized from them.
    let n_shards = r.u32()?;
    let mut shards = Vec::new();
    for _ in 0..n_shards {
        let doc = r.string()?;
        let n_labels = r.u32()?;
        let mut labels = Vec::new();
        for _ in 0..n_labels {
            labels.push(r.string()?);
        }
        let next_id = r.u64()?;
        let shard_version = r.u64()?;
        let interval_lo = r.bytes()?;
        let interval_hi = r.bytes()?;
        shards.push(ShardSnapshot {
            doc,
            labels,
            next_id,
            version: shard_version,
            interval_lo,
            interval_hi,
        });
    }
    if r.at != r.bytes.len() {
        return Err(corrupt("trailing bytes after the last shard"));
    }
    Ok(CheckpointState { version, epoch, sharded, root_id, root_label, shards })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointState {
        CheckpointState {
            version: 42,
            epoch: 3,
            sharded: true,
            root_id: 1,
            root_label: "0-1;0-9;0;E;-;-;FL".into(),
            shards: vec![
                ShardSnapshot {
                    doc: "<r xml:id=\"1\"><a xml:id=\"2\"/></r>".into(),
                    labels: vec!["1 0-1;0-9;0;E;-;-;FL".into(), "2 0-2;0-3;1;E;1;-;FL".into()],
                    next_id: 17,
                    version: 42,
                    interval_lo: vec![0, 1],
                    interval_hi: vec![0, 5],
                },
                ShardSnapshot {
                    doc: "<r xml:id=\"1\"/>".into(),
                    labels: vec!["1 0-5;0-9;0;E;-;-;FL".into()],
                    next_id: 17,
                    version: 40,
                    interval_lo: vec![0, 5],
                    interval_hi: vec![0, 9],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let state = sample();
        assert_eq!(decode(&encode(&state)).unwrap(), state);
        let single = CheckpointState {
            version: 0,
            epoch: 0,
            sharded: false,
            root_id: 0,
            root_label: String::new(),
            shards: vec![ShardSnapshot {
                doc: "<d xml:id=\"1\"/>".into(),
                labels: vec!["1 0-1;0-9;0;E;-;-;FL".into()],
                next_id: 2,
                version: 0,
                interval_lo: Vec::new(),
                interval_hi: Vec::new(),
            }],
        };
        assert_eq!(decode(&encode(&single)).unwrap(), single);
    }

    /// Encodes `state` the way format 1 did (no epoch field), so the
    /// backward-compatibility path is exercised against real layout.
    fn encode_format1(state: &CheckpointState) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut out, 1);
        put_u64(&mut out, state.version);
        out.push(u8::from(state.sharded));
        put_u64(&mut out, state.root_id);
        put_str(&mut out, &state.root_label);
        put_u32(&mut out, state.shards.len() as u32);
        for shard in &state.shards {
            put_str(&mut out, &shard.doc);
            put_u32(&mut out, shard.labels.len() as u32);
            for label in &shard.labels {
                put_str(&mut out, label);
            }
            put_u64(&mut out, shard.next_id);
            put_u64(&mut out, shard.version);
            put_bytes(&mut out, &shard.interval_lo);
            put_bytes(&mut out, &shard.interval_hi);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    #[test]
    fn format1_images_decode_with_epoch_zero() {
        let mut state = sample();
        state.epoch = 0; // format 1 cannot carry an epoch
        let decoded = decode(&encode_format1(&state)).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(decoded.epoch, 0);
    }

    #[test]
    fn future_formats_are_rejected() {
        let mut bytes = encode(&sample());
        // Bump the format field past the current version and refresh the CRC.
        let future = (CHECKPOINT_FORMAT + 1).to_le_bytes();
        bytes[4..8].copy_from_slice(&future);
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let bytes = encode(&sample());
        for i in (0..bytes.len()).step_by(7) {
            let mut copy = bytes.clone();
            copy[i] ^= 0x10;
            assert!(decode(&copy).is_err(), "flip at byte {i} accepted");
        }
    }

    /// Seals a hand-built body with its CRC, so the image reaches the field
    /// decoder: a valid checksum, hostile counts.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        body
    }

    /// A current-format header of an unsharded session, up to and including
    /// the shard count.
    fn header(n_shards: u32) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u32(&mut out, CHECKPOINT_FORMAT);
        put_u64(&mut out, 0); // version
        put_u64(&mut out, 0); // epoch
        out.push(0); // not sharded
        put_u64(&mut out, 0); // root id
        put_str(&mut out, ""); // root label
        put_u32(&mut out, n_shards);
        out
    }

    #[test]
    fn a_huge_shard_count_is_rejected_without_preallocating() {
        assert!(decode(&sealed(header(u32::MAX))).is_err());
    }

    #[test]
    fn a_huge_label_count_is_rejected_without_preallocating() {
        let mut body = header(1);
        put_str(&mut body, "<d xml:id=\"1\"/>");
        put_u32(&mut body, u32::MAX);
        assert!(decode(&sealed(body)).is_err());
    }

    #[test]
    fn truncated_images_are_rejected() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }
}
