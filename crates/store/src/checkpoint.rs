//! Checkpoint images: one contiguous, checksummed snapshot of a session.
//!
//! A checkpoint freezes everything a backend needs to rebuild itself at one
//! version: per shard (a single executor is the one-shard case) one opaque
//! byte image of the shard's document and labeling, the fresh-identifier
//! counter, the shard version and the routing interval, plus the
//! session-level fields (version, compaction epoch, root identity). The store
//! only frames and checksums: the backend encodes the images and reads them
//! back. It writes the encoded checkpoint as **one** write to a temporary
//! file, fsyncs, and renames it into place — a crash leaves either the
//! previous checkpoint set or the new one, never a half image. A trailing
//! CRC-32 guards the loader against silent corruption.
//!
//! ```text
//!  field          encoding
//!  magic          "XCKP"
//!  format         u32 LE, 3
//!  version        u64 LE
//!  epoch          u64 LE
//!  sharded        u8
//!  root id        u64 LE
//!  root label     u32 LE length + bytes
//!  shard count    u32 LE, then per shard:
//!    image        u32 LE length + bytes
//!    next id      u64 LE
//!    version      u64 LE
//!    interval lo  u32 LE length + bytes
//!    interval hi  u32 LE length + bytes
//!  crc            u32 LE, CRC-32 of everything before it
//! ```
//!
//! Format 3 replaced the identified XML and compact label strings of
//! formats 1 and 2 with the backend's binary images. There is no reader for
//! the retired formats: such an image fails to load.

use std::io;

use crate::crc::crc32;

/// Format magic opening every checkpoint image.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"XCKP";

/// Current encoding version, the only one that decodes.
pub const CHECKPOINT_FORMAT: u32 = 3;

/// The frozen state of one shard (a single executor checkpoints as exactly
/// one shard with an empty routing interval).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's document and labeling, encoded by the backend.
    pub image: Vec<u8>,
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
    /// never compacted).
    pub epoch: u64,
    /// Whether the snapshot came from a sharded session.
    pub sharded: bool,
    /// The root element identifier (sharded sessions only; 0 otherwise).
    pub root_id: u64,
    /// The global root label, encoded by the backend (sharded sessions only;
    /// empty otherwise).
    pub root_label: Vec<u8>,
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
}

/// Encodes a checkpoint into its on-disk image (magic, format, body, CRC).
pub fn encode(state: &CheckpointState) -> Vec<u8> {
    let images: usize = state.shards.iter().map(|s| s.image.len() + 64).sum();
    let mut out = Vec::with_capacity(images + 64);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u32(&mut out, CHECKPOINT_FORMAT);
    put_u64(&mut out, state.version);
    put_u64(&mut out, state.epoch);
    out.push(u8::from(state.sharded));
    put_u64(&mut out, state.root_id);
    put_bytes(&mut out, &state.root_label);
    put_u32(&mut out, state.shards.len() as u32);
    for shard in &state.shards {
        put_bytes(&mut out, &shard.image);
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
    match r.u32()? {
        CHECKPOINT_FORMAT => {}
        format @ 1..CHECKPOINT_FORMAT => {
            return Err(corrupt(&format!("format {format} is retired and has no reader")))
        }
        format => return Err(corrupt(&format!("unknown format {format}"))),
    }
    let version = r.u64()?;
    let epoch = r.u64()?;
    let sharded = r.take(1)?[0] != 0;
    let root_id = r.u64()?;
    let root_label = r.bytes()?;
    // The counts are untrusted (the CRC only catches accidents), so vectors
    // grow with the entries actually read instead of being sized from them.
    let n_shards = r.u32()?;
    let mut shards = Vec::new();
    for _ in 0..n_shards {
        let image = r.bytes()?;
        let next_id = r.u64()?;
        let shard_version = r.u64()?;
        let interval_lo = r.bytes()?;
        let interval_hi = r.bytes()?;
        shards.push(ShardSnapshot {
            image,
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
            root_label: vec![1, 1, 1, 9, 0, 0],
            shards: vec![
                ShardSnapshot {
                    image: b"opaque shard image".to_vec(),
                    next_id: 17,
                    version: 42,
                    interval_lo: vec![0, 1],
                    interval_hi: vec![0, 5],
                },
                ShardSnapshot {
                    image: vec![0; 3],
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
            root_label: Vec::new(),
            shards: vec![ShardSnapshot {
                image: b"one shard".to_vec(),
                next_id: 2,
                version: 0,
                interval_lo: Vec::new(),
                interval_hi: Vec::new(),
            }],
        };
        assert_eq!(decode(&encode(&single)).unwrap(), single);
    }

    /// Rewrites the format field and refreshes the CRC.
    fn with_format(mut bytes: Vec<u8>, format: u32) -> Vec<u8> {
        bytes[4..8].copy_from_slice(&format.to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn retired_and_future_formats_are_rejected() {
        for format in [0, 1, 2, CHECKPOINT_FORMAT + 1, u32::MAX] {
            let err = decode(&with_format(encode(&sample()), format)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("format"), "{err}");
        }
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
        put_bytes(&mut out, b""); // root label
        put_u32(&mut out, n_shards);
        out
    }

    #[test]
    fn a_huge_shard_count_is_rejected_without_preallocating() {
        assert!(decode(&sealed(header(u32::MAX))).is_err());
    }

    #[test]
    fn a_huge_image_length_is_rejected_without_preallocating() {
        let mut body = header(1);
        put_u32(&mut body, u32::MAX);
        assert!(decode(&sealed(body)).is_err());
    }

    #[test]
    fn truncated_images_are_rejected() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }
}
