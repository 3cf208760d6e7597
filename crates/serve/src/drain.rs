//! The drain manifest: every open stream of a draining daemon,
//! checkpointed into one sealed, versioned byte blob a successor
//! daemon adopts at startup.
//!
//! A drained stream needs more than its [`bitgen::StreamCheckpoint`]:
//! the successor must rebuild the *engine* the checkpoint belongs to.
//! That engine is the stream's current patterns compiled at its current
//! generation ([`bitgen::BitGen::compile_at`]), whatever it swapped
//! through to get there, so each entry records the generation and the
//! patterns. The entry also records the
//! stream's last push acknowledgement, so a client whose final ack was
//! lost in the crash gets the idempotent replay instead of a double
//! scan, *across* the restart.
//!
//! The byte format is length-prefixed throughout, versioned, and
//! sealed with the same FNV-1a digest discipline as the checkpoint
//! format itself: any truncation, splice, or bit flip is a typed
//! [`Error::CheckpointInvalid`], never a silently wrong adoption.
//!
//! # Byte layout (version 1)
//!
//! `BGDM`, `u16` version, `u32` entry count; per entry: `u64` stream,
//! `u64` generation, `u64` base generation, tenant, `u32` lineage
//! count, each lineage set as a `u32` pattern count and its patterns,
//! checkpoint, ack tag (`0`, or `1`, `u64` offset, `u32` end count and
//! `u64` ends); then the `u64` seal. Strings and blobs are a `u32`
//! length and the bytes, integers little-endian. Earlier builds kept
//! every set a stream swapped through as its lineage, based at the
//! generation of its first set. This build writes a one-set lineage
//! based at the entry's generation, and reads the last set of any
//! lineage as the entry's patterns: the sets before it decide nothing.

use crate::service::StreamId;
use bitgen::Error;
use bitgen_ir::{fnv1a, ByteReader, FNV_OFFSET};
use std::path::Path;

const MAGIC: &[u8; 4] = b"BGDM";
const VERSION: u16 = 1;

/// The last acknowledged push of a stream: the byte offset the chunk
/// started at and the match ends it returned. This is the idempotent
/// replay window — a client re-pushing this exact boundary gets these
/// ends back instead of a rescan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckRecord {
    /// Stream byte offset *before* the acknowledged chunk.
    pub offset: u64,
    /// Match ends the acknowledged push returned.
    pub ends: Vec<u64>,
}

/// One drained stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainEntry {
    /// The stream's id, preserved across the handoff so clients keep
    /// pushing the handle they hold.
    pub stream: StreamId,
    /// Tenant the stream belongs to.
    pub tenant: String,
    /// Rule-set generation of the checkpoint (recorded redundantly
    /// with the checkpoint's own field and cross-checked at adoption).
    pub generation: u64,
    /// The patterns the stream runs at `generation`, in order.
    pub patterns: Vec<String>,
    /// The stream's committed boundary, as
    /// [`bitgen::StreamCheckpoint::to_bytes`] serialized it (with its
    /// own inner seal).
    pub checkpoint: Vec<u8>,
    /// The replay window, when the stream had acknowledged a push.
    pub last_ack: Option<AckRecord>,
}

/// Every open stream of a drained daemon, ready for
/// [`crate::ScanService::adopt_manifest`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainManifest {
    /// The drained streams, in stream-id order.
    pub entries: Vec<DrainEntry>,
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(u32::try_from(bytes.len()).unwrap_or(u32::MAX)).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn invalid(what: &str) -> Error {
    Error::CheckpointInvalid { reason: format!("drain manifest: {what}") }
}

/// The reader's one failure, typed.
fn truncated() -> Error {
    invalid("truncated")
}

fn string(r: &mut ByteReader<'_>) -> Result<String, Error> {
    String::from_utf8(r.blob().ok_or_else(truncated)?.to_vec())
        .map_err(|_| invalid("string field is not UTF-8"))
}

impl DrainManifest {
    /// Serializes the manifest: magic, version, entries, trailing
    /// FNV-1a seal over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 * self.entries.len() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            out.extend_from_slice(&entry.stream.to_le_bytes());
            // The generation twice: the entry's, and its one set's base.
            out.extend_from_slice(&entry.generation.to_le_bytes());
            out.extend_from_slice(&entry.generation.to_le_bytes());
            put_bytes(&mut out, entry.tenant.as_bytes());
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&(entry.patterns.len() as u32).to_le_bytes());
            for pattern in &entry.patterns {
                put_bytes(&mut out, pattern.as_bytes());
            }
            put_bytes(&mut out, &entry.checkpoint);
            match &entry.last_ack {
                None => out.push(0),
                Some(ack) => {
                    out.push(1);
                    out.extend_from_slice(&ack.offset.to_le_bytes());
                    out.extend_from_slice(&(ack.ends.len() as u32).to_le_bytes());
                    for &end in &ack.ends {
                        out.extend_from_slice(&end.to_le_bytes());
                    }
                }
            }
        }
        let seal = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    /// Parses and seal-checks manifest bytes.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointInvalid`] on bad magic, unsupported version,
    /// truncation, seal mismatch, or an entry with no pattern set. The
    /// inner checkpoints are *not*
    /// resumed here — that validation happens at adoption, per stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<DrainManifest, Error> {
        if bytes.len() < MAGIC.len() + 2 + 4 + 8 {
            return Err(invalid("shorter than the fixed header"));
        }
        let (payload, seal_bytes) = bytes.split_at(bytes.len() - 8);
        let sealed = u64::from_le_bytes(seal_bytes.try_into().expect("split at 8"));
        if fnv1a(FNV_OFFSET, payload) != sealed {
            return Err(invalid("seal mismatch (corrupt or tampered)"));
        }
        let mut r = ByteReader::new(payload);
        if r.take(4) != Some(&MAGIC[..]) {
            return Err(invalid("bad magic"));
        }
        let version = r.u16().ok_or_else(truncated)?;
        if version != VERSION {
            return Err(invalid(&format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        // Every count is bounded by the bytes still unread over the
        // smallest record it could be counting (an entry's fixed fields;
        // a pattern set's count; a string's length; a match end), so a
        // forged count pre-allocates nothing the payload could not back.
        const MIN_ENTRY_BYTES: usize = 3 * 8 + 3 * 4 + 1;
        let count =
            r.count(MIN_ENTRY_BYTES).ok_or_else(|| invalid("entry count exceeds payload"))?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let stream = r.u64().ok_or_else(truncated)?;
            let generation = r.u64().ok_or_else(truncated)?;
            // The base of the lineage: where its first set sat.
            r.u64().ok_or_else(truncated)?;
            let tenant = string(&mut r)?;
            let sets = r.count(4).ok_or_else(|| invalid("lineage count exceeds payload"))?;
            if sets == 0 {
                return Err(invalid(&format!("stream {stream} has no pattern set")));
            }
            let mut patterns = Vec::new();
            for _ in 0..sets {
                let n = r.count(4).ok_or_else(|| invalid("pattern count exceeds payload"))?;
                patterns = Vec::with_capacity(n);
                for _ in 0..n {
                    patterns.push(string(&mut r)?);
                }
            }
            let checkpoint = r.blob().ok_or_else(truncated)?.to_vec();
            let last_ack = match r.u8().ok_or_else(truncated)? {
                0 => None,
                1 => {
                    let offset = r.u64().ok_or_else(truncated)?;
                    let n = r.count(8).ok_or_else(|| invalid("ack end count exceeds payload"))?;
                    let mut ends = Vec::with_capacity(n);
                    for _ in 0..n {
                        ends.push(r.u64().ok_or_else(truncated)?);
                    }
                    Some(AckRecord { offset, ends })
                }
                other => return Err(invalid(&format!("bad ack tag {other}"))),
            };
            entries.push(DrainEntry { stream, tenant, generation, patterns, checkpoint, last_ack });
        }
        if r.remaining() != 0 {
            return Err(invalid("trailing bytes after the last entry"));
        }
        Ok(DrainManifest { entries })
    }

    /// Writes the sealed manifest to `path` (atomically: temp file,
    /// then rename, so a crash mid-write never leaves a torn manifest
    /// where a successor would look for one).
    ///
    /// # Errors
    ///
    /// The underlying I/O failure.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and parses a manifest from `path`.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointInvalid`] for unreadable files as well as
    /// corrupt bytes, so callers hold one error shape.
    pub fn load(path: &Path) -> Result<DrainManifest, Error> {
        let bytes = std::fs::read(path).map_err(|e| Error::CheckpointInvalid {
            reason: format!("drain manifest {path:?}: {e}"),
        })?;
        DrainManifest::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DrainManifest {
        DrainManifest {
            entries: vec![
                DrainEntry {
                    stream: 7,
                    tenant: "acme".to_string(),
                    generation: 2,
                    patterns: vec!["dog".to_string(), "a+b".to_string()],
                    checkpoint: vec![1, 2, 3, 4, 5],
                    last_ack: Some(AckRecord { offset: 4096, ends: vec![4100, 4110] }),
                },
                DrainEntry {
                    stream: 9,
                    tenant: "β-tenant".to_string(),
                    generation: 0,
                    patterns: vec!["x".to_string()],
                    checkpoint: vec![],
                    last_ack: None,
                },
            ],
        }
    }

    #[test]
    fn manifest_bytes_round_trip() {
        let manifest = sample();
        let parsed = DrainManifest::from_bytes(&manifest.to_bytes()).unwrap();
        assert_eq!(parsed, manifest);
        assert_eq!(
            DrainManifest::from_bytes(&DrainManifest::default().to_bytes()).unwrap(),
            DrainManifest::default()
        );
    }

    /// A one-entry manifest whose entry holds `sets` as its lineage,
    /// based at `base`: the layout earlier builds wrote for a swapped
    /// stream.
    fn with_lineage(generation: u64, base: u64, sets: &[&[&str]]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        for field in [3, generation, base] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        put_bytes(&mut out, b"acme");
        out.extend_from_slice(&(sets.len() as u32).to_le_bytes());
        for set in sets {
            out.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for pattern in *set {
                put_bytes(&mut out, pattern.as_bytes());
            }
        }
        put_bytes(&mut out, &[9, 9]);
        out.push(0);
        let seal = fnv1a(FNV_OFFSET, &out);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    #[test]
    fn a_lineage_reads_as_its_last_set_and_an_empty_one_is_refused() {
        let lineage: &[&[&str]] = &[&["cat"], &["e+f"], &["dog", "a+b"]];
        let read = DrainManifest::from_bytes(&with_lineage(2, 0, lineage)).unwrap();
        let entry = &read.entries[0];
        assert_eq!((entry.stream, entry.generation), (3, 2));
        assert_eq!(entry.patterns, ["dog", "a+b"]);
        assert_eq!(entry.checkpoint, [9, 9]);
        // Written back, the entry is a one-set lineage based at its
        // generation: what a stream that never swapped writes.
        assert_eq!(read.to_bytes(), with_lineage(2, 2, &[&["dog", "a+b"]]));
        match DrainManifest::from_bytes(&with_lineage(0, 0, &[])) {
            Err(Error::CheckpointInvalid { reason }) => assert!(reason.contains("no pattern set")),
            other => panic!("a zero-set lineage must be refused, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_and_any_flip_is_refused() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = DrainManifest::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, Error::CheckpointInvalid { .. }),
                "prefix of {len} bytes must be typed-invalid, got {err:?}"
            );
        }
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                DrainManifest::from_bytes(&bad).is_err(),
                "flip at byte {i} must be refused"
            );
        }
    }

    #[test]
    fn counts_beyond_the_remaining_payload_are_refused_before_allocating() {
        // One entry: header(10) + stream/generation/base(24) + tenant
        // (4 + 4), then the lineage count (1 as written). Each forged
        // count fits the *total* payload — the old bound — but not the
        // bytes left after it; resealed, so the count bound is what
        // refuses it.
        let manifest = DrainManifest { entries: vec![sample().entries.remove(0)] };
        let bytes = manifest.to_bytes();
        let payload_len = bytes.len() - 8;
        let lineage_at = 10 + 24 + 8;
        let patterns_at = lineage_at + 4;
        let ack_count_at = payload_len - 2 * 8 - 4;
        for (at, what) in [(lineage_at, "lineage"), (patterns_at, "pattern"), (ack_count_at, "ack")]
        {
            let forged = (payload_len - at) as u32;
            assert!(forged as usize <= payload_len);
            let mut bad = bytes[..payload_len].to_vec();
            bad[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            let seal = fnv1a(FNV_OFFSET, &bad);
            bad.extend_from_slice(&seal.to_le_bytes());
            match DrainManifest::from_bytes(&bad) {
                Err(Error::CheckpointInvalid { reason }) => {
                    assert!(reason.contains(&format!("{what} ")), "{what}: {reason}");
                    assert!(reason.contains("count exceeds payload"), "{what}: {reason}");
                }
                other => panic!("forged {what} count must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn save_is_atomic_and_load_types_missing_files() {
        let dir = std::env::temp_dir().join(format!("bitgen-drain-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.bgdm");
        let manifest = sample();
        manifest.save(&path).unwrap();
        assert_eq!(DrainManifest::load(&path).unwrap(), manifest);
        assert!(!path.with_extension("tmp").exists(), "temp file must be renamed away");
        let missing = dir.join("nope.bgdm");
        assert!(matches!(
            DrainManifest::load(&missing),
            Err(Error::CheckpointInvalid { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
