//! The drain manifest: every open stream of a draining daemon,
//! checkpointed into one sealed, versioned byte blob a successor
//! daemon adopts at startup.
//!
//! A drained stream needs more than its [`bitgen::StreamCheckpoint`]:
//! the successor must rebuild the *engine* the checkpoint belongs to,
//! and a post-hot-swap engine cannot be rebuilt from a pattern set
//! alone (a fresh compile is generation 0 by definition). So each
//! entry records the stream's **pattern lineage** — the generation-0
//! set plus each swap's set, in order — which
//! [`bitgen::BitGen::compile_lineage`] replays to land on the exact
//! generation the checkpoint demands. The entry also records the
//! stream's last push acknowledgement, so a client whose final ack was
//! lost in the crash gets the idempotent replay instead of a double
//! scan, *across* the restart.
//!
//! The byte format is length-prefixed throughout, versioned, and
//! sealed with the same FNV-1a digest discipline as the checkpoint
//! format itself: any truncation, splice, or bit flip is a typed
//! [`Error::CheckpointInvalid`], never a silently wrong adoption.

use crate::service::StreamId;
use bitgen::Error;
use bitgen_ir::{fnv1a, FNV_OFFSET};
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
    /// Generation of `lineage[0]`'s engine when the stream entered the
    /// drained service. `0` means the lineage is complete from the
    /// original compile and the engine is rebuildable anywhere;
    /// non-zero means the stream was itself adopted mid-lineage and
    /// only a cache holding that generation can revive it.
    pub base_generation: u64,
    /// Pattern sets from `base_generation` onward: the set compiled at
    /// `base_generation`, then each hot swap's set in order.
    pub lineage: Vec<Vec<String>>,
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

/// Bounds-checked little-endian reader over the manifest payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn invalid(what: &str) -> Error {
        Error::CheckpointInvalid { reason: format!("drain manifest: {what}") }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| Self::invalid("truncated"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, Error> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized take")))
    }

    fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized take")))
    }

    fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized take")))
    }

    fn blob(&mut self) -> Result<&'a [u8], Error> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String, Error> {
        String::from_utf8(self.blob()?.to_vec())
            .map_err(|_| Self::invalid("string field is not UTF-8"))
    }
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
            out.extend_from_slice(&entry.generation.to_le_bytes());
            out.extend_from_slice(&entry.base_generation.to_le_bytes());
            put_bytes(&mut out, entry.tenant.as_bytes());
            out.extend_from_slice(&(entry.lineage.len() as u32).to_le_bytes());
            for patterns in &entry.lineage {
                out.extend_from_slice(&(patterns.len() as u32).to_le_bytes());
                for pattern in patterns {
                    put_bytes(&mut out, pattern.as_bytes());
                }
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
    /// truncation, or seal mismatch. The inner checkpoints are *not*
    /// resumed here — that validation happens at adoption, per stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<DrainManifest, Error> {
        if bytes.len() < MAGIC.len() + 2 + 4 + 8 {
            return Err(Cursor::invalid("shorter than the fixed header"));
        }
        let (payload, seal_bytes) = bytes.split_at(bytes.len() - 8);
        let sealed = u64::from_le_bytes(seal_bytes.try_into().expect("split at 8"));
        if fnv1a(FNV_OFFSET, payload) != sealed {
            return Err(Cursor::invalid("seal mismatch (corrupt or tampered)"));
        }
        let mut c = Cursor { bytes: payload, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(Cursor::invalid("bad magic"));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(Cursor::invalid(&format!(
                "unsupported version {version} (this build reads {VERSION})"
            )));
        }
        let count = c.u32()? as usize;
        let mut entries = Vec::new();
        for _ in 0..count {
            let stream = c.u64()?;
            let generation = c.u64()?;
            let base_generation = c.u64()?;
            let tenant = c.string()?;
            let sets = c.u32()? as usize;
            // Bound the preallocation by what the payload could hold.
            if sets > payload.len() {
                return Err(Cursor::invalid("lineage count exceeds payload"));
            }
            let mut lineage = Vec::with_capacity(sets);
            for _ in 0..sets {
                let n = c.u32()? as usize;
                if n > payload.len() {
                    return Err(Cursor::invalid("pattern count exceeds payload"));
                }
                let mut patterns = Vec::with_capacity(n);
                for _ in 0..n {
                    patterns.push(c.string()?);
                }
                lineage.push(patterns);
            }
            let checkpoint = c.blob()?.to_vec();
            let last_ack = match c.take(1)?[0] {
                0 => None,
                1 => {
                    let offset = c.u64()?;
                    let n = c.u32()? as usize;
                    if n > payload.len() {
                        return Err(Cursor::invalid("ack end count exceeds payload"));
                    }
                    let mut ends = Vec::with_capacity(n);
                    for _ in 0..n {
                        ends.push(c.u64()?);
                    }
                    Some(AckRecord { offset, ends })
                }
                other => {
                    return Err(Cursor::invalid(&format!("bad ack tag {other}")));
                }
            };
            entries.push(DrainEntry {
                stream,
                tenant,
                generation,
                base_generation,
                lineage,
                checkpoint,
                last_ack,
            });
        }
        if c.pos != payload.len() {
            return Err(Cursor::invalid("trailing bytes after the last entry"));
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
                    base_generation: 0,
                    lineage: vec![
                        vec!["cat".to_string()],
                        vec!["dog".to_string(), "a+b".to_string()],
                        vec!["zebra".to_string()],
                    ],
                    checkpoint: vec![1, 2, 3, 4, 5],
                    last_ack: Some(AckRecord { offset: 4096, ends: vec![4100, 4110] }),
                },
                DrainEntry {
                    stream: 9,
                    tenant: "β-tenant".to_string(),
                    generation: 0,
                    base_generation: 0,
                    lineage: vec![vec!["x".to_string()]],
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
