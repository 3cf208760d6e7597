//! Drain-manifest compatibility: a version-1 manifest written by an
//! earlier build, whose entries hold each swapped stream's whole pattern
//! lineage, is adopted by this one, and each stream continues
//! bit-identically. An unswapped stream drained again writes the same
//! entry bytes it was read from.

use bitgen::BitGen;
use bitgen_serve::{AckRecord, DrainManifest, ScanService, ServeConfig};
use std::time::Duration;

/// Drained by the earlier build after this history:
///
/// * stream 1, tenant `acme`, on [`PLAIN`]: `PLAIN_PUSH` at offset 0;
/// * stream 2, tenant `zeta`, on `SWAPPED[0]`: `SWAPPED_PUSHES[0]`, a
///   swap to `SWAPPED[1]`, `SWAPPED_PUSHES[1]`, a swap to `SWAPPED[2]`,
///   then `SWAPPED_PUSHES[2]` at offset 18 — a three-set lineage at
///   generation 2.
const FIXTURE: &[u8] = include_bytes!("fixtures/drain_v1.bgdm");
const PLAIN: &[&str] = &["cat", "do+g"];
const PLAIN_PUSH: &[u8] = b"cat dooog cat";
const SWAPPED: [&[&str]; 3] =
    [&["a+b", "(ab)*c"], &["x[ab]{1,4}y"], &["GET /[a-z]+", "err(or)?"]];
const SWAPPED_PUSHES: [&[u8]; 3] = [b"aab ababc ", b"xaby xy ", b"GET /index err"];
/// What each push of that history returned.
const PLAIN_ENDS: &[u64] = &[2, 8, 12];
const SWAPPED_ENDS: [&[u64]; 3] = [&[2, 5, 7, 8], &[13], &[23, 24, 25, 26, 27, 31]];

/// Manifest bytes between the header (magic, version, entry count) and
/// the trailing seal: the entries.
fn entry_bytes(manifest: &[u8]) -> &[u8] {
    &manifest[10..manifest.len() - 8]
}

#[test]
fn previous_builds_manifest_reads_each_stream_as_its_current_rules() {
    let manifest = DrainManifest::from_bytes(FIXTURE).unwrap();
    let [plain, swapped] = &manifest.entries[..] else { panic!("two entries") };
    assert_eq!((plain.stream, plain.tenant.as_str(), plain.generation), (1, "acme", 0));
    assert_eq!(plain.patterns, PLAIN);
    assert_eq!(plain.last_ack, Some(AckRecord { offset: 0, ends: PLAIN_ENDS.to_vec() }));
    assert_eq!((swapped.stream, swapped.tenant.as_str(), swapped.generation), (2, "zeta", 2));
    assert_eq!(swapped.patterns, SWAPPED[2]);
    assert_eq!(swapped.last_ack, Some(AckRecord { offset: 18, ends: SWAPPED_ENDS[2].to_vec() }));
}

#[test]
fn previous_builds_manifest_adopts_and_each_stream_continues_bit_identically() {
    let service = ScanService::start(ServeConfig::default());
    let adopted = service.adopt_manifest(&DrainManifest::from_bytes(FIXTURE).unwrap()).unwrap();
    let streams: Vec<(u64, u64)> = adopted.iter().map(|a| (a.stream, a.generation)).collect();
    assert_eq!(streams, [(1, 0), (2, 2)]);

    // The replay windows came across: a lost ack re-pushed is answered
    // from the record, not rescanned.
    let plain_at = PLAIN_PUSH.len() as u64;
    let swapped_at: u64 = SWAPPED_PUSHES.iter().map(|p| p.len() as u64).sum();
    assert_eq!(service.push_chunk_at(1, Some(0), PLAIN_PUSH.to_vec()).unwrap(), PLAIN_ENDS);
    let last = SWAPPED_PUSHES[2].to_vec();
    assert_eq!(service.push_chunk_at(2, Some(18), last).unwrap(), SWAPPED_ENDS[2]);
    assert_eq!(service.metrics().pushes_replayed, 2);

    let plain_next = service.push_chunk_at(1, Some(plain_at), b"dog cat".to_vec()).unwrap();
    let swapped_next =
        service.push_chunk_at(2, Some(swapped_at), b" error GET /x".to_vec()).unwrap();

    // The same histories on standalone scanners, uninterrupted.
    let engine = BitGen::compile(PLAIN).unwrap();
    let mut scanner = engine.streamer().unwrap();
    assert_eq!(scanner.push(PLAIN_PUSH).unwrap(), PLAIN_ENDS);
    assert_eq!(plain_next, scanner.push(b"dog cat").unwrap());

    let first = BitGen::compile(SWAPPED[0]).unwrap();
    let second = first.prepare_swap(SWAPPED[1]).unwrap();
    let third = second.engine().prepare_swap(SWAPPED[2]).unwrap();
    let mut scanner = first.streamer().unwrap();
    assert_eq!(scanner.push(SWAPPED_PUSHES[0]).unwrap(), SWAPPED_ENDS[0]);
    scanner.commit_swap(&second).unwrap();
    assert_eq!(scanner.push(SWAPPED_PUSHES[1]).unwrap(), SWAPPED_ENDS[1]);
    scanner.commit_swap(&third).unwrap();
    assert_eq!(scanner.push(SWAPPED_PUSHES[2]).unwrap(), SWAPPED_ENDS[2]);
    assert_eq!(swapped_next, scanner.push(b" error GET /x").unwrap());
    assert!(!swapped_next.is_empty());
}

#[test]
fn re_draining_the_unswapped_stream_writes_the_previous_builds_entry_bytes() {
    let service = ScanService::start(ServeConfig::default());
    service.adopt_manifest(&DrainManifest::from_bytes(FIXTURE).unwrap()).unwrap();
    let (drained, forced) = service.drain(Duration::from_secs(5));
    assert!(!forced);
    let plain = DrainManifest { entries: vec![drained.entries[0].clone()] }.to_bytes();
    let plain = entry_bytes(&plain);
    assert_eq!(plain, &entry_bytes(FIXTURE)[..plain.len()]);

    // The swapped stream is written as its current rules alone — a
    // smaller entry — and a fresh successor adopts it from there.
    assert!(drained.to_bytes().len() < FIXTURE.len());
    let successor = ScanService::start(ServeConfig::default());
    let redrained = DrainManifest::from_bytes(&drained.to_bytes()).unwrap();
    assert_eq!(redrained, drained);
    successor.adopt_manifest(&redrained).unwrap();
}
