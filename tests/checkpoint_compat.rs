//! Fingerprint and checkpoint compatibility are pinned, not assumed.
//!
//! The engine stores its stream fingerprint instead of re-hashing the
//! program text on every resume and checkpoint, so three things must
//! hold: the stored value *is* the from-scratch hash (on every way an
//! engine comes to exist), its value for a fixed rule set never moves
//! (a drain manifest or `bitgrep --checkpoint` file written by an older
//! build must still resume), and a version-3 checkpoint written by the
//! build before the fingerprint was stored resumes and continues
//! bit-identically.

use bitgen::{BitGen, EngineConfig, StreamCheckpoint};
use bitgen_ir::pretty;
use bitgen_workloads::{generate, AppKind, WorkloadConfig};
use proptest::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fingerprint as checkpoint format 3 defines it: the format version,
/// the group count, then each streaming program's rendering and stream
/// count.
fn fingerprint_from_scratch(engine: &BitGen) -> u64 {
    let programs = engine.stream_programs();
    let mut hash = fnv(FNV_OFFSET, &3u32.to_le_bytes());
    hash = fnv(hash, &(programs.len() as u64).to_le_bytes());
    for prepared in programs {
        let program = prepared.program();
        hash = fnv(hash, pretty(program).as_bytes());
        hash = fnv(hash, &u64::from(program.num_streams()).to_le_bytes());
    }
    hash
}

const POOL: &[&str] =
    &["a+b", "(ab)*c", ".{0,3}x", "a{2,}", "ab", "a(bc)*d", "(a|bb)+c", "x[ab]{1,4}y"];

fn arb_patterns() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(POOL.to_vec()), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn stored_fingerprint_is_the_from_scratch_hash(
        first in arb_patterns(),
        second in arb_patterns(),
        match_star in any::<bool>(),
    ) {
        let config = EngineConfig::default().with_match_star(match_star);
        let engine = BitGen::compile_with(&first, config.clone()).unwrap();
        prop_assert_eq!(engine.stream_fingerprint(), fingerprint_from_scratch(&engine));
        prop_assert_eq!(engine.clone().stream_fingerprint(), engine.stream_fingerprint());

        let staged = engine.prepare_swap(&second).unwrap();
        prop_assert_eq!(
            staged.engine().stream_fingerprint(),
            fingerprint_from_scratch(staged.engine())
        );
        let rebuilt = BitGen::compile_at(&second, config.clone(), 1).unwrap();
        prop_assert_eq!(rebuilt.stream_fingerprint(), staged.engine().stream_fingerprint());

        // Same programs ⇔ same fingerprint.
        let other = BitGen::compile_with(&second, config).unwrap();
        let same_programs = engine
            .stream_programs()
            .iter()
            .map(|p| p.program())
            .eq(other.stream_programs().iter().map(|p| p.program()));
        prop_assert_eq!(
            engine.stream_fingerprint() == other.stream_fingerprint(),
            same_programs,
            "{:?} vs {:?}", first, second
        );
    }
}

/// The rule set and stream behind the golden values below, which were
/// produced by the build before the fingerprint became a stored field.
const GOLDEN_PATTERNS: &[&str] = &["a+b", "(a|bb)+c", "c{3,}d", "x[ab]{1,4}y", "cat", ".{0,3}x"];
const GOLDEN_FINGERPRINT: u64 = 0x83cf_8159_0c04_1126;
/// `to_bytes()` after [`golden_input`]`[..GOLDEN_CUT]` in 53-byte pushes.
const GOLDEN_CHECKPOINT: &[u8] = include_bytes!("fixtures/stream_v3.ckpt");
const GOLDEN_CUT: usize = 371;
/// FNV-1a of `to_bytes()` once the rest has followed in 37-byte pushes.
const GOLDEN_FINAL_DIGEST: u64 = 0x16e9_5129_a018_a67a;

fn golden_input() -> Vec<u8> {
    (0..700u32).map(|i| b"aabbccdxy. cat"[i as usize * 5 % 14]).collect()
}

#[test]
fn fingerprint_of_a_fixed_rule_set_is_golden() {
    let engine = BitGen::compile(GOLDEN_PATTERNS).unwrap();
    assert_eq!(engine.stream_fingerprint(), GOLDEN_FINGERPRINT);
}

#[test]
fn this_build_writes_the_previous_builds_checkpoint_bytes() {
    let engine = BitGen::compile(GOLDEN_PATTERNS).unwrap();
    let mut scanner = engine.streamer().unwrap();
    for chunk in golden_input()[..GOLDEN_CUT].chunks(53) {
        scanner.push(chunk).unwrap();
    }
    assert_eq!(scanner.checkpoint().to_bytes(), GOLDEN_CHECKPOINT);
    assert_eq!(scanner.into_checkpoint().to_bytes(), GOLDEN_CHECKPOINT);
}

#[test]
fn previous_builds_checkpoint_resumes_and_continues_bit_identically() {
    let engine = BitGen::compile(GOLDEN_PATTERNS).unwrap();
    let input = golden_input();
    let checkpoint = StreamCheckpoint::from_bytes(GOLDEN_CHECKPOINT).unwrap();
    assert_eq!(checkpoint.fingerprint(), GOLDEN_FINGERPRINT);
    assert_eq!(checkpoint.consumed(), GOLDEN_CUT as u64);
    let mut scanner = engine.resume(&checkpoint).unwrap();
    let mut ends = Vec::new();
    for chunk in input[GOLDEN_CUT..].chunks(37) {
        ends.extend(scanner.push(chunk).unwrap());
    }
    let batch: Vec<u64> = engine
        .find(&input)
        .unwrap()
        .matches
        .positions()
        .into_iter()
        .filter(|&end| end >= GOLDEN_CUT)
        .map(|end| end as u64)
        .collect();
    assert_eq!(ends, batch);
    assert_eq!(fnv(FNV_OFFSET, &scanner.checkpoint().to_bytes()), GOLDEN_FINAL_DIGEST);
}

/// Streams `input[..cut]` through `engine` and checkpoints.
fn checkpoint_after(engine: &BitGen, input: &[u8], cut: usize) -> StreamCheckpoint {
    let mut scanner = engine.streamer().unwrap();
    for chunk in input[..cut].chunks(13) {
        scanner.push(chunk).unwrap();
    }
    scanner.into_checkpoint()
}

#[test]
fn a_checkpoint_does_not_cross_the_match_star_seam_silently() {
    let input = golden_input();
    let star_config = EngineConfig::default().with_match_star(true);
    // A class star lowers to an addition under `match_star` and to a
    // fixpoint loop otherwise: different programs, so the resume is
    // refused with the typed error instead of carrying the wrong slots.
    let plain = BitGen::compile(&["a*b"]).unwrap();
    let star = BitGen::compile_with(&["a*b"], star_config.clone()).unwrap();
    assert_ne!(plain.stream_fingerprint(), star.stream_fingerprint());
    let checkpoint = checkpoint_after(&plain, &input, GOLDEN_CUT);
    assert_eq!(
        star.resume(&checkpoint).err(),
        Some(bitgen::Error::CheckpointMismatch {
            expected: star.stream_fingerprint(),
            found: plain.stream_fingerprint(),
        })
    );
    // Without a class star the two lowerings are one program, and the
    // checkpoint resumes and continues exactly.
    let rules = ["ab", "(ab)*c", "x[ab]{1,4}y", "cat"];
    let plain = BitGen::compile(&rules).unwrap();
    let star = BitGen::compile_with(&rules, star_config).unwrap();
    assert_eq!(plain.stream_fingerprint(), star.stream_fingerprint());
    let mut scanner = star.resume(&checkpoint_after(&plain, &input, GOLDEN_CUT)).unwrap();
    let mut ends = Vec::new();
    for chunk in input[GOLDEN_CUT..].chunks(37) {
        ends.extend(scanner.push(chunk).unwrap());
    }
    let batch: Vec<u64> = (star.find(&input).unwrap().matches.positions().into_iter())
        .filter(|&end| end >= GOLDEN_CUT)
        .map(|end| end as u64)
        .collect();
    assert!(!batch.is_empty());
    assert_eq!(ends, batch);
}

/// The rules of `count` rules of `kind`, family member `member`: what the
/// benchmark's deployments compile (rule set `n` is seeded `0xb17 + n`).
fn rules_of(kind: AppKind, count: usize, member: u64) -> Vec<String> {
    generate(
        kind,
        &WorkloadConfig { regexes: count, input_len: 64, seed: 0xb17 + member, witness_density: 0.05 },
    )
    .patterns
}

/// The stream fingerprint and an FNV-1a digest of every group's listing,
/// in group order, of the default compile of `rules`.
fn pins_of(rules: &[String]) -> (u64, u64) {
    let patterns: Vec<&str> = rules.iter().map(String::as_str).collect();
    let engine = BitGen::compile_with(&patterns, EngineConfig::default()).unwrap();
    let listings = (engine.stream_programs().iter())
        .fold(FNV_OFFSET, |hash, prepared| fnv(hash, pretty(prepared.program()).as_bytes()));
    (engine.stream_fingerprint(), listings)
}

/// Every application at 32 rules, then the six Snort ×64 sets a churned
/// pattern cache rotates through: `(fingerprint, listing digest)`, as the
/// build before the one-writer listing rendered them. A faster renderer,
/// optimiser or class table must change neither.
const APP_PINS: [(u64, u64); 10] = [
    (0xf483_8816_fe4a_9fe1, 0x21a6_3d03_4e95_5380),
    (0x6e8a_e3f0_4bca_9d01, 0x1c2f_b1e1_47b8_18b6),
    (0xe1e1_6652_e63f_c3b3, 0xfb4b_e532_18c1_921f),
    (0x41ea_db0d_e88d_2bf0, 0x550e_9ef8_c896_c1c0),
    (0x0c50_a5de_2426_2e1f, 0x141c_7896_e62c_6c60),
    (0x6ff4_02c4_46ed_c50e, 0x231f_f3f7_61c6_1aad),
    (0x63ba_4eb7_cc4f_329e, 0xe39d_3267_61b4_96e8),
    (0x3aa4_3e4b_0093_ab92, 0x5bf8_29a0_e4a7_4592),
    (0x8403_0584_f878_a554, 0x3767_d7c8_1103_1277),
    (0x73e2_da37_90ae_3d60, 0xdb03_106e_bdab_4b07),
];
const SNORT_64_PINS: [(u64, u64); 6] = [
    (0xdb34_3ee1_bcbb_71b4, 0x9640_91e7_1e79_18bc),
    (0x38b0_b93b_34b0_c809, 0xb7a8_7eb2_ee20_d8fe),
    (0x1823_1d1c_7d7a_8d55, 0x626c_fbef_1ab1_8ccd),
    (0x66ff_84a6_0115_0b6b, 0x6734_81f7_5153_ca9b),
    (0xa866_7ce7_f88b_17d9, 0x4849_10d5_4147_ea0a),
    (0xb25e_2791_4e36_b939, 0xfcf2_fb4d_d29b_9e8a),
];

#[test]
fn fingerprints_and_listings_of_every_application_are_golden() {
    let got: Vec<(u64, u64)> =
        AppKind::ALL.iter().map(|&kind| pins_of(&rules_of(kind, 32, 0))).collect();
    assert_eq!(got, APP_PINS);
}

#[test]
fn fingerprints_and_listings_of_the_churned_snort_sets_are_golden() {
    let got: Vec<(u64, u64)> =
        (1..=6).map(|member| pins_of(&rules_of(AppKind::Snort, 64, member))).collect();
    assert_eq!(got, SNORT_64_PINS);
}
