//! What the workloads run on: fixed rule sets, traffic chosen by
//! `--seed`, and the independent oracle's answer for that traffic.
//!
//! The rule sets are part of a workload's definition (a deployment's
//! rules do not change from run to run); the seed picks *which stretch
//! of that deployment's traffic* is replayed. Both come from
//! [`bitgen_workloads::generate`]: its generator emits the rules first
//! and then an endless traffic stream with the rules' witnesses planted
//! in it, so a longer `input_len` extends the same stream and the seed
//! only has to choose an offset into it.

use bitgen_regex::{multi_match_ends, Ast};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};

/// Seed of every rule set. Rule set `n` of a family uses `RULES_SEED + n`.
pub const RULES_SEED: u64 = 0xb17;
/// The traffic offset is drawn from this many corpus lengths.
const TRAFFIC_SPAN: u64 = 8;

/// A compiled-from-source rule set and one stretch of its traffic.
pub struct Deployment {
    pub patterns: Vec<String>,
    pub asts: Vec<Ast>,
    pub corpus: Vec<u8>,
}

impl Deployment {
    /// `rules` rules of `kind` (family member `member`) and `len` bytes
    /// of their traffic at the offset `seed` selects.
    pub fn new(kind: AppKind, rules: usize, member: u64, len: usize, seed: u64) -> Deployment {
        let offset =
            (splitmix64(seed ^ member.rotate_left(32)) % (TRAFFIC_SPAN * len as u64)) as usize;
        let mut generated = generate(
            kind,
            &WorkloadConfig {
                regexes: rules,
                input_len: offset + len,
                seed: RULES_SEED + member,
                witness_density: 0.05,
            },
        );
        Deployment {
            patterns: generated.patterns,
            asts: generated.asts,
            corpus: generated.input.split_off(offset),
        }
    }

    pub fn pattern_refs(&self) -> Vec<&str> {
        self.patterns.iter().map(String::as_str).collect()
    }

    /// The oracle's match ends over `input`, as the streaming and batch
    /// paths report them.
    pub fn oracle(&self, input: &[u8]) -> Vec<u64> {
        multi_match_ends(&self.asts, input)
            .into_iter()
            .map(|p| p as u64)
            .collect()
    }
}

/// Checks streamed replies against the oracle as they arrive: after
/// `consumed` bytes the replies so far must be exactly the oracle's
/// ends below `consumed` — equal on a complete pass, a prefix on a
/// partial one.
pub struct StreamCheck<'a> {
    oracle: &'a [u64],
    next: usize,
    consumed: u64,
}

impl<'a> StreamCheck<'a> {
    pub fn new(oracle: &'a [u64]) -> StreamCheck<'a> {
        StreamCheck {
            oracle,
            next: 0,
            consumed: 0,
        }
    }

    /// Feeds the reply to a push of `len` bytes; `false` on any
    /// difference from the oracle.
    pub fn push(&mut self, len: usize, ends: &[u64]) -> bool {
        self.consumed += len as u64;
        let due = self.oracle[self.next..].partition_point(|end| *end < self.consumed);
        let ok = self.oracle[self.next..self.next + due] == *ends;
        self.next += due;
        ok
    }

    /// Whether every oracle end has been seen (a complete pass).
    pub fn complete(&self) -> bool {
        self.next == self.oracle.len()
    }

    pub fn matches_seen(&self) -> u64 {
        self.next as u64
    }
}

/// The seed mixer (Steele, Lea, Flood 2014), so nearby seeds land far
/// apart in the traffic stream.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
