//! Random pattern construction.
//!
//! Each generator builds a regex string together with one *witness*: a
//! concrete string the regex matches. Witnesses are planted into the
//! generated inputs at a controlled density, guaranteeing real matches
//! without ever running an engine during generation.

use rand::rngs::SmallRng;
use rand::Rng;

/// The identity of one generated corpus: every parameter that
/// determined its bytes. Generators are seeded and deterministic, so
/// two workloads with equal metadata are byte-identical — a result
/// labelled with a [`WorkloadMeta::signature`] names exactly the
/// corpus it measured, reproducible on any host.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMeta {
    /// Application name (lowercased [`crate::AppKind`] name).
    pub app: String,
    /// Number of generated rules.
    pub regexes: usize,
    /// Input length in bytes.
    pub input_len: usize,
    /// RNG seed the generator ran under.
    pub seed: u64,
    /// Requested fraction of input bytes coming from planted witnesses.
    pub witness_density: f64,
}

impl WorkloadMeta {
    /// Compact one-token signature, e.g. `tcp/r16/i65536/d0.050/s0xb17`
    /// — the workload identifier `BENCH_*.json` entries record.
    pub fn signature(&self) -> String {
        format!(
            "{}/r{}/i{}/d{:.3}/s{:#x}",
            self.app, self.regexes, self.input_len, self.witness_density, self.seed
        )
    }
}

/// A regex under construction, paired with a matching witness.
#[derive(Debug, Clone, Default)]
pub struct PatternBuilder {
    regex: String,
    witness: Vec<u8>,
}

impl PatternBuilder {
    /// Creates an empty builder.
    pub fn new() -> PatternBuilder {
        PatternBuilder::default()
    }

    /// The regex source built so far.
    pub fn regex(&self) -> &str {
        &self.regex
    }

    /// Finishes, returning `(regex, witness)`.
    pub fn finish(self) -> (String, Vec<u8>) {
        (self.regex, self.witness)
    }

    /// Appends a literal string (escaped as needed).
    pub fn literal(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.regex.push_str(&escape_byte(b));
            self.witness.push(b);
        }
        self
    }

    /// Appends a random literal of `len` bytes drawn from `alphabet`.
    pub fn random_literal(&mut self, rng: &mut SmallRng, alphabet: &[u8], len: usize) -> &mut Self {
        for _ in 0..len {
            let b = alphabet[rng.random_range(0..alphabet.len())];
            self.regex.push_str(&escape_byte(b));
            self.witness.push(b);
        }
        self
    }

    /// Appends a character range `[lo-hi]`, witnessing a random member.
    pub fn range_class(&mut self, rng: &mut SmallRng, lo: u8, hi: u8) -> &mut Self {
        assert!(lo <= hi);
        self.regex.push_str(&format!("[{}-{}]", escape_in_class(lo), escape_in_class(hi)));
        self.witness.push(rng.random_range(lo..=hi));
        self
    }

    /// Appends `.` (any byte but newline), witnessing a given filler.
    pub fn dot(&mut self, witness: u8) -> &mut Self {
        debug_assert_ne!(witness, b'\n');
        self.regex.push('.');
        self.witness.push(witness);
        self
    }

    /// Appends a bounded repetition `(...){min,max}` of a literal piece,
    /// witnessing `min` copies.
    pub fn bounded_repeat(
        &mut self,
        rng: &mut SmallRng,
        alphabet: &[u8],
        piece_len: usize,
        min: u32,
        max: u32,
    ) -> &mut Self {
        let mut piece = PatternBuilder::new();
        piece.random_literal(rng, alphabet, piece_len);
        let (re, wit) = piece.finish();
        if piece_len == 1 {
            self.regex.push_str(&format!("{re}{{{min},{max}}}"));
        } else {
            self.regex.push_str(&format!("(?:{re}){{{min},{max}}}"));
        }
        for _ in 0..min {
            self.witness.extend_from_slice(&wit);
        }
        self
    }

    /// Appends a Kleene star over a short literal piece, witnessing
    /// `copies` repetitions (this is what produces `while` loops).
    pub fn star_piece(
        &mut self,
        rng: &mut SmallRng,
        alphabet: &[u8],
        piece_len: usize,
        copies: usize,
    ) -> &mut Self {
        let mut piece = PatternBuilder::new();
        piece.random_literal(rng, alphabet, piece_len);
        let (re, wit) = piece.finish();
        if piece_len == 1 {
            self.regex.push_str(&format!("{re}*"));
        } else {
            self.regex.push_str(&format!("(?:{re})*"));
        }
        for _ in 0..copies {
            self.witness.extend_from_slice(&wit);
        }
        self
    }

    /// Appends a star over a character range (e.g. `[a-z]*`), witnessing
    /// `copies` random members.
    pub fn star_class(
        &mut self,
        rng: &mut SmallRng,
        lo: u8,
        hi: u8,
        copies: usize,
    ) -> &mut Self {
        self.regex.push_str(&format!("[{}-{}]*", escape_in_class(lo), escape_in_class(hi)));
        for _ in 0..copies {
            self.witness.push(rng.random_range(lo..=hi));
        }
        self
    }

    /// Appends a bounded wildcard gap `.{0,max}` (the form ClamAV-style
    /// signatures use), witnessing `copies` filler bytes.
    ///
    /// # Panics
    ///
    /// Panics if `copies > max`.
    pub fn dot_gap(&mut self, filler: u8, max: u32, copies: usize) -> &mut Self {
        assert!(copies as u32 <= max);
        debug_assert_ne!(filler, b'\n');
        self.regex.push_str(&format!(".{{0,{max}}}"));
        self.witness.extend(std::iter::repeat_n(filler, copies));
        self
    }

    /// Appends `.*`, witnessing `copies` filler bytes.
    pub fn dot_star(&mut self, filler: u8, copies: usize) -> &mut Self {
        debug_assert_ne!(filler, b'\n');
        self.regex.push_str(".*");
        self.witness.extend(std::iter::repeat_n(filler, copies));
        self
    }

    /// Appends an alternation of random literals, witnessing the first.
    pub fn alternation(
        &mut self,
        rng: &mut SmallRng,
        alphabet: &[u8],
        branches: usize,
        branch_len: usize,
    ) -> &mut Self {
        assert!(branches >= 2);
        let mut first_wit: Option<Vec<u8>> = None;
        self.regex.push_str("(?:");
        for i in 0..branches {
            if i > 0 {
                self.regex.push('|');
            }
            let mut piece = PatternBuilder::new();
            piece.random_literal(rng, alphabet, branch_len);
            let (re, wit) = piece.finish();
            self.regex.push_str(&re);
            if first_wit.is_none() {
                first_wit = Some(wit);
            }
        }
        self.regex.push(')');
        self.witness.extend(first_wit.expect("at least one branch"));
        self
    }

    /// Appends an optional piece (witnessing its absence).
    pub fn optional_class(&mut self, lo: u8, hi: u8) -> &mut Self {
        self.regex.push_str(&format!("[{}-{}]?", escape_in_class(lo), escape_in_class(hi)));
        self
    }
}

/// Escapes a byte for use outside character classes.
pub fn escape_byte(b: u8) -> String {
    match b {
        b'\n' => r"\n".to_string(),
        b'\r' => r"\r".to_string(),
        b'\t' => r"\t".to_string(),
        _ if br".+*?()|[]{}^$\".contains(&b) => format!("\\{}", b as char),
        _ if b.is_ascii_graphic() || b == b' ' => (b as char).to_string(),
        _ => format!("\\x{b:02x}"),
    }
}

fn escape_in_class(b: u8) -> String {
    match b {
        b']' | b'\\' | b'^' | b'-' => format!("\\{}", b as char),
        _ if b.is_ascii_graphic() => (b as char).to_string(),
        _ => format!("\\x{b:02x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_regex::{match_ends, parse};
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    /// Every builder combination must produce a regex whose witness
    /// actually matches.
    fn assert_witness_matches(b: PatternBuilder) {
        let (re, wit) = b.finish();
        let ast = parse(&re).unwrap_or_else(|e| panic!("generated {re:?} fails to parse: {e}"));
        if wit.is_empty() {
            return;
        }
        let ends = match_ends(&ast, &wit);
        assert!(
            ends.contains(&(wit.len() - 1)),
            "witness {:?} does not match {re:?} to its end (ends: {ends:?})",
            String::from_utf8_lossy(&wit)
        );
    }

    #[test]
    fn literal_witness() {
        let mut b = PatternBuilder::new();
        b.literal(b"GET /index.html");
        assert_witness_matches(b);
    }

    #[test]
    fn binary_literal_escapes() {
        let mut b = PatternBuilder::new();
        b.literal(&[0x00, 0xff, b'\n', b'[', b'\\']);
        assert_witness_matches(b);
    }

    #[test]
    fn mixed_builders_witness() {
        let mut r = rng();
        let mut b = PatternBuilder::new();
        b.random_literal(&mut r, b"abcdef", 4)
            .range_class(&mut r, b'0', b'9')
            .bounded_repeat(&mut r, b"xy", 1, 2, 5)
            .star_piece(&mut r, b"mn", 2, 3)
            .optional_class(b'a', b'c')
            .literal(b"end");
        assert_witness_matches(b);
    }

    #[test]
    fn alternation_witness() {
        let mut r = rng();
        let mut b = PatternBuilder::new();
        b.alternation(&mut r, b"qrst", 4, 3).literal(b"!");
        assert_witness_matches(b);
    }

    #[test]
    fn dot_star_witness() {
        let mut b = PatternBuilder::new();
        b.literal(b"A").dot_star(b'_', 5).literal(b"B");
        assert_witness_matches(b);
    }

    #[test]
    fn star_class_witness() {
        let mut r = rng();
        let mut b = PatternBuilder::new();
        b.literal(b"x").star_class(&mut r, b'a', b'z', 4).literal(b"y");
        assert_witness_matches(b);
    }

    #[test]
    fn determinism_under_seed() {
        let build = || {
            let mut r = SmallRng::seed_from_u64(7);
            let mut b = PatternBuilder::new();
            b.random_literal(&mut r, b"abc", 8).range_class(&mut r, b'0', b'9');
            b.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn workload_meta_signature_is_stable() {
        let meta = WorkloadMeta {
            app: "tcp".to_string(),
            regexes: 16,
            input_len: 65536,
            seed: 0xb17,
            witness_density: 0.05,
        };
        assert_eq!(meta.signature(), "tcp/r16/i65536/d0.050/s0xb17");
    }

    #[test]
    fn escape_byte_forms() {
        assert_eq!(escape_byte(b'a'), "a");
        assert_eq!(escape_byte(b'.'), r"\.");
        assert_eq!(escape_byte(0x07), r"\x07");
        assert_eq!(escape_byte(b'\n'), r"\n");
    }
}
