//! The shared compiled-pattern cache: compile once, serve everywhere.
//!
//! An IDS/WAF-shaped deployment has thousands of clients but a handful
//! of rule sets. Compiling a pattern set is the expensive step (parse,
//! group, lower, prepare the streaming tables; the daemon only streams,
//! so no transform pass or kernel is ever built), so the cache keeps one
//! [`RuleSet`] — a generation, its pattern list in order, and the engine
//! compiled from them — per rule set a stream can run, and every stream
//! on it holds the same record behind an [`Arc`]. The cache owns the one
//! [`EngineConfig`] its engines compile under, so the key is FNV-1a over
//! the generation and the patterns alone.
//!
//! Generations are part of the key on purpose: a hot-swapped engine at
//! generation `g+1` is a different rule timeline than a fresh compile
//! of the same patterns at generation 0 ([`bitgen::Error::GenerationMismatch`]
//! enforces this at resume), so they must never collide in the cache.
//! Any generation compiles ([`BitGen::compile_at`]): the engine a stream
//! runs after its swaps is its current patterns compiled at its current
//! generation.
//!
//! The 64-bit key only *finds* an entry. FNV-1a is not collision
//! resistant and patterns are tenant-supplied, so a lookup is a hit only
//! when the entry's generation and patterns agree — a crafted collision
//! recompiles, it never serves another tenant's engine.
//!
//! Eviction is LRU with a hard entry cap. Evicting an entry only
//! forgets it for future admissions — streams already scanning hold
//! their own `Arc` clone, so nothing live is ever torn down.

use bitgen::{BitGen, EngineConfig, Error};
use bitgen_ir::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// One served rule set: the pattern list a stream runs and the engine
/// compiled from it, which carries the generation. Shared behind an
/// [`Arc`] by the cache and every stream on it.
#[derive(Debug)]
pub(crate) struct RuleSet {
    pub patterns: Vec<String>,
    pub engine: BitGen,
}

impl RuleSet {
    /// `engine` beside the patterns it was compiled from.
    pub fn new(engine: BitGen, patterns: &[&str]) -> RuleSet {
        RuleSet { patterns: patterns.iter().map(|p| p.to_string()).collect(), engine }
    }

    pub fn generation(&self) -> u64 {
        self.engine.generation()
    }

    fn is(&self, generation: u64, patterns: &[&str]) -> bool {
        self.generation() == generation
            && self.patterns.iter().map(String::as_str).eq(patterns.iter().copied())
    }
}

/// The cache key of a rule set: FNV-1a over the generation and the
/// pattern list, each pattern length-prefixed so `["ab","c"]` and
/// `["a","bc"]` cannot collide.
fn key<S: AsRef<str>>(generation: u64, patterns: &[S]) -> u64 {
    let mut key = fnv1a(FNV_OFFSET, &generation.to_le_bytes());
    key = fnv1a(key, &(patterns.len() as u64).to_le_bytes());
    for pattern in patterns {
        key = fnv1a(key, &(pattern.as_ref().len() as u64).to_le_bytes());
        key = fnv1a(key, pattern.as_ref().as_bytes());
    }
    key
}

/// LRU cache of compiled rule sets. Not thread-safe by itself — the
/// service wraps it in a mutex (compiles run under the lock, which is
/// exactly the point: concurrent admissions of the same pattern set
/// wait for one compile instead of racing N).
#[derive(Debug)]
pub(crate) struct PatternCache {
    config: EngineConfig,
    capacity: usize,
    entries: HashMap<u64, Arc<RuleSet>>,
    /// Least-recently-used key at the front.
    order: VecDeque<u64>,
}

impl PatternCache {
    pub fn new(config: EngineConfig, capacity: usize) -> PatternCache {
        PatternCache {
            config,
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// Returns the cached rule set of `patterns` at `generation`, or
    /// compiles and caches one. The boolean is `true` on a hit; an entry
    /// under the same key that was compiled from something else is a
    /// miss, and is replaced. The third value counts entries evicted to
    /// make room (0 or 1).
    pub fn get_or_compile(
        &mut self,
        generation: u64,
        patterns: &[&str],
    ) -> Result<(Arc<RuleSet>, bool, u64), Error> {
        self.lookup(key(generation, patterns), generation, patterns)
    }

    fn lookup(
        &mut self,
        key: u64,
        generation: u64,
        patterns: &[&str],
    ) -> Result<(Arc<RuleSet>, bool, u64), Error> {
        if let Some(rules) = self.entries.get(&key).filter(|r| r.is(generation, patterns)) {
            let rules = Arc::clone(rules);
            self.touch(key);
            return Ok((rules, true, 0));
        }
        let engine = BitGen::compile_at(patterns, self.config.clone(), generation)?;
        let rules = Arc::new(RuleSet::new(engine, patterns));
        let evicted = self.put(key, Arc::clone(&rules));
        Ok((rules, false, evicted))
    }

    /// Publishes a rule set compiled elsewhere (the hot-swap path, whose
    /// engine was staged under this cache's config). Returns how many
    /// entries were evicted to make room.
    pub fn insert(&mut self, rules: Arc<RuleSet>) -> u64 {
        self.put(key(rules.generation(), &rules.patterns), rules)
    }

    fn put(&mut self, key: u64, rules: Arc<RuleSet>) -> u64 {
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        self.entries.remove(&old);
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        self.entries.insert(key, rules);
        self.touch(key);
        evicted
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> PatternCache {
        PatternCache::new(EngineConfig::default(), capacity)
    }

    #[test]
    fn keys_separate_patterns_and_generations() {
        let k = key(0, &["ab", "c"]);
        assert_eq!(k, key(0, &["ab".to_string(), "c".to_string()]));
        assert_ne!(k, key(0, &["a", "bc"]));
        assert_ne!(k, key(0, &["c", "ab"]));
        assert_ne!(k, key(1, &["ab", "c"]));
    }

    #[test]
    fn second_lookup_is_a_hit_on_the_same_engine() {
        let mut cache = cache(4);
        let (first, hit, _) = cache.get_or_compile(0, &["cat"]).unwrap();
        assert!(!hit);
        let (second, hit, _) = cache.get_or_compile(0, &["cat"]).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        // Any generation compiles, as its own entry.
        let (later, hit, _) = cache.get_or_compile(3, &["cat"]).unwrap();
        assert!(!hit && later.generation() == 3 && first.generation() == 0);
        assert_eq!(later.engine.stream_fingerprint(), first.engine.stream_fingerprint());
    }

    #[test]
    fn a_colliding_key_is_a_miss_never_another_rule_sets_engine() {
        // A tenant that crafts patterns hashing to a victim's key must
        // get an engine compiled from its own patterns.
        let mut cache = cache(4);
        let victim = key(0, &["cat"]);
        let (first, ..) = cache.get_or_compile(0, &["cat"]).unwrap();
        let (second, hit, evicted) = cache.lookup(victim, 0, &["dog"]).unwrap();
        assert!(!hit && !Arc::ptr_eq(&first, &second));
        assert_eq!((evicted, cache.len()), (0, 1), "the entry under the key is replaced");
        assert_eq!(second.engine.find(b"cat dog").unwrap().matches.positions(), vec![6]);
        // The replacement is now what the key holds; the victim recompiles.
        assert!(cache.lookup(victim, 0, &["dog"]).unwrap().1);
        assert!(!cache.get_or_compile(0, &["cat"]).unwrap().1);
        // The generation is part of the identity too, and the hot-swap
        // publication path stores the same identity.
        assert!(!cache.lookup(victim, 1, &["cat"]).unwrap().1);
        cache.insert(Arc::clone(&first));
        assert!(!cache.lookup(victim, 1, &["cat"]).unwrap().1);
    }

    #[test]
    fn evicts_least_recently_used_but_keeps_live_engines_alive() {
        let mut cache = cache(2);
        let (a, _, ev) = cache.get_or_compile(0, &["aa"]).unwrap();
        assert_eq!(ev, 0);
        cache.get_or_compile(0, &["bb"]).unwrap();
        // Touch `aa` so `bb` becomes the LRU victim.
        assert!(cache.get_or_compile(0, &["aa"]).unwrap().1);
        let (_, hit, ev) = cache.get_or_compile(0, &["cc"]).unwrap();
        assert!(!hit);
        assert_eq!(ev, 1);
        assert_eq!(cache.len(), 2);
        // `bb` was evicted, `aa` survived.
        assert!(cache.get_or_compile(0, &["aa"]).unwrap().1);
        let (_, hit, _) = cache.get_or_compile(0, &["bb"]).unwrap();
        assert!(!hit, "evicted entry must recompile");
        // The evicted-and-recompiled engine is a different allocation;
        // the Arc we held across the eviction still scans fine.
        assert_eq!(a.engine.find(b"aa").unwrap().match_count(), 1);
    }

    #[test]
    fn compile_failures_cache_nothing() {
        let mut cache = cache(4);
        assert!(cache.get_or_compile(0, &["(oops"]).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn engines_compile_under_the_caches_config() {
        let mut cache = PatternCache::new(EngineConfig::default().with_cta_threads(32), 4);
        let (rules, ..) = cache.get_or_compile(2, &["ab", "c"]).unwrap();
        assert_eq!(rules.engine.config().threads, 32);
        let staged = rules.engine.prepare_swap(&["cd"]).unwrap();
        assert_eq!(staged.engine().config().threads, 32, "a swap keeps the cache's config");
    }
}
