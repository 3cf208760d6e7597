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
//! Eviction is LRU with a hard entry cap. A set enters only once the
//! admission it was compiled for succeeds, so a refused one evicts
//! nothing. Evicting an entry only forgets it for future admissions —
//! streams already scanning hold their own `Arc` clone, so nothing live
//! is ever torn down.

use bitgen::{BitGen, EngineConfig, Error};
use bitgen_ir::{fnv1a, FNV_OFFSET};
use std::collections::{HashMap, VecDeque};
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
        let (entries, order) = (HashMap::new(), VecDeque::new());
        PatternCache { config, capacity: capacity.max(1), entries, order }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// The cached rule set of `patterns` at `generation`, now the most
    /// recently used; `None` when there is none, and when the entry under
    /// its key was compiled from something else.
    pub fn get(&mut self, generation: u64, patterns: &[&str]) -> Option<Arc<RuleSet>> {
        let key = key(generation, patterns);
        let rules = Arc::clone(self.entries.get(&key).filter(|r| r.is(generation, patterns))?);
        self.touch(key);
        Some(rules)
    }

    /// Compiles `patterns` at `generation` under the cache's config,
    /// caching nothing: [`PatternCache::insert`] publishes it.
    pub fn compile(&self, generation: u64, patterns: &[&str]) -> Result<RuleSet, Error> {
        Ok(RuleSet::new(BitGen::compile_at(patterns, self.config.clone(), generation)?, patterns))
    }

    /// Publishes a rule set compiled under this cache's config, replacing
    /// whatever its key held. Returns how many entries were evicted to
    /// make room (0 or 1).
    pub fn insert(&mut self, rules: Arc<RuleSet>) -> u64 {
        let key = key(rules.generation(), &rules.patterns);
        let mut evicted = 0;
        while !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let Some(old) = self.order.pop_front() else { break };
            self.entries.remove(&old);
            evicted += 1;
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

    /// What an admission does with the cache: the cached set (a hit), or
    /// one compiled and inserted; and the entries that evicted.
    fn get_or_compile(
        cache: &mut PatternCache,
        generation: u64,
        patterns: &[&str],
    ) -> Result<(Arc<RuleSet>, bool, u64), Error> {
        if let Some(rules) = cache.get(generation, patterns) {
            return Ok((rules, true, 0));
        }
        let rules = Arc::new(cache.compile(generation, patterns)?);
        let evicted = cache.insert(Arc::clone(&rules));
        Ok((rules, false, evicted))
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
        let (first, hit, _) = get_or_compile(&mut cache, 0, &["cat"]).unwrap();
        assert!(!hit);
        let (second, hit, _) = get_or_compile(&mut cache, 0, &["cat"]).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        // Any generation compiles, as its own entry.
        let (later, hit, _) = get_or_compile(&mut cache, 3, &["cat"]).unwrap();
        assert!(!hit && later.generation() == 3 && first.generation() == 0);
        assert_eq!(later.engine.stream_fingerprint(), first.engine.stream_fingerprint());
    }

    #[test]
    fn a_colliding_key_is_a_miss_never_another_rule_sets_engine() {
        // A tenant that crafts patterns hashing to a victim's key must
        // get an engine compiled from its own patterns.
        let mut cache = cache(4);
        let (cat, ..) = get_or_compile(&mut cache, 0, &["cat"]).unwrap();
        // As if `["dog"]` hashed to the cat set's key.
        cache.entries.insert(key(0, &["dog"]), Arc::clone(&cat));
        assert!(cache.get(0, &["dog"]).is_none(), "another set's entry is a miss");
        let (dog, hit, evicted) = get_or_compile(&mut cache, 0, &["dog"]).unwrap();
        assert!(!hit && !Arc::ptr_eq(&cat, &dog));
        assert_eq!((evicted, cache.len()), (0, 2), "the entry under the key is replaced");
        assert_eq!(dog.engine.find(b"cat dog").unwrap().matches.positions(), vec![6]);
        assert!(Arc::ptr_eq(&cache.get(0, &["dog"]).unwrap(), &dog));
        // The generation is part of the identity too.
        cache.entries.insert(key(1, &["cat"]), Arc::clone(&cat));
        assert!(cache.get(1, &["cat"]).is_none());
    }

    #[test]
    fn evicts_least_recently_used_but_keeps_live_engines_alive() {
        let mut cache = cache(2);
        let (a, _, ev) = get_or_compile(&mut cache, 0, &["aa"]).unwrap();
        assert_eq!(ev, 0);
        get_or_compile(&mut cache, 0, &["bb"]).unwrap();
        // Touch `aa` so `bb` becomes the LRU victim.
        assert!(get_or_compile(&mut cache, 0, &["aa"]).unwrap().1);
        let (_, hit, ev) = get_or_compile(&mut cache, 0, &["cc"]).unwrap();
        assert!(!hit);
        assert_eq!(ev, 1);
        assert_eq!(cache.len(), 2);
        // `bb` was evicted, `aa` survived.
        assert!(get_or_compile(&mut cache, 0, &["aa"]).unwrap().1);
        let (_, hit, _) = get_or_compile(&mut cache, 0, &["bb"]).unwrap();
        assert!(!hit, "evicted entry must recompile");
        // The evicted-and-recompiled engine is a different allocation;
        // the Arc we held across the eviction still scans fine.
        assert_eq!(a.engine.find(b"aa").unwrap().match_count(), 1);
    }

    #[test]
    fn compile_failures_cache_nothing() {
        let mut cache = cache(4);
        assert!(get_or_compile(&mut cache, 0, &["(oops"]).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn engines_compile_under_the_caches_config() {
        let mut cache = PatternCache::new(EngineConfig::default().with_cta_threads(32), 4);
        let (rules, ..) = get_or_compile(&mut cache, 2, &["ab", "c"]).unwrap();
        assert_eq!(rules.engine.config().threads, 32);
        let staged = rules.engine.prepare_swap(&["cd"]).unwrap();
        assert_eq!(staged.engine().config().threads, 32, "a swap keeps the cache's config");
    }
}
