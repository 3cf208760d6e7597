//! The shared compiled-pattern cache: compile once, serve everywhere.
//!
//! An IDS/WAF-shaped deployment has thousands of clients but a handful
//! of rule sets. Compiling a pattern set is the expensive step (parse,
//! group, lower, run the transform passes), so the service keys each
//! compiled [`BitGen`] by *what it would compile* — the pattern list in
//! order, the full [`EngineConfig`] fingerprint, and the rule-set
//! generation — and every admission asking for the same key shares one
//! engine behind an [`Arc`].
//!
//! Generations are part of the key on purpose: a hot-swapped engine at
//! generation `g+1` is a different rule timeline than a fresh compile
//! of the same patterns at generation 0 ([`bitgen::Error::GenerationMismatch`]
//! enforces this at resume), so they must never collide in the cache.
//!
//! Eviction is LRU with a hard entry cap. Evicting an entry only
//! forgets it for future admissions — streams already scanning hold
//! their own `Arc` clone, so nothing live is ever torn down.

use bitgen::{BitGen, EngineConfig, Error};
use bitgen_ir::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cache key for one compiled engine: FNV-1a over the config
/// fingerprint, the generation, and every pattern (length-prefixed so
/// `["ab","c"]` and `["a","bc"]` cannot collide).
pub(crate) fn cache_key(config: &EngineConfig, generation: u64, patterns: &[&str]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut absorb = |bytes: &[u8]| hash = fnv1a(hash, bytes);
    absorb(&config.fingerprint().to_le_bytes());
    absorb(&generation.to_le_bytes());
    absorb(&(patterns.len() as u64).to_le_bytes());
    for pattern in patterns {
        absorb(&(pattern.len() as u64).to_le_bytes());
        absorb(pattern.as_bytes());
    }
    hash
}

/// LRU cache of compiled engines. Not thread-safe by itself — the
/// service wraps it in a mutex (compiles run under the lock, which is
/// exactly the point: concurrent admissions of the same pattern set
/// wait for one compile instead of racing N).
#[derive(Debug)]
pub(crate) struct PatternCache {
    capacity: usize,
    entries: HashMap<u64, Arc<BitGen>>,
    /// Least-recently-used key at the front.
    order: VecDeque<u64>,
}

impl PatternCache {
    pub fn new(capacity: usize) -> PatternCache {
        PatternCache {
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

    /// Returns the cached engine for `key`, or compiles one with
    /// `compile` and caches it. The boolean is `true` on a hit. The
    /// third value counts entries evicted to make room (0 or 1).
    pub fn get_or_compile(
        &mut self,
        key: u64,
        compile: impl FnOnce() -> Result<BitGen, Error>,
    ) -> Result<(Arc<BitGen>, bool, u64), Error> {
        if let Some(engine) = self.entries.get(&key).cloned() {
            self.touch(key);
            return Ok((engine, true, 0));
        }
        let engine = Arc::new(compile()?);
        let evicted = self.insert(key, engine.clone());
        Ok((engine, false, evicted))
    }

    /// Inserts an already-compiled engine (hot-swap publication path).
    /// Returns how many entries were evicted to make room.
    pub fn insert(&mut self, key: u64, engine: Arc<BitGen>) -> u64 {
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
        self.entries.insert(key, engine);
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

    fn compile<'a>(patterns: &'a [&'a str]) -> impl FnOnce() -> Result<BitGen, Error> + 'a {
        move || BitGen::compile(patterns)
    }

    #[test]
    fn keys_separate_patterns_configs_and_generations() {
        let base = EngineConfig::default();
        let other = EngineConfig::default().with_cta_threads(32);
        let k = cache_key(&base, 0, &["ab", "c"]);
        assert_eq!(k, cache_key(&base, 0, &["ab", "c"]));
        assert_ne!(k, cache_key(&base, 0, &["a", "bc"]));
        assert_ne!(k, cache_key(&base, 0, &["c", "ab"]));
        assert_ne!(k, cache_key(&base, 1, &["ab", "c"]));
        assert_ne!(k, cache_key(&other, 0, &["ab", "c"]));
    }

    #[test]
    fn second_lookup_is_a_hit_on_the_same_engine() {
        let config = EngineConfig::default();
        let mut cache = PatternCache::new(4);
        let key = cache_key(&config, 0, &["cat"]);
        let (first, hit, _) = cache.get_or_compile(key, compile(&["cat"])).unwrap();
        assert!(!hit);
        let (second, hit, _) =
            cache.get_or_compile(key, || panic!("must not recompile")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn evicts_least_recently_used_but_keeps_live_engines_alive() {
        let config = EngineConfig::default();
        let mut cache = PatternCache::new(2);
        let ka = cache_key(&config, 0, &["aa"]);
        let kb = cache_key(&config, 0, &["bb"]);
        let kc = cache_key(&config, 0, &["cc"]);
        let (a, _, ev) = cache.get_or_compile(ka, compile(&["aa"])).unwrap();
        assert_eq!(ev, 0);
        cache.get_or_compile(kb, compile(&["bb"])).unwrap();
        // Touch `aa` so `bb` becomes the LRU victim.
        cache.get_or_compile(ka, || panic!("hit expected")).unwrap();
        let (_, hit, ev) = cache.get_or_compile(kc, compile(&["cc"])).unwrap();
        assert!(!hit);
        assert_eq!(ev, 1);
        assert_eq!(cache.len(), 2);
        // `bb` was evicted, `aa` survived.
        assert!(cache.get_or_compile(ka, || panic!("hit expected")).unwrap().1);
        let (_, hit, _) = cache.get_or_compile(kb, compile(&["bb"])).unwrap();
        assert!(!hit, "evicted entry must recompile");
        // The evicted-and-recompiled engine is a different allocation;
        // the Arc we held across the eviction still scans fine.
        assert_eq!(a.find(b"aa").unwrap().match_count(), 1);
    }

    #[test]
    fn compile_failures_cache_nothing() {
        let config = EngineConfig::default();
        let mut cache = PatternCache::new(4);
        let key = cache_key(&config, 0, &["(oops"]);
        assert!(cache.get_or_compile(key, compile(&["(oops"])).is_err());
        assert_eq!(cache.len(), 0);
    }
}
