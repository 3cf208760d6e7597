//! The shared compiled-pattern cache: compile once, serve everywhere.
//!
//! An IDS/WAF-shaped deployment has thousands of clients but a handful
//! of rule sets. Compiling a pattern set is the expensive step (parse,
//! group, lower, prepare the streaming tables; the daemon only streams,
//! so no transform pass or kernel is ever built), so the service keys
//! each compiled [`BitGen`] by *what it would compile* — the pattern list
//! in order, the full [`EngineConfig`] fingerprint, and the rule-set
//! generation — and every admission asking for the same rule set shares
//! one engine behind an [`Arc`].
//!
//! Generations are part of the key on purpose: a hot-swapped engine at
//! generation `g+1` is a different rule timeline than a fresh compile
//! of the same patterns at generation 0 ([`bitgen::Error::GenerationMismatch`]
//! enforces this at resume), so they must never collide in the cache.
//!
//! The 64-bit key only *finds* an entry. FNV-1a is not collision
//! resistant and patterns are tenant-supplied, so every entry keeps what
//! it was compiled from and a lookup is a hit only when that agrees —
//! a crafted collision recompiles, it never serves another tenant's
//! engine.
//!
//! Eviction is LRU with a hard entry cap. Evicting an entry only
//! forgets it for future admissions — streams already scanning hold
//! their own `Arc` clone, so nothing live is ever torn down.

use bitgen::{BitGen, EngineConfig, Error};
use bitgen_ir::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// What one engine is compiled from — the config fingerprint, the
/// generation and the pattern list in order — with its cache key: FNV-1a
/// over all three (patterns length-prefixed so `["ab","c"]` and
/// `["a","bc"]` cannot collide).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RuleSetId<'a> {
    key: u64,
    config: u64,
    generation: u64,
    patterns: &'a [&'a str],
}

impl<'a> RuleSetId<'a> {
    pub fn new(config: &EngineConfig, generation: u64, patterns: &'a [&'a str]) -> RuleSetId<'a> {
        let config = config.fingerprint();
        let mut key = FNV_OFFSET;
        let mut absorb = |bytes: &[u8]| key = fnv1a(key, bytes);
        absorb(&config.to_le_bytes());
        absorb(&generation.to_le_bytes());
        absorb(&(patterns.len() as u64).to_le_bytes());
        for pattern in patterns {
            absorb(&(pattern.len() as u64).to_le_bytes());
            absorb(pattern.as_bytes());
        }
        RuleSetId { key, config, generation, patterns }
    }
}

/// A cached engine beside what it was compiled from.
#[derive(Debug)]
struct Entry {
    config: u64,
    generation: u64,
    patterns: Vec<String>,
    engine: Arc<BitGen>,
}

impl Entry {
    fn is(&self, id: &RuleSetId<'_>) -> bool {
        self.config == id.config
            && self.generation == id.generation
            && self.patterns.iter().map(String::as_str).eq(id.patterns.iter().copied())
    }
}

/// LRU cache of compiled engines. Not thread-safe by itself — the
/// service wraps it in a mutex (compiles run under the lock, which is
/// exactly the point: concurrent admissions of the same pattern set
/// wait for one compile instead of racing N).
#[derive(Debug)]
pub(crate) struct PatternCache {
    capacity: usize,
    entries: HashMap<u64, Entry>,
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

    /// Returns the cached engine of `id`, or compiles one with `compile`
    /// and caches it. The boolean is `true` on a hit; an entry under
    /// `id`'s key that was compiled from something else is a miss, and
    /// is replaced. The third value counts entries evicted to make room
    /// (0 or 1).
    pub fn get_or_compile(
        &mut self,
        id: RuleSetId<'_>,
        compile: impl FnOnce() -> Result<BitGen, Error>,
    ) -> Result<(Arc<BitGen>, bool, u64), Error> {
        if let Some(entry) = self.entries.get(&id.key).filter(|e| e.is(&id)) {
            let engine = Arc::clone(&entry.engine);
            self.touch(id.key);
            return Ok((engine, true, 0));
        }
        let engine = Arc::new(compile()?);
        let evicted = self.insert(id, engine.clone());
        Ok((engine, false, evicted))
    }

    /// Inserts an already-compiled engine (hot-swap publication path) as
    /// the entry of `id`. Returns how many entries were evicted to make
    /// room.
    pub fn insert(&mut self, id: RuleSetId<'_>, engine: Arc<BitGen>) -> u64 {
        let mut evicted = 0;
        if !self.entries.contains_key(&id.key) {
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
        let patterns = id.patterns.iter().map(|p| p.to_string()).collect();
        let entry = Entry { config: id.config, generation: id.generation, patterns, engine };
        self.entries.insert(id.key, entry);
        self.touch(id.key);
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

    fn id<'a>(patterns: &'a [&'a str]) -> RuleSetId<'a> {
        RuleSetId::new(&EngineConfig::default(), 0, patterns)
    }

    #[test]
    fn keys_separate_patterns_configs_and_generations() {
        let base = EngineConfig::default();
        let other = EngineConfig::default().with_cta_threads(32);
        let k = RuleSetId::new(&base, 0, &["ab", "c"]).key;
        assert_eq!(k, RuleSetId::new(&base, 0, &["ab", "c"]).key);
        assert_ne!(k, RuleSetId::new(&base, 0, &["a", "bc"]).key);
        assert_ne!(k, RuleSetId::new(&base, 0, &["c", "ab"]).key);
        assert_ne!(k, RuleSetId::new(&base, 1, &["ab", "c"]).key);
        assert_ne!(k, RuleSetId::new(&other, 0, &["ab", "c"]).key);
    }

    #[test]
    fn second_lookup_is_a_hit_on_the_same_engine() {
        let mut cache = PatternCache::new(4);
        let (first, hit, _) = cache.get_or_compile(id(&["cat"]), compile(&["cat"])).unwrap();
        assert!(!hit);
        let (second, hit, _) =
            cache.get_or_compile(id(&["cat"]), || panic!("must not recompile")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn a_colliding_key_is_a_miss_never_another_rule_sets_engine() {
        // A tenant that crafts patterns hashing to a victim's key must
        // get an engine compiled from its own patterns.
        let mut cache = PatternCache::new(4);
        let victim = id(&["cat"]);
        let (first, ..) = cache.get_or_compile(victim, compile(&["cat"])).unwrap();
        let base = EngineConfig::default();
        let colliding = [
            RuleSetId { key: victim.key, ..id(&["dog"]) },
            RuleSetId { key: victim.key, ..RuleSetId::new(&base, 1, &["cat"]) },
            RuleSetId { key: victim.key, ..RuleSetId::new(&base.clone().with_cta_threads(32), 0, &["cat"]) },
        ];
        let (second, hit, evicted) = cache.get_or_compile(colliding[0], compile(&["dog"])).unwrap();
        assert!(!hit && !Arc::ptr_eq(&first, &second));
        assert_eq!((evicted, cache.len()), (0, 1), "the entry under the key is replaced");
        assert_eq!(second.find(b"cat dog").unwrap().matches.positions(), vec![6]);
        // The replacement is now what the key holds; the victim recompiles.
        assert!(cache.get_or_compile(colliding[0], || panic!("hit expected")).unwrap().1);
        assert!(!cache.get_or_compile(victim, compile(&["cat"])).unwrap().1);
        // Generation and config are part of the identity too, and the
        // hot-swap publication path stores the same identity.
        for other in &colliding[1..] {
            assert!(!cache.get_or_compile(*other, compile(&["cat"])).unwrap().1);
            cache.insert(victim, Arc::clone(&first));
            assert!(!cache.get_or_compile(*other, compile(&["cat"])).unwrap().1);
        }
    }

    #[test]
    fn evicts_least_recently_used_but_keeps_live_engines_alive() {
        let mut cache = PatternCache::new(2);
        let (a, _, ev) = cache.get_or_compile(id(&["aa"]), compile(&["aa"])).unwrap();
        assert_eq!(ev, 0);
        cache.get_or_compile(id(&["bb"]), compile(&["bb"])).unwrap();
        // Touch `aa` so `bb` becomes the LRU victim.
        cache.get_or_compile(id(&["aa"]), || panic!("hit expected")).unwrap();
        let (_, hit, ev) = cache.get_or_compile(id(&["cc"]), compile(&["cc"])).unwrap();
        assert!(!hit);
        assert_eq!(ev, 1);
        assert_eq!(cache.len(), 2);
        // `bb` was evicted, `aa` survived.
        assert!(cache.get_or_compile(id(&["aa"]), || panic!("hit expected")).unwrap().1);
        let (_, hit, _) = cache.get_or_compile(id(&["bb"]), compile(&["bb"])).unwrap();
        assert!(!hit, "evicted entry must recompile");
        // The evicted-and-recompiled engine is a different allocation;
        // the Arc we held across the eviction still scans fine.
        assert_eq!(a.find(b"aa").unwrap().match_count(), 1);
    }

    #[test]
    fn compile_failures_cache_nothing() {
        let mut cache = PatternCache::new(4);
        assert!(cache.get_or_compile(id(&["(oops"]), compile(&["(oops"])).is_err());
        assert_eq!(cache.len(), 0);
    }
}
