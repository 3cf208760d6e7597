//! Byte classes: sets of byte values, the alphabet of character classes.
//!
//! A [`ByteSet`] is a 256-bit set over byte values. It is the canonical
//! representation of a character class (`[a-z0-9]`, `.`, `\d`, a literal
//! byte, ...) after parsing. The bitstream compiler consumes `ByteSet`s and
//! turns them into boolean circuits over the eight transposed basis
//! bitstreams.

use std::fmt;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};

/// A set of byte values, represented as a 256-bit bitmap.
///
/// This is the normal form of every character class in a parsed regex.
///
/// # Examples
///
/// ```
/// use bitgen_regex::ByteSet;
///
/// let digits = ByteSet::range(b'0', b'9');
/// assert!(digits.contains(b'5'));
/// assert!(!digits.contains(b'a'));
/// assert_eq!(digits.len(), 10);
/// ```
///
/// The ordering is total but otherwise arbitrary (by membership words);
/// it exists so sorted class tables can be searched.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ByteSet {
    words: [u64; 4],
}

impl ByteSet {
    /// The empty set.
    pub const EMPTY: ByteSet = ByteSet { words: [0; 4] };

    /// The full set containing all 256 byte values.
    pub const FULL: ByteSet = ByteSet { words: [u64::MAX; 4] };

    /// Creates an empty set.
    pub fn new() -> ByteSet {
        ByteSet::EMPTY
    }

    /// Creates a set containing a single byte.
    pub fn singleton(b: u8) -> ByteSet {
        let mut s = ByteSet::EMPTY;
        s.insert(b);
        s
    }

    /// Creates a set containing the inclusive range `lo..=hi`.
    ///
    /// An inverted range (`lo > hi`) yields the empty set.
    pub fn range(lo: u8, hi: u8) -> ByteSet {
        let mut s = ByteSet::EMPTY;
        if lo <= hi {
            for b in lo..=hi {
                s.insert(b);
            }
        }
        s
    }

    /// Creates a set from an iterator of bytes.
    pub fn from_bytes<I: IntoIterator<Item = u8>>(bytes: I) -> ByteSet {
        let mut s = ByteSet::EMPTY;
        for b in bytes {
            s.insert(b);
        }
        s
    }

    /// The `.` class: every byte except `\n`.
    pub fn dot() -> ByteSet {
        let mut s = ByteSet::FULL;
        s.remove(b'\n');
        s
    }

    /// ASCII digits `[0-9]`.
    pub fn digit() -> ByteSet {
        ByteSet::range(b'0', b'9')
    }

    /// Word characters `[A-Za-z0-9_]`.
    pub fn word() -> ByteSet {
        let mut s = ByteSet::range(b'a', b'z');
        s = s.union(&ByteSet::range(b'A', b'Z'));
        s = s.union(&ByteSet::range(b'0', b'9'));
        s.insert(b'_');
        s
    }

    /// Whitespace `[ \t\n\r\x0b\x0c]`.
    pub fn space() -> ByteSet {
        ByteSet::from_bytes([b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c])
    }

    /// Inserts a byte into the set.
    pub fn insert(&mut self, b: u8) {
        self.words[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    /// Removes a byte from the set.
    pub fn remove(&mut self, b: u8) {
        self.words[(b >> 6) as usize] &= !(1u64 << (b & 63));
    }

    /// Returns `true` if the set contains `b`.
    pub fn contains(&self, b: u8) -> bool {
        self.words[(b >> 6) as usize] >> (b & 63) & 1 == 1
    }

    /// Number of bytes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the set contains all 256 bytes.
    pub fn is_full(&self) -> bool {
        self.words.iter().all(|&w| w == u64::MAX)
    }

    /// Set union.
    pub fn union(&self, other: &ByteSet) -> ByteSet {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(other.words) {
            *a |= b;
        }
        ByteSet { words: w }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ByteSet) -> ByteSet {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(other.words) {
            *a &= b;
        }
        ByteSet { words: w }
    }

    /// Set difference: bytes in `self` but not in `other`.
    pub fn difference(&self, other: &ByteSet) -> ByteSet {
        let mut w = self.words;
        for (a, b) in w.iter_mut().zip(other.words) {
            *a &= !b;
        }
        ByteSet { words: w }
    }

    /// Complement within the full 256-value alphabet.
    pub fn complement(&self) -> ByteSet {
        let mut w = self.words;
        for a in w.iter_mut() {
            *a = !*a;
        }
        ByteSet { words: w }
    }

    /// Iterates over the bytes in the set in ascending order.
    pub fn iter(&self) -> Bytes {
        Bytes { set: *self, next: 0, done: false }
    }

    /// Decomposes the set into maximal inclusive ranges, ascending.
    ///
    /// This is what the character-class compiler consumes: each range turns
    /// into a comparison circuit over the basis bits.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitgen_regex::ByteSet;
    ///
    /// let s = ByteSet::from_bytes([b'a', b'b', b'c', b'x']);
    /// assert_eq!(s.ranges(), vec![(b'a', b'c'), (b'x', b'x')]);
    /// ```
    pub fn ranges(&self) -> Vec<(u8, u8)> {
        // The first byte at or after `from` that is (`member`) or is not
        // in the set, `256` if none: a word at a time.
        let seek = |from: usize, member: bool| {
            let mut at = from;
            while at < 256 {
                let word = self.words[at >> 6];
                let rest = if member { word } else { !word } >> (at & 63);
                if rest != 0 {
                    return at + rest.trailing_zeros() as usize;
                }
                at = (at | 63) + 1;
            }
            256
        };
        let mut out = Vec::new();
        let mut lo = seek(0, true);
        while lo < 256 {
            let end = seek(lo, false);
            out.push((lo as u8, (end - 1) as u8));
            lo = seek(end, true);
        }
        out
    }

    /// If the set contains exactly one byte, returns it.
    pub fn as_singleton(&self) -> Option<u8> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// Builds a set from a raw 4-word bitmap.
    pub fn from_words(words: [u64; 4]) -> ByteSet {
        ByteSet { words }
    }
}

impl Hash for ByteSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words.iter().for_each(|&word| state.write_u64(word));
    }
}

/// The hasher of maps and sets keyed by [`ByteSet`]: compiling a rule set
/// looks a class up once per occurrence in every rule, and this folds the
/// four membership words with a multiply each where SipHash runs rounds
/// over them. Classes come from tenants' patterns, so like `RandomState`
/// each map draws its own random keys: colliding classes cannot be
/// written down in advance.
#[derive(Debug, Clone)]
pub struct ClassHashing {
    keys: [u64; 2],
}

impl Default for ClassHashing {
    fn default() -> ClassHashing {
        let random = RandomState::new();
        ClassHashing { keys: [random.hash_one(0u64), random.hash_one(1u64)] }
    }
}

impl BuildHasher for ClassHashing {
    type Hasher = ClassHasher;

    fn build_hasher(&self) -> ClassHasher {
        ClassHasher { state: self.keys[0], key: self.keys[1] }
    }
}

/// The [`Hasher`] of [`ClassHashing`].
#[derive(Debug, Clone)]
pub struct ClassHasher {
    state: u64,
    key: u64,
}

impl Hasher for ClassHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&byte| self.write_u64(u64::from(byte)));
    }

    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, self.key);
    }

    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.key.rotate_left(32))
    }
}

/// The high and low halves of `a × b`, XORed.
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ (product >> 64) as u64
}

impl Default for ByteSet {
    fn default() -> ByteSet {
        ByteSet::new()
    }
}

impl FromIterator<u8> for ByteSet {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> ByteSet {
        ByteSet::from_bytes(iter)
    }
}

impl Extend<u8> for ByteSet {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

impl fmt::Debug for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ByteSet[")?;
        let mut first = true;
        for (lo, hi) in self.ranges() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if lo == hi {
                write!(f, "{}", DebugByte(lo))?;
            } else {
                write!(f, "{}-{}", DebugByte(lo), DebugByte(hi))?;
            }
        }
        write!(f, "]")
    }
}

impl fmt::Display for ByteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

struct DebugByte(u8);

impl fmt::Display for DebugByte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_ascii_graphic() {
            write!(f, "{}", self.0 as char)
        } else {
            write!(f, "\\x{:02x}", self.0)
        }
    }
}

/// Iterator over the bytes of a [`ByteSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Bytes {
    set: ByteSet,
    next: u8,
    done: bool,
}

impl Iterator for Bytes {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.done {
            return None;
        }
        loop {
            let b = self.next;
            let hit = self.set.contains(b);
            if b == u8::MAX {
                self.done = true;
            } else {
                self.next = b + 1;
            }
            if hit {
                return Some(b);
            }
            if self.done {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(ByteSet::EMPTY.is_empty());
        assert_eq!(ByteSet::EMPTY.len(), 0);
        assert!(ByteSet::FULL.is_full());
        assert_eq!(ByteSet::FULL.len(), 256);
        assert!(ByteSet::FULL.contains(0));
        assert!(ByteSet::FULL.contains(255));
    }

    #[test]
    fn singleton_contains_only_itself() {
        let s = ByteSet::singleton(b'x');
        assert_eq!(s.len(), 1);
        assert!(s.contains(b'x'));
        assert!(!s.contains(b'y'));
        assert_eq!(s.as_singleton(), Some(b'x'));
    }

    #[test]
    fn range_boundaries() {
        let s = ByteSet::range(b'a', b'f');
        assert!(s.contains(b'a'));
        assert!(s.contains(b'f'));
        assert!(!s.contains(b'g'));
        assert!(!s.contains(b'`'));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn inverted_range_is_empty() {
        assert!(ByteSet::range(b'z', b'a').is_empty());
    }

    #[test]
    fn full_byte_range() {
        let s = ByteSet::range(0, 255);
        assert!(s.is_full());
    }

    #[test]
    fn union_intersection_difference() {
        let a = ByteSet::range(b'a', b'm');
        let b = ByteSet::range(b'h', b'z');
        let u = a.union(&b);
        let i = a.intersection(&b);
        let d = a.difference(&b);
        assert_eq!(u, ByteSet::range(b'a', b'z'));
        assert_eq!(i, ByteSet::range(b'h', b'm'));
        assert_eq!(d, ByteSet::range(b'a', b'g'));
    }

    #[test]
    fn complement_round_trip() {
        let s = ByteSet::range(b'0', b'9');
        assert_eq!(s.complement().complement(), s);
        assert_eq!(s.complement().len(), 246);
        assert!(s.complement().contains(b'a'));
        assert!(!s.complement().contains(b'5'));
    }

    #[test]
    fn dot_excludes_newline() {
        let d = ByteSet::dot();
        assert_eq!(d.len(), 255);
        assert!(!d.contains(b'\n'));
        assert!(d.contains(b'\r'));
    }

    #[test]
    fn word_class() {
        let w = ByteSet::word();
        assert_eq!(w.len(), 63);
        assert!(w.contains(b'_'));
        assert!(w.contains(b'A'));
        assert!(!w.contains(b'-'));
    }

    #[test]
    fn iter_ascending_and_complete() {
        let s = ByteSet::from_bytes([b'z', b'a', b'm']);
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![b'a', b'm', b'z']);
    }

    #[test]
    fn iter_includes_255() {
        let s = ByteSet::from_bytes([0u8, 255u8]);
        let v: Vec<u8> = s.iter().collect();
        assert_eq!(v, vec![0, 255]);
    }

    #[test]
    fn ranges_decomposition() {
        let mut s = ByteSet::range(b'a', b'c');
        s.insert(b'x');
        s.insert(0);
        s.insert(255);
        assert_eq!(s.ranges(), vec![(0, 0), (b'a', b'c'), (b'x', b'x'), (255, 255)]);
    }

    #[test]
    fn ranges_of_full_set() {
        assert_eq!(ByteSet::FULL.ranges(), vec![(0, 255)]);
    }

    #[test]
    fn ranges_agree_with_a_byte_at_a_time_scan() {
        fn scanned(s: &ByteSet) -> Vec<(u8, u8)> {
            let mut out: Vec<(u8, u8)> = Vec::new();
            for b in s.iter() {
                match out.last_mut() {
                    Some((_, hi)) if u16::from(*hi) + 1 == u16::from(b) => *hi = b,
                    _ => out.push((b, b)),
                }
            }
            out
        }
        let mut sets = vec![ByteSet::EMPTY, ByteSet::FULL, ByteSet::dot(), ByteSet::word()];
        // Runs ending and starting on every side of the word seams.
        for (lo, hi) in [(0, 63), (63, 64), (64, 127), (60, 200), (128, 255), (191, 192)] {
            sets.push(ByteSet::range(lo, hi));
            sets.push(ByteSet::range(lo, hi).complement());
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200 {
            let mut words = [0u64; 4];
            for w in &mut words {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Sparse, dense and run-heavy words alike.
                *w = match x % 3 {
                    0 => x & x.rotate_left(17),
                    1 => x | x.rotate_left(29),
                    _ => x.wrapping_sub(x >> 9),
                };
            }
            sets.push(ByteSet { words });
        }
        for s in &sets {
            assert_eq!(s.ranges(), scanned(s), "{s:?}");
        }
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", ByteSet::EMPTY), "ByteSet[]");
        let s = ByteSet::range(b'a', b'c');
        assert_eq!(format!("{:?}", s), "ByteSet[a-c]");
    }

    /// `Display` is what a program listing prints for a `MatchCc`, so
    /// its bytes are part of every stream fingerprint.
    #[test]
    fn display_renders_ranges_in_listing_notation() {
        for (set, text) in [
            (ByteSet::EMPTY, "ByteSet[]"),
            (ByteSet::FULL, "ByteSet[\\x00-\\xff]"),
            (ByteSet::singleton(b'q'), "ByteSet[q]"),
            (ByteSet::singleton(0), "ByteSet[\\x00]"),
            (ByteSet::singleton(0x7f), "ByteSet[\\x7f]"),
            (ByteSet::singleton(0xff), "ByteSet[\\xff]"),
            (ByteSet::range(b'x', 0x90), "ByteSet[x-\\x90]"),
            (ByteSet::range(b' ', b'#'), "ByteSet[\\x20-#]"),
            (ByteSet::dot(), "ByteSet[\\x00-\\x09,\\x0b-\\xff]"),
            (ByteSet::from_bytes([b'a', b'c', b'd', b'~']), "ByteSet[a,c-d,~]"),
        ] {
            assert_eq!(set.to_string(), text);
        }
    }

    #[test]
    fn class_hashing_keeps_distinct_classes_apart() {
        use std::collections::HashSet;
        let singletons = (0..=255u8).map(ByteSet::singleton);
        let classes: Vec<ByteSet> = singletons.flat_map(|s| [s, s.complement()]).collect();
        let mut set = HashSet::with_hasher(ClassHashing::default());
        set.extend(classes.iter().copied());
        assert_eq!(set.len(), 512);
        assert!(classes.iter().all(|class| set.contains(class)));
        assert!(!set.contains(&ByteSet::EMPTY));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: ByteSet = [b'a', b'b'].into_iter().collect();
        s.extend([b'c']);
        assert_eq!(s, ByteSet::range(b'a', b'c'));
    }
}
