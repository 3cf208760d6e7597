//! The loop frontiers of one walk: every `while` check whose condition
//! was not empty, as the loop's site and the condition's non-zero words.
//! A window priced as the paper's DTM kernel reads its trips per CTA
//! window off this record (DESIGN.md §10, "How a served push is billed").

use bitgen_bitstream::BitStream;

/// The `while` checks of one walk with a non-empty condition, in walk
/// order — filled through [`crate::Observer::loop_check`] by an observer
/// that holds one, and only while recording ([`Frontiers::restart`]).
///
/// A check keeps its loop's site (pre-order over `while`s and `Add`s,
/// [`crate::Stmt::site_count`]) and its condition's non-zero 64-bit words:
/// a few dozen words per 64 KiB window for the served Snort rules, where
/// the conditions span 8 193 words each. The buffers are kept across
/// restarts.
#[derive(Debug, Clone, Default)]
pub struct Frontiers {
    recording: bool,
    /// Per check, a header — its site and how many words follow — and
    /// then its condition's non-zero words, ascending: index and word.
    entries: Vec<(u32, u64)>,
}

/// Entries a recording scratch makes room for at once: one allocation
/// holds a served 64 KiB window's checks.
const RESERVE: usize = 64;

impl Frontiers {
    /// Forgets every check; the next walk's are recorded iff `recording`.
    pub fn restart(&mut self, recording: bool) {
        self.recording = recording;
        self.entries.clear();
        if recording {
            self.entries.reserve(RESERVE);
        }
    }

    /// Whether checks are being recorded.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records a check of loop `site` on condition `cond`: nothing unless
    /// recording, and nothing for an empty condition, which no CTA window
    /// takes a trip on.
    pub fn record(&mut self, site: usize, cond: &BitStream) {
        if !self.recording {
            return;
        }
        let header = self.entries.len();
        self.entries.push((site as u32, 0));
        // Most of a condition is zero: 32 words are tested at once.
        for (at, chunk) in (0u32..).step_by(32).zip(cond.as_words().chunks(32)) {
            if chunk.iter().fold(0, |any, &word| any | word) != 0 {
                let words = (at..).zip(chunk).filter(|&(_, &word)| word != 0);
                self.entries.extend(words.map(|(index, &word)| (index, word)));
            }
        }
        let words = self.entries.len() - header - 1;
        if words == 0 {
            self.entries.truncate(header);
        } else {
            self.entries[header].1 = words as u64;
        }
    }

    /// The recorded checks, in walk order.
    pub fn checks(&self) -> impl Iterator<Item = Check<'_>> + '_ {
        let mut rest = &self.entries[..];
        std::iter::from_fn(move || {
            let (&(site, words), tail) = rest.split_first()?;
            let (words, tail) = tail.split_at(words as usize);
            rest = tail;
            Some(Check { site: site as usize, words })
        })
    }

    /// Whether no check was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One recorded `while` check ([`Frontiers::checks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check<'a> {
    /// The loop's site.
    pub site: usize,
    /// The condition's non-zero words, ascending: word index and word.
    pub words: &'a [(u32, u64)],
}

impl Check<'_> {
    /// The condition's first set position at or after `from`; `u64::MAX`
    /// when there is none.
    pub fn next_from(&self, from: u64) -> u64 {
        let at = self.words.partition_point(|&(index, _)| (u64::from(index) + 1) * 64 <= from);
        // Only the first word left can start before `from`; every word
        // recorded is non-zero, so the second one decides otherwise.
        (self.words[at..].iter().take(2))
            .find_map(|&(index, word)| {
                let base = u64::from(index) * 64;
                let word = if base < from { word & u64::MAX << (from - base) } else { word };
                (word != 0).then(|| base + u64::from(word.trailing_zeros()))
            })
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_non_empty_checks_are_kept_and_only_while_recording() {
        let mut frontiers = Frontiers::default();
        let mut cond = BitStream::zeros(300);
        cond.set(5, true);
        cond.set(200, true);
        frontiers.record(0, &cond);
        assert!(frontiers.is_empty(), "not recording");
        frontiers.restart(true);
        frontiers.record(3, &cond);
        frontiers.record(4, &BitStream::zeros(300));
        frontiers.record(1, &cond);
        let checks: Vec<Check<'_>> = frontiers.checks().collect();
        assert_eq!(checks.iter().map(|c| c.site).collect::<Vec<_>>(), vec![3, 1]);
        assert_eq!(checks[0].words, &[(0, 1 << 5), (3, 1 << 8)]);
        assert_eq!(checks[0], Check { site: 3, ..checks[1] });
        frontiers.restart(false);
        assert!(frontiers.is_empty() && !frontiers.is_recording());
    }

    #[test]
    fn next_from_finds_the_first_set_position_at_or_after() {
        // Set words in several of the record's 32-word chunks.
        let mut cond = BitStream::zeros(5000);
        [5, 63, 64, 200, 399, 2100, 4999].iter().for_each(|&bit| cond.set(bit, true));
        let mut frontiers = Frontiers::default();
        frontiers.restart(true);
        frontiers.record(0, &cond);
        let check = frontiers.checks().next().unwrap();
        for from in 0..5020u64 {
            let want = cond.positions().into_iter().map(|p| p as u64).find(|&p| p >= from);
            assert_eq!(check.next_from(from), want.unwrap_or(u64::MAX), "from {from}");
        }
    }
}
