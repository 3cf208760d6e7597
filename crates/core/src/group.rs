//! Regex grouping (§7 of the paper).
//!
//! Regexes are partitioned into groups of similar total character length,
//! one group per CTA, to balance GPU work. The greedy longest-first
//! heuristic is the paper's strategy; round-robin is kept as an ablation.

use bitgen_regex::Ast;

/// How regexes are assigned to CTAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingStrategy {
    /// Greedy balance by character length (the paper's approach).
    #[default]
    BalancedLength,
    /// Round-robin by index (ablation baseline).
    RoundRobin,
}

/// Partitions `asts` into at most `groups` non-empty groups, returning
/// the regex indices of each group.
///
/// # Panics
///
/// Panics if `groups` is zero.
///
/// # Examples
///
/// ```
/// use bitgen::{group_regexes, GroupingStrategy};
/// use bitgen_regex::parse;
///
/// let asts = vec![
///     parse("abcdefgh").unwrap(),
///     parse("ab").unwrap(),
///     parse("cd").unwrap(),
///     parse("ef").unwrap(),
/// ];
/// let groups = group_regexes(&asts, 2, GroupingStrategy::BalancedLength);
/// assert_eq!(groups.len(), 2);
/// // The long regex ends up alone; the short ones share the other CTA.
/// assert_eq!(groups.iter().map(Vec::len).max(), Some(3));
/// ```
pub fn group_regexes(asts: &[Ast], groups: usize, strategy: GroupingStrategy) -> Vec<Vec<usize>> {
    assert!(groups > 0, "at least one group");
    let n = asts.len();
    let g = groups.min(n.max(1));
    match strategy {
        GroupingStrategy::RoundRobin => {
            let mut out = vec![Vec::new(); g];
            for i in 0..n {
                out[i % g].push(i);
            }
            out.retain(|v| !v.is_empty());
            out
        }
        GroupingStrategy::BalancedLength => {
            let classes: Vec<usize> = asts.iter().map(Ast::class_count).collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(classes[i]));
            let mut buckets: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new()); g];
            for i in order {
                let b = buckets
                    .iter_mut()
                    .min_by_key(|(load, _)| *load)
                    .expect("at least one bucket");
                b.0 += classes[i].max(1);
                b.1.push(i);
            }
            buckets.retain(|(_, v)| !v.is_empty());
            buckets.into_iter().map(|(_, v)| v).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_regex::parse;

    fn asts(lens: &[usize]) -> Vec<Ast> {
        lens.iter().map(|&l| parse(&"a".repeat(l)).unwrap()).collect()
    }

    #[test]
    fn covers_all_indices_exactly_once() {
        let a = asts(&[5, 3, 8, 1, 9, 2, 7]);
        for strategy in [GroupingStrategy::BalancedLength, GroupingStrategy::RoundRobin] {
            let groups = group_regexes(&a, 3, strategy);
            let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
            all.sort();
            assert_eq!(all, (0..7).collect::<Vec<_>>(), "{strategy:?}");
        }
    }

    #[test]
    fn balanced_is_balanced() {
        let a = asts(&[10, 10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]);
        let groups = group_regexes(&a, 2, GroupingStrategy::BalancedLength);
        let load = |g: &Vec<usize>| -> usize { g.iter().map(|&i| a[i].class_count()).sum() };
        let l0 = load(&groups[0]);
        let l1 = load(&groups[1]);
        assert!(l0.abs_diff(l1) <= 2, "loads {l0} vs {l1}");
    }

    #[test]
    fn more_groups_than_regexes() {
        let a = asts(&[2, 3]);
        let groups = group_regexes(&a, 8, GroupingStrategy::BalancedLength);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        group_regexes(&asts(&[1]), 0, GroupingStrategy::default());
    }
}
