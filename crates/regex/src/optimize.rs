//! Language-preserving AST simplification.
//!
//! Run before lowering, these rewrites shrink the bitstream programs that
//! multi-pattern groups compile into:
//!
//! - flattening of nested concatenations/alternations;
//! - removal of duplicate alternation branches;
//! - common-prefix factoring: `abc|abd → ab(?:c|d)` — alternation
//!   branches sharing a prefix share its AND/shift chain instead of
//!   recomputing it per branch (production engines factor literal sets
//!   the same way);
//! - fusion of nested repetitions of the same class (`(a*)* → a*`,
//!   `(a{2}){3} → a{6}`).
//!
//! Every rewrite preserves the matched language exactly; the property
//! tests check behavioural equality against the oracle.

use crate::ast::Ast;

/// Applies all simplifications to a fixpoint.
///
/// # Examples
///
/// ```
/// use bitgen_regex::{optimize, parse};
///
/// let opt = optimize(&parse("abcde|abcdf|abx").unwrap());
/// // The shared prefixes are factored; the language is unchanged.
/// assert_eq!(opt.to_string(), "ab(?:cd(?:e|f)|x)");
/// ```
pub fn optimize(ast: &Ast) -> Ast {
    optimize_owned(ast.clone())
}

/// [`optimize`] of a tree the caller gives up: the passes rewrite it in
/// place, and a pass that rewrites nothing allocates nothing.
pub fn optimize_owned(mut ast: Ast) -> Ast {
    for _ in 0..16 {
        let mut rewrote = false;
        ast = pass(ast, &mut rewrote);
        if !rewrote {
            break;
        }
    }
    ast
}

/// One bottom-up pass of every rewrite, setting `rewrote` when one fired.
/// Each rewrite changes the tree, so a pass that sets nothing returned
/// its input.
fn pass(ast: Ast, rewrote: &mut bool) -> Ast {
    match ast {
        Ast::Empty | Ast::Class(_) => ast,
        Ast::Concat(mut parts) => {
            // Flatten nested concats and drop epsilons.
            let mut flatten = false;
            for part in &mut parts {
                *part = pass(std::mem::take(part), rewrote);
                flatten |= matches!(part, Ast::Concat(_) | Ast::Empty);
            }
            if flatten {
                let mut flat = Vec::with_capacity(parts.len());
                for part in parts {
                    match part {
                        Ast::Concat(inner) => flat.extend(inner),
                        Ast::Empty => {}
                        other => flat.push(other),
                    }
                }
                parts = flat;
            }
            *rewrote |= flatten || parts.len() < 2;
            sequence(parts)
        }
        Ast::Alt(mut parts) => {
            // Flatten, dedupe, then factor common prefixes.
            let mut flatten = false;
            for part in &mut parts {
                *part = pass(std::mem::take(part), rewrote);
                flatten |= matches!(part, Ast::Alt(_));
            }
            if flatten {
                let mut flat = Vec::with_capacity(parts.len());
                for part in parts {
                    match part {
                        Ast::Alt(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                parts = flat;
            }
            // Keep each branch's first occurrence, in order.
            let mut kept = 0;
            for i in 0..parts.len() {
                if !parts[..kept].contains(&parts[i]) {
                    parts.swap(kept, i);
                    kept += 1;
                }
            }
            *rewrote |= flatten || kept < parts.len();
            parts.truncate(kept);
            factor_prefixes(parts, rewrote)
        }
        Ast::Star(mut inner) => match pass(std::mem::take(&mut *inner), rewrote) {
            // (R*)* = R*, (R+)* = R*, (R?)* = R*.
            Ast::Star(i) | Ast::Plus(i) | Ast::Opt(i) => rewritten(rewrote, Ast::Star(i)),
            Ast::Empty => rewritten(rewrote, Ast::Empty),
            other => {
                *inner = other;
                Ast::Star(inner)
            }
        },
        Ast::Plus(mut inner) => match pass(std::mem::take(&mut *inner), rewrote) {
            Ast::Star(i) | Ast::Opt(i) => rewritten(rewrote, Ast::Star(i)),
            Ast::Plus(i) => rewritten(rewrote, Ast::Plus(i)),
            Ast::Empty => rewritten(rewrote, Ast::Empty),
            other => {
                *inner = other;
                Ast::Plus(inner)
            }
        },
        Ast::Opt(mut inner) => match pass(std::mem::take(&mut *inner), rewrote) {
            Ast::Star(i) | Ast::Plus(i) => rewritten(rewrote, Ast::Star(i)),
            Ast::Opt(i) => rewritten(rewrote, Ast::Opt(i)),
            Ast::Empty => rewritten(rewrote, Ast::Empty),
            other => {
                *inner = other;
                Ast::Opt(inner)
            }
        },
        Ast::Repeat { mut node, min, max } => {
            *node = pass(std::mem::take(&mut *node), rewrote);
            let fixed = |ast: &Ast| matches!(ast, Ast::Repeat { min, max: Some(max), .. } if min == max);
            match (min, max) {
                (0, Some(0)) => rewritten(rewrote, Ast::Empty),
                (1, Some(1)) => rewritten(rewrote, *node),
                (0, Some(1)) => rewritten(rewrote, Ast::Opt(node)),
                // (R{a}){b} with fixed counts multiplies.
                (m, Some(mx)) if m == mx && fixed(&node) => {
                    let Ast::Repeat { node: inner, min: im, .. } = *node else { unreachable!() };
                    rewritten(rewrote, Ast::Repeat { node: inner, min: im * m, max: Some(im * mx) })
                }
                _ => Ast::Repeat { node, min, max },
            }
        }
    }
}

/// `ast`, noting that a rewrite produced it.
fn rewritten(rewrote: &mut bool, ast: Ast) -> Ast {
    *rewrote = true;
    ast
}

/// A branch as the element sequence prefix factoring compares.
fn elements(branch: &Ast) -> &[Ast] {
    match branch {
        Ast::Concat(parts) => parts,
        other => std::slice::from_ref(other),
    }
}

/// [`elements`], taken.
fn into_elements(branch: Ast) -> Vec<Ast> {
    match branch {
        Ast::Concat(parts) => parts,
        other => vec![other],
    }
}

/// The branch whose elements are `parts`: epsilon, the one element, or
/// their concatenation.
fn sequence(mut parts: Vec<Ast>) -> Ast {
    match parts.len() {
        0 => Ast::Empty,
        1 => parts.pop().expect("one element"),
        _ => Ast::Concat(parts),
    }
}

/// Greedy longest-common-prefix factoring over alternation branches.
///
/// Branches are grouped by their first element; groups of two or more
/// share the longest prefix common to the whole group:
/// `abc|abd|x → ab(?:c|d)|x`.
fn factor_prefixes(mut branches: Vec<Ast>, rewrote: &mut bool) -> Ast {
    if branches.len() < 2 {
        *rewrote = true;
        return branches.pop().unwrap_or(Ast::Empty);
    }
    // Each branch's group leader: the first branch with its first element.
    let leaders: Vec<usize> = (0..branches.len())
        .map(|j| {
            let first = elements(&branches[j]).first();
            (0..j)
                .find(|&i| first.is_some() && elements(&branches[i]).first() == first)
                .unwrap_or(j)
        })
        .collect();
    if leaders.iter().enumerate().all(|(j, &leader)| leader == j) {
        return Ast::Alt(branches);
    }
    *rewrote = true;
    // Each group in its leader's place, its members in order.
    let mut groups: Vec<Vec<Ast>> = (0..branches.len()).map(|_| Vec::new()).collect();
    for (branch, &leader) in branches.into_iter().zip(&leaders) {
        groups[leader].push(branch);
    }
    let mut out: Vec<Ast> = Vec::new();
    for mut group in groups.into_iter().filter(|group| !group.is_empty()) {
        if group.len() == 1 {
            out.append(&mut group);
            continue;
        }
        // Longest prefix common to every member of the group.
        let first = elements(&group[0]);
        let plen = group[1..].iter().fold(first.len(), |plen, other| {
            plen.min(first.iter().zip(elements(other)).take_while(|(a, b)| a == b).count())
        });
        let mut prefix = Vec::new();
        let mut tails = Vec::with_capacity(group.len());
        for member in group {
            let mut parts = into_elements(member);
            tails.push(sequence(parts.split_off(plen)));
            if prefix.is_empty() {
                prefix = parts;
            }
        }
        // Recursively factor the tails.
        match factor_prefixes(tails, rewrote) {
            Ast::Empty => {}
            other => prefix.push(other),
        }
        out.push(sequence(prefix));
    }
    match out.len() {
        1 => out.pop().expect("one element"),
        _ => Ast::Alt(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::match_ends;
    use crate::parser::parse;

    /// The rewrite must preserve behaviour on a spread of inputs.
    fn assert_same_language(pat: &str) {
        let ast = parse(pat).unwrap();
        let opt = optimize(&ast);
        for input in [
            &b""[..],
            b"a",
            b"ab",
            b"abc",
            b"abcd",
            b"abcde",
            b"abcdf",
            b"abx",
            b"xabcabd",
            b"aaaaaa",
            b"ababab",
            b"zzz abcde abx",
        ] {
            assert_eq!(
                match_ends(&opt, input),
                match_ends(&ast, input),
                "{pat:?} -> {opt} changed behaviour on {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn flattening() {
        let ast = Ast::Concat(vec![
            Ast::Concat(vec![Ast::literal(b"a"), Ast::literal(b"b")]),
            Ast::Empty,
            Ast::literal(b"c"),
        ]);
        assert_eq!(optimize(&ast), Ast::literal(b"abc"));
    }

    #[test]
    fn duplicate_branches_removed() {
        let opt = optimize(&parse("ab|cd|ab").unwrap());
        assert_eq!(opt, parse("ab|cd").unwrap());
    }

    #[test]
    fn prefix_factoring() {
        let opt = optimize(&parse("abcde|abcdf|abx").unwrap());
        assert_eq!(opt.to_string(), "ab(?:cd(?:e|f)|x)");
        assert_same_language("abcde|abcdf|abx");
    }

    #[test]
    fn factoring_keeps_shorter_branch_as_epsilon_tail() {
        // "ab|abc": one branch is a strict prefix of the other.
        let opt = optimize(&parse("ab|abc").unwrap());
        assert_same_language("ab|abc");
        // Factored into ab(?:|c) ≡ ab c? — whatever the exact shape, the
        // class count must not exceed the original's distinct prefix.
        assert!(opt.class_count() <= 5);
    }

    #[test]
    fn nested_repetition_fusion() {
        assert_eq!(optimize(&parse("(?:a*)*").unwrap()), parse("a*").unwrap());
        assert_eq!(optimize(&parse("(?:a+)*").unwrap()), parse("a*").unwrap());
        assert_eq!(optimize(&parse("(?:a?)+").unwrap()), parse("a*").unwrap());
        assert_eq!(
            optimize(&parse("(?:a{2}){3}").unwrap()),
            parse("a{6}").unwrap()
        );
    }

    #[test]
    fn trivial_repeats() {
        assert_eq!(optimize(&parse("a{1}").unwrap()), parse("a").unwrap());
        assert_eq!(optimize(&parse("a{0,1}").unwrap()), parse("a?").unwrap());
    }

    #[test]
    fn language_preserved_on_varied_patterns() {
        for pat in [
            "abc|abd",
            "ab|ab",
            "a(b|b)c",
            "(?:ab|ac)|(?:ab|ad)",
            "a*b|a*c",
            "x(?:(?:y))z",
            "(a|b)(a|b)",
            "abc|abd|abe|xyz|xyw",
        ] {
            assert_same_language(pat);
        }
    }

    #[test]
    fn factoring_shrinks_class_count() {
        let ast = parse("attack_one|attack_two|attack_six").unwrap();
        let opt = optimize(&ast);
        assert!(
            opt.class_count() < ast.class_count(),
            "{} vs {}",
            opt.class_count(),
            ast.class_count()
        );
        assert_same_language("attack_one|attack_two|attack_six");
    }

    #[test]
    fn idempotent() {
        for pat in ["abc|abd|abe", "a*", "(?:a{2}){3}", "x|y|x"] {
            let once = optimize(&parse(pat).unwrap());
            assert_eq!(optimize(&once), once, "{pat}");
        }
    }
}
