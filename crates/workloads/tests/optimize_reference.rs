//! The optimiser rewrites trees in place and stops on its own report of
//! a pass that rewrote nothing. Its output must be the very tree the
//! clone-and-compare optimiser it replaced returns — the same nodes, not
//! only the same language — since every lowering, listing and stream
//! fingerprint is built from it.

use bitgen_regex::{optimize, optimize_owned, parse, Ast, ByteSet};
use bitgen_workloads::{generate, AppKind, WorkloadConfig};
use proptest::prelude::*;

/// The optimiser as it was: clone the tree, rebuild every node on each
/// pass, and stop when a pass returns a tree equal to its input.
mod reference {
    use bitgen_regex::Ast;

    pub fn optimize(ast: &Ast) -> Ast {
        let mut current = ast.clone();
        for _ in 0..16 {
            let next = pass(&current);
            if next == current {
                break;
            }
            current = next;
        }
        current
    }

    fn pass(ast: &Ast) -> Ast {
        match ast {
            Ast::Empty | Ast::Class(_) => ast.clone(),
            Ast::Concat(parts) => {
                let mut flat = Vec::with_capacity(parts.len());
                for p in parts {
                    match pass(p) {
                        Ast::Concat(inner) => flat.extend(inner),
                        Ast::Empty => {}
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => Ast::Empty,
                    1 => flat.pop().expect("one element"),
                    _ => Ast::Concat(flat),
                }
            }
            Ast::Alt(parts) => {
                let mut flat = Vec::with_capacity(parts.len());
                for p in parts {
                    match pass(p) {
                        Ast::Alt(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                let mut deduped: Vec<Ast> = Vec::with_capacity(flat.len());
                for p in flat {
                    if !deduped.contains(&p) {
                        deduped.push(p);
                    }
                }
                factor_prefixes(deduped)
            }
            Ast::Star(inner) => match pass(inner) {
                Ast::Star(i) | Ast::Plus(i) | Ast::Opt(i) => Ast::Star(i),
                Ast::Empty => Ast::Empty,
                other => Ast::Star(Box::new(other)),
            },
            Ast::Plus(inner) => match pass(inner) {
                Ast::Star(i) => Ast::Star(i),
                Ast::Plus(i) => Ast::Plus(i),
                Ast::Opt(i) => Ast::Star(i),
                Ast::Empty => Ast::Empty,
                other => Ast::Plus(Box::new(other)),
            },
            Ast::Opt(inner) => match pass(inner) {
                Ast::Star(i) => Ast::Star(i),
                Ast::Opt(i) => Ast::Opt(i),
                Ast::Plus(i) => Ast::Star(i),
                Ast::Empty => Ast::Empty,
                other => Ast::Opt(Box::new(other)),
            },
            Ast::Repeat { node, min, max } => {
                let node = pass(node);
                match (&node, min, max) {
                    (_, 0, Some(0)) => Ast::Empty,
                    (_, 1, Some(1)) => node,
                    (_, 0, Some(1)) => Ast::Opt(Box::new(node)),
                    (Ast::Repeat { node: inner, min: im, max: Some(imax) }, m, Some(mx))
                        if im == imax && m == mx =>
                    {
                        Ast::Repeat { node: inner.clone(), min: im * m, max: Some(im * mx) }
                    }
                    _ => Ast::Repeat { node: Box::new(node), min: *min, max: *max },
                }
            }
        }
    }

    fn factor_prefixes(branches: Vec<Ast>) -> Ast {
        if branches.len() < 2 {
            return match branches.len() {
                0 => Ast::Empty,
                _ => branches.into_iter().next().expect("one element"),
            };
        }
        let seqs: Vec<Vec<Ast>> = branches
            .iter()
            .map(|b| match b {
                Ast::Concat(parts) => parts.clone(),
                other => vec![other.clone()],
            })
            .collect();
        let mut out: Vec<Ast> = Vec::new();
        let mut used = vec![false; seqs.len()];
        for i in 0..seqs.len() {
            if used[i] {
                continue;
            }
            let mut group = vec![i];
            if let Some(first) = seqs[i].first() {
                for (j, seq) in seqs.iter().enumerate().skip(i + 1) {
                    if !used[j] && seq.first() == Some(first) {
                        group.push(j);
                    }
                }
            }
            if group.len() < 2 {
                used[i] = true;
                out.push(branches[i].clone());
                continue;
            }
            for &j in &group {
                used[j] = true;
            }
            let mut plen = 1;
            loop {
                let candidate = seqs[group[0]].get(plen);
                if candidate.is_none() || !group.iter().all(|&j| seqs[j].get(plen) == candidate) {
                    break;
                }
                plen += 1;
            }
            let prefix: Vec<Ast> = seqs[group[0]][..plen].to_vec();
            let tails: Vec<Ast> = group
                .iter()
                .map(|&j| {
                    let tail = &seqs[j][plen..];
                    match tail.len() {
                        0 => Ast::Empty,
                        1 => tail[0].clone(),
                        _ => Ast::Concat(tail.to_vec()),
                    }
                })
                .collect();
            let tail_alt = factor_prefixes(tails);
            let mut seq = prefix;
            match tail_alt {
                Ast::Empty => {}
                other => seq.push(other),
            }
            out.push(if seq.len() == 1 { seq.pop().expect("one element") } else { Ast::Concat(seq) });
        }
        match out.len() {
            1 => out.pop().expect("one element"),
            _ => Ast::Alt(out),
        }
    }
}

fn assert_same_tree(ast: &Ast) {
    let expect = reference::optimize(ast);
    assert_eq!(optimize(ast), expect, "optimize({ast})");
    assert_eq!(optimize_owned(ast.clone()), expect, "optimize_owned({ast})");
}

/// Trees built to set off every rewrite: epsilons, empty and one-element
/// sequences, nested sequences and repetitions, duplicate branches and
/// shared prefixes over a three-letter alphabet.
fn arb_ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        Just(Ast::Empty),
        prop::sample::select(vec![b'a', b'b', b'c']).prop_map(|b| Ast::Class(ByteSet::singleton(b))),
        Just(Ast::Class(ByteSet::range(b'a', b'b'))),
    ];
    leaf.prop_recursive(4, 48, 5, |inner| {
        let sequence = prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::Concat);
        // Alternations of short sequences, whose factoring can leave an
        // alternation or a sequence nested in its own kind for a later pass.
        let sequences = prop::collection::vec(sequence, 2..5).prop_map(Ast::Alt).boxed();
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Ast::Concat),
            prop::collection::vec(inner.clone(), 0..5).prop_map(Ast::Alt),
            sequences.clone(),
            sequences,
            inner.clone().prop_map(|a| Ast::Star(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Plus(Box::new(a))),
            inner.clone().prop_map(|a| Ast::Opt(Box::new(a))),
            // `extra` 3 stands for an unbounded repeat.
            (inner, 0u32..4, 0u32..4).prop_map(|(a, min, extra)| Ast::Repeat {
                node: Box::new(a),
                min,
                max: (extra < 3).then_some(min + extra),
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn moving_optimiser_returns_the_cloning_optimisers_tree(ast in arb_ast()) {
        assert_same_tree(&ast);
    }

    #[test]
    fn the_same_on_parsed_soup(
        s in prop::collection::vec(prop::sample::select(br"abc()|*+?[]-{,}12".to_vec()), 0..40)
    ) {
        if let Ok(ast) = parse(std::str::from_utf8(&s).unwrap()) {
            assert_same_tree(&ast);
        }
    }
}

#[test]
fn the_same_where_a_rewrite_needs_a_later_pass() {
    // Factoring leaves `(?:b|c)|d` nested in the second alternation, and
    // `cd` in the first sequence; the next pass flattens them.
    for pattern in ["a(?:b|c)|ad", "abcd|ab(?:cd|ce)", "(?:(?:a{2}){3}){2}|(?:a*)+"] {
        assert_same_tree(&parse(pattern).unwrap());
    }
}

#[test]
fn the_same_on_every_applications_rules_and_their_unions() {
    for kind in AppKind::ALL {
        for (rules, seed) in [(8, 0xb17), (32, 0xb17), (64, 0xb18)] {
            let config = WorkloadConfig { regexes: rules, input_len: 64, seed, witness_density: 0.05 };
            let asts = generate(kind, &config).asts;
            asts.iter().for_each(assert_same_tree);
            // An engine optimises each rule, then each group's union of
            // optimised rules: unions of 2, 8 and every rule.
            let optimised: Vec<Ast> = asts.iter().map(optimize).collect();
            for size in [2, 8, rules] {
                for members in optimised.chunks(size) {
                    assert_same_tree(&Ast::Alt(members.to_vec()));
                }
            }
            assert_same_tree(&Ast::Alt(asts));
        }
    }
}
