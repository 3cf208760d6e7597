//! Pretty-printer producing Listing-3-style renderings of programs.

use crate::program::{Op, Program, Stmt};
use std::fmt::Write as _;

/// Renders a program in the paper's listing notation.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
/// use bitgen_ir::{lower, pretty};
///
/// let prog = lower(&parse("ab").unwrap());
/// let text = pretty(&prog);
/// assert!(text.contains(">> 1"));
/// assert!(text.contains("match("));
/// ```
pub fn pretty(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# streams: {}, outputs: {}",
        program.num_streams(),
        program
            .outputs()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    write_stmts(program.stmts(), 0, &mut out);
    out
}

fn write_stmts(stmts: &[Stmt], indent: usize, out: &mut String) {
    for stmt in stmts {
        (0..indent).for_each(|_| out.push_str("    "));
        match stmt {
            Stmt::Op(op) => {
                let _ = write_op(op, out);
                out.push('\n');
            }
            Stmt::If { cond, body } => {
                let _ = writeln!(out, "if ({cond}):");
                write_stmts(body, indent + 1, out);
            }
            Stmt::While { cond, body } => {
                let _ = writeln!(out, "while ({cond}):");
                write_stmts(body, indent + 1, out);
            }
        }
    }
}

/// Writes `op` in listing notation straight into `out`: fingerprinting
/// renders every instruction of an engine.
fn write_op(op: &Op, out: &mut String) -> std::fmt::Result {
    match op {
        Op::MatchCc { dst, class } => write!(out, "{dst} = match(text, {class})"),
        Op::And { dst, a, b } => write!(out, "{dst} = {a} & {b}"),
        Op::Or { dst, a, b } => write!(out, "{dst} = {a} | {b}"),
        Op::Add { dst, a, b } => write!(out, "{dst} = {a} + {b}"),
        Op::Xor { dst, a, b } => write!(out, "{dst} = {a} ^ {b}"),
        Op::Not { dst, src } => write!(out, "{dst} = ~{src}"),
        Op::Advance { dst, src, amount } => write!(out, "{dst} = {src} >> {amount}"),
        Op::Retreat { dst, src, amount } => write!(out, "{dst} = {src} << {amount}"),
        Op::Assign { dst, src } => write!(out, "{dst} = {src}"),
        Op::Zero { dst } => write!(out, "{dst} = 0"),
        Op::Ones { dst } => write!(out, "{dst} = ~0"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use bitgen_regex::parse;

    #[test]
    fn star_prints_while() {
        let text = pretty(&lower(&parse("a(bc)*d").unwrap()));
        assert!(text.contains("while (S"), "got:\n{text}");
        assert!(text.lines().any(|l| l.starts_with("    ")), "body is indented:\n{text}");
    }

    #[test]
    fn header_lists_outputs() {
        let text = pretty(&lower(&parse("ab").unwrap()));
        assert!(text.starts_with("# streams:"));
        assert!(text.contains("outputs: S"));
    }

    #[test]
    fn all_op_forms_render() {
        use crate::program::{Op, StreamId};
        let s = StreamId(0);
        let d = StreamId(1);
        for (op, needle) in [
            (Op::Xor { dst: d, a: s, b: s }, "^"),
            (Op::Retreat { dst: d, src: s, amount: 2 }, "<< 2"),
            (Op::Zero { dst: d }, "= 0"),
            (Op::Ones { dst: d }, "= ~0"),
            (Op::Assign { dst: d, src: s }, "S1 = S0"),
        ] {
            let mut text = String::new();
            write_op(&op, &mut text).unwrap();
            assert!(text.contains(needle), "{op:?}");
        }
    }
}
