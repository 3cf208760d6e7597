//! Pretty-printer producing Listing-3-style renderings of programs.
//!
//! One writer renders every listing: [`pretty`] and the stream
//! fingerprint, which hashes the listings of an engine's programs, so the
//! bytes are checkpoint format 3's contract (DESIGN.md §11).

use crate::program::{Op, Program, Stmt, StreamId};
use bitgen_regex::{ByteSet, ClassHashing};
use std::collections::HashMap;

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
    let mut listing = Listing::default();
    listing.render(program);
    listing.text
}

/// The listing writer with its buffer and the text of every class it has
/// rendered, kept across programs: an engine's groups share most of
/// their classes, so fingerprinting one renders each class once.
#[derive(Debug, Default)]
pub struct Listing {
    text: String,
    classes: HashMap<ByteSet, Box<str>, ClassHashing>,
}

impl Listing {
    /// `program`'s listing, exactly [`pretty`]'s, rendered into the
    /// writer's buffer (and valid until the next call).
    pub fn render(&mut self, program: &Program) -> &str {
        self.text.clear();
        self.text.push_str("# streams: ");
        push_number(&mut self.text, program.num_streams());
        self.text.push_str(", outputs: ");
        for (i, &output) in program.outputs().iter().enumerate() {
            if i > 0 {
                self.text.push_str(", ");
            }
            push_stream(&mut self.text, output);
        }
        self.text.push('\n');
        self.stmts(program.stmts(), 0);
        &self.text
    }

    fn stmts(&mut self, stmts: &[Stmt], indent: usize) {
        for stmt in stmts {
            (0..indent).for_each(|_| self.text.push_str("    "));
            match stmt {
                Stmt::Op(op) => self.op(op),
                Stmt::If { cond, body } | Stmt::While { cond, body } => {
                    let keyword = if matches!(stmt, Stmt::If { .. }) { "if (" } else { "while (" };
                    self.text.push_str(keyword);
                    push_stream(&mut self.text, *cond);
                    self.text.push_str("):\n");
                    self.stmts(body, indent + 1);
                }
            }
        }
    }

    fn op(&mut self, op: &Op) {
        let out = &mut self.text;
        push_stream(out, op.dst());
        out.push_str(" = ");
        match op {
            Op::MatchCc { class, .. } => {
                let text = self.classes.entry(*class).or_insert_with(|| class.to_string().into());
                out.push_str("match(text, ");
                out.push_str(text);
                out.push(')');
            }
            Op::And { a, b, .. } => push_binary(out, *a, " & ", *b),
            Op::Or { a, b, .. } => push_binary(out, *a, " | ", *b),
            Op::Add { a, b, .. } => push_binary(out, *a, " + ", *b),
            Op::Xor { a, b, .. } => push_binary(out, *a, " ^ ", *b),
            Op::Not { src, .. } => {
                out.push('~');
                push_stream(out, *src);
            }
            Op::Advance { src, amount, .. } => push_shift(out, *src, " >> ", *amount),
            Op::Retreat { src, amount, .. } => push_shift(out, *src, " << ", *amount),
            Op::Assign { src, .. } => push_stream(out, *src),
            Op::Zero { .. } => out.push('0'),
            Op::Ones { .. } => out.push_str("~0"),
        }
        out.push('\n');
    }
}

fn push_binary(out: &mut String, a: StreamId, operator: &str, b: StreamId) {
    push_stream(out, a);
    out.push_str(operator);
    push_stream(out, b);
}

fn push_shift(out: &mut String, src: StreamId, operator: &str, amount: u32) {
    push_stream(out, src);
    out.push_str(operator);
    push_number(out, amount);
}

/// `S` and the stream's number, as [`StreamId`]'s `Display` writes it.
fn push_stream(out: &mut String, stream: StreamId) {
    out.push('S');
    push_number(out, stream.0);
}

/// `n` in decimal.
fn push_number(out: &mut String, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    digits[at..].iter().for_each(|&digit| out.push(char::from(digit)));
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
            let program = Program::new(vec![Stmt::Op(op.clone())], 2, vec![d]);
            let text = pretty(&program);
            assert!(text.contains(needle), "{op:?}");
        }
    }
}
