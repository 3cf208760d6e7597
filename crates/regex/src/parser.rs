//! Recursive-descent parser for the regex grammar of Listing 1.
//!
//! Supported syntax: byte literals with the usual escapes (`\n`, `\t`, `\r`,
//! `\0`, `\xNN`, escaped metacharacters), the predefined classes `\d`, `\D`,
//! `\w`, `\W`, `\s`, `\S`, the dot `.`, bracketed classes `[...]`/`[^...]`
//! with ranges, grouping `(...)`/`(?:...)`, alternation `|`, and the
//! quantifiers `*`, `+`, `?`, `{n}`, `{n,}`, `{n,m}`.
//!
//! Anchors and back-references are outside the paper's grammar and are
//! rejected with a descriptive error.

use crate::ast::Ast;
use crate::class::ByteSet;
use std::error::Error;
use std::fmt;

/// The reason a regex failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The pattern ended in the middle of a construct.
    UnexpectedEnd,
    /// A byte that cannot start or continue a construct at this position.
    UnexpectedChar(u8),
    /// `)` with no matching `(`.
    UnbalancedParen,
    /// `(` with no matching `)`.
    UnclosedParen,
    /// `[` with no matching `]`.
    UnclosedClass,
    /// A `{n,m}` repetition with `n > m`.
    InvertedRepeat {
        /// Lower bound.
        min: u32,
        /// Upper bound.
        max: u32,
    },
    /// A repetition bound too large to compile sensibly.
    RepeatTooLarge(u32),
    /// Malformed `{...}` contents.
    BadRepeat,
    /// A quantifier with nothing to repeat (e.g. leading `*`).
    NothingToRepeat,
    /// Invalid escape sequence.
    BadEscape,
    /// An empty `[]` class (or a fully-negated one).
    EmptyClass,
    /// Groups nested deeper than `MAX_NESTING` (200) — a pathological (or
    /// adversarial) pattern that would otherwise exhaust the stack of the
    /// recursive-descent parser and every recursive pass after it.
    NestingTooDeep,
    /// Syntax the engine does not support (anchors, backreferences, ...).
    Unsupported(&'static str),
}

/// Error produced when parsing a regular expression fails.
///
/// Carries the byte offset at which the problem was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    kind: ParseErrorKind,
    position: usize,
}

impl ParseError {
    /// The reason the parse failed.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }

    /// Byte offset into the pattern at which the error was detected.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.position;
        match &self.kind {
            ParseErrorKind::UnexpectedEnd => write!(f, "unexpected end of pattern at {p}"),
            ParseErrorKind::UnexpectedChar(b) => {
                write!(f, "unexpected character {:?} at {p}", *b as char)
            }
            ParseErrorKind::UnbalancedParen => write!(f, "unbalanced ')' at {p}"),
            ParseErrorKind::UnclosedParen => write!(f, "unclosed group opened at {p}"),
            ParseErrorKind::UnclosedClass => write!(f, "unclosed character class at {p}"),
            ParseErrorKind::InvertedRepeat { min, max } => {
                write!(f, "repetition bound {{{min},{max}}} is inverted at {p}")
            }
            ParseErrorKind::RepeatTooLarge(n) => {
                write!(f, "repetition bound {n} exceeds the supported maximum at {p}")
            }
            ParseErrorKind::BadRepeat => write!(f, "malformed repetition at {p}"),
            ParseErrorKind::NothingToRepeat => write!(f, "quantifier with nothing to repeat at {p}"),
            ParseErrorKind::BadEscape => write!(f, "invalid escape sequence at {p}"),
            ParseErrorKind::EmptyClass => write!(f, "empty character class at {p}"),
            ParseErrorKind::NestingTooDeep => {
                write!(f, "groups nested deeper than {MAX_NESTING} at {p}")
            }
            ParseErrorKind::Unsupported(what) => write!(f, "unsupported syntax ({what}) at {p}"),
        }
    }
}

impl Error for ParseError {}

/// Largest repetition bound accepted by the parser.
///
/// Bounded repetitions are unrolled during lowering (Fig. 2d), so gigantic
/// bounds would explode the program; real rule sets stay far below this.
pub const MAX_REPEAT: u32 = 1000;

/// Deepest group nesting the parser accepts.
///
/// The parser, the lowering, and the AST passes are all recursive; a cap
/// keeps `(((((...)))))` from overflowing the stack. Real rule sets nest a
/// handful of levels deep.
pub const MAX_NESTING: usize = 200;

/// Parses a regular expression into an [`Ast`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found, with its
/// byte offset in the pattern.
///
/// # Examples
///
/// ```
/// use bitgen_regex::parse;
///
/// let ast = parse(r"[a-z]+@[a-z]+\.[a-z]{2,4}")?;
/// assert!(ast.has_unbounded_repeat());
/// # Ok::<(), bitgen_regex::ParseError>(())
/// ```
pub fn parse(pattern: &str) -> Result<Ast, ParseError> {
    parse_bytes(pattern.as_bytes())
}

/// Parses a regular expression given as raw bytes.
///
/// Identical to [`parse`] but accepts non-UTF-8 patterns, which occur in
/// binary signature rule sets (e.g. antivirus byte sequences).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse_bytes(pattern: &[u8]) -> Result<Ast, ParseError> {
    let mut p = Parser { input: pattern, pos: 0, depth: 0 };
    let ast = p.alternation()?;
    match p.peek() {
        None => Ok(ast),
        Some(b')') => Err(p.err(ParseErrorKind::UnbalancedParen)),
        Some(b) => Err(p.err(ParseErrorKind::UnexpectedChar(b))),
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Current group-nesting depth, capped at [`MAX_NESTING`].
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { kind, position: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// alternation := concat ('|' concat)*
    fn alternation(&mut self) -> Result<Ast, ParseError> {
        let mut parts = vec![self.concat()?];
        while self.eat(b'|') {
            parts.push(self.concat()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("one element"))
        } else {
            Ok(Ast::Alt(parts))
        }
    }

    /// concat := repeated*
    fn concat(&mut self) -> Result<Ast, ParseError> {
        let mut parts = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') | Some(b')') => break,
                _ => parts.push(self.repeated()?),
            }
        }
        match parts.len() {
            0 => Ok(Ast::Empty),
            1 => Ok(parts.pop().expect("one element")),
            _ => Ok(Ast::Concat(parts)),
        }
    }

    /// repeated := atom quantifier*
    fn repeated(&mut self) -> Result<Ast, ParseError> {
        let mut node = self.atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.check_repeatable(&node)?;
                    self.bump();
                    node = Ast::Star(Box::new(node));
                }
                Some(b'+') => {
                    self.check_repeatable(&node)?;
                    self.bump();
                    node = Ast::Plus(Box::new(node));
                }
                Some(b'?') => {
                    self.check_repeatable(&node)?;
                    self.bump();
                    node = Ast::Opt(Box::new(node));
                }
                Some(b'{') => {
                    // `{` only starts a quantifier when it parses as one;
                    // otherwise it is a literal brace (common in rules).
                    let save = self.pos;
                    match self.try_counted() {
                        Ok(Some((min, max))) => {
                            self.check_repeatable(&node)?;
                            node = Ast::Repeat { node: Box::new(node), min, max };
                        }
                        Ok(None) => {
                            self.pos = save;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
                _ => break,
            }
        }
        Ok(node)
    }

    fn check_repeatable(&self, node: &Ast) -> Result<(), ParseError> {
        if matches!(node, Ast::Empty) {
            Err(self.err(ParseErrorKind::NothingToRepeat))
        } else {
            Ok(())
        }
    }

    /// Attempts to parse `{n}`, `{n,}`, or `{n,m}` starting at `{`.
    ///
    /// Returns `Ok(None)` when the braces do not form a quantifier, in which
    /// case the caller treats `{` as a literal.
    fn try_counted(&mut self) -> Result<Option<(u32, Option<u32>)>, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'{'));
        self.bump();
        let min = match self.number() {
            Some(n) => n,
            None => return Ok(None),
        };
        if min > MAX_REPEAT {
            return Err(self.err(ParseErrorKind::RepeatTooLarge(min)));
        }
        if self.eat(b'}') {
            return Ok(Some((min, Some(min))));
        }
        if !self.eat(b',') {
            return Ok(None);
        }
        if self.eat(b'}') {
            return Ok(Some((min, None)));
        }
        let max = match self.number() {
            Some(n) => n,
            None => return Ok(None),
        };
        if max > MAX_REPEAT {
            return Err(self.err(ParseErrorKind::RepeatTooLarge(max)));
        }
        if !self.eat(b'}') {
            return Ok(None);
        }
        if min > max {
            return Err(self.err(ParseErrorKind::InvertedRepeat { min, max }));
        }
        Ok(Some((min, Some(max))))
    }

    fn number(&mut self) -> Option<u32> {
        let start = self.pos;
        let mut val: u32 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            self.bump();
            val = val.saturating_mul(10).saturating_add((b - b'0') as u32);
        }
        if self.pos == start {
            None
        } else {
            Some(val)
        }
    }

    /// atom := '(' alternation ')' | class | '.' | escape | literal byte
    fn atom(&mut self) -> Result<Ast, ParseError> {
        match self.peek() {
            None => Err(self.err(ParseErrorKind::UnexpectedEnd)),
            Some(b'(') => {
                let open = self.pos;
                self.bump();
                if self.depth >= MAX_NESTING {
                    return Err(self.err(ParseErrorKind::NestingTooDeep));
                }
                // Swallow `?:` of non-capturing groups; reject other `(?`
                // extensions.
                if self.peek() == Some(b'?') {
                    self.bump();
                    if !self.eat(b':') {
                        return Err(self.err(ParseErrorKind::Unsupported("(?...) extension")));
                    }
                }
                self.depth += 1;
                let inner = self.alternation()?;
                self.depth -= 1;
                if !self.eat(b')') {
                    return Err(ParseError {
                        kind: ParseErrorKind::UnclosedParen,
                        position: open,
                    });
                }
                Ok(inner)
            }
            Some(b'[') => self.class(),
            Some(b'.') => {
                self.bump();
                Ok(Ast::Class(ByteSet::dot()))
            }
            Some(b'\\') => {
                let set = self.escape(EscapePos::Outside)?;
                Ok(Ast::Class(set))
            }
            Some(b'^') | Some(b'$') => Err(self.err(ParseErrorKind::Unsupported("anchor"))),
            Some(b'*') | Some(b'+') | Some(b'?') => {
                Err(self.err(ParseErrorKind::NothingToRepeat))
            }
            Some(b) => {
                self.bump();
                Ok(Ast::Class(ByteSet::singleton(b)))
            }
        }
    }

    /// class := '[' '^'? item+ ']'
    fn class(&mut self) -> Result<Ast, ParseError> {
        let open = self.pos;
        debug_assert_eq!(self.peek(), Some(b'['));
        self.bump();
        let negate = self.eat(b'^');
        let mut set = ByteSet::new();
        let mut first = true;
        loop {
            match self.peek() {
                None => {
                    return Err(ParseError {
                        kind: ParseErrorKind::UnclosedClass,
                        position: open,
                    })
                }
                Some(b']') if !first => {
                    self.bump();
                    break;
                }
                _ => {
                    let item = self.class_item()?;
                    set = set.union(&item);
                    first = false;
                }
            }
        }
        let set = if negate { set.complement() } else { set };
        if set.is_empty() {
            return Err(ParseError { kind: ParseErrorKind::EmptyClass, position: open });
        }
        Ok(Ast::Class(set))
    }

    /// One class item: a byte, an escape, or a range `a-b`.
    fn class_item(&mut self) -> Result<ByteSet, ParseError> {
        let lo = self.class_byte()?;
        let lo = match lo {
            ClassByte::Single(b) => b,
            ClassByte::Set(set) => return Ok(set),
        };
        // A `-` forms a range unless it is the last item before `]`.
        if self.peek() == Some(b'-') && self.input.get(self.pos + 1) != Some(&b']') {
            self.bump();
            let hi = match self.class_byte()? {
                ClassByte::Single(b) => b,
                ClassByte::Set(_) => return Err(self.err(ParseErrorKind::BadEscape)),
            };
            if lo > hi {
                return Err(self.err(ParseErrorKind::UnexpectedChar(hi)));
            }
            Ok(ByteSet::range(lo, hi))
        } else {
            Ok(ByteSet::singleton(lo))
        }
    }

    fn class_byte(&mut self) -> Result<ClassByte, ParseError> {
        match self.peek() {
            None => Err(self.err(ParseErrorKind::UnexpectedEnd)),
            Some(b'\\') => {
                let set = self.escape(EscapePos::Inside)?;
                match set.as_singleton() {
                    Some(b) => Ok(ClassByte::Single(b)),
                    None => Ok(ClassByte::Set(set)),
                }
            }
            Some(b) => {
                self.bump();
                Ok(ClassByte::Single(b))
            }
        }
    }

    /// Parses an escape sequence starting at `\`.
    fn escape(&mut self, _pos: EscapePos) -> Result<ByteSet, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'\\'));
        self.bump();
        let b = self.bump().ok_or_else(|| self.err(ParseErrorKind::UnexpectedEnd))?;
        let set = match b {
            b'n' => ByteSet::singleton(b'\n'),
            b'r' => ByteSet::singleton(b'\r'),
            b't' => ByteSet::singleton(b'\t'),
            b'0' => ByteSet::singleton(0),
            b'a' => ByteSet::singleton(0x07),
            b'f' => ByteSet::singleton(0x0c),
            b'v' => ByteSet::singleton(0x0b),
            b'd' => ByteSet::digit(),
            b'D' => ByteSet::digit().complement(),
            b'w' => ByteSet::word(),
            b'W' => ByteSet::word().complement(),
            b's' => ByteSet::space(),
            b'S' => ByteSet::space().complement(),
            b'x' => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                ByteSet::singleton(hi * 16 + lo)
            }
            b'1'..=b'9' => return Err(self.err(ParseErrorKind::Unsupported("backreference"))),
            b'b' | b'B' | b'A' | b'z' | b'Z' => {
                return Err(self.err(ParseErrorKind::Unsupported("zero-width assertion")))
            }
            // Escaped punctuation and metacharacters stand for themselves.
            _ if b.is_ascii_punctuation() => ByteSet::singleton(b),
            _ => return Err(self.err(ParseErrorKind::BadEscape)),
        };
        Ok(set)
    }

    fn hex_digit(&mut self) -> Result<u8, ParseError> {
        let b = self.bump().ok_or_else(|| self.err(ParseErrorKind::UnexpectedEnd))?;
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(self.err(ParseErrorKind::BadEscape)),
        }
    }
}

enum ClassByte {
    Single(u8),
    Set(ByteSet),
}

#[derive(Clone, Copy)]
enum EscapePos {
    Outside,
    Inside,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(b: u8) -> Ast {
        Ast::Class(ByteSet::singleton(b))
    }

    #[test]
    fn literal() {
        assert_eq!(parse("cat").unwrap(), Ast::literal(b"cat"));
        assert_eq!(parse("a").unwrap(), class(b'a'));
        assert_eq!(parse("").unwrap(), Ast::Empty);
    }

    #[test]
    fn alternation_and_grouping() {
        let re = parse("ab|cd").unwrap();
        assert_eq!(re, Ast::Alt(vec![Ast::literal(b"ab"), Ast::literal(b"cd")]));
        let grouped = parse("a(b|c)d").unwrap();
        assert_eq!(
            grouped,
            Ast::Concat(vec![
                class(b'a'),
                Ast::Alt(vec![class(b'b'), class(b'c')]),
                class(b'd'),
            ])
        );
        assert_eq!(parse("(?:ab)").unwrap(), Ast::literal(b"ab"));
    }

    #[test]
    fn quantifiers() {
        assert_eq!(parse("a*").unwrap(), Ast::Star(Box::new(class(b'a'))));
        assert_eq!(parse("a+").unwrap(), Ast::Plus(Box::new(class(b'a'))));
        assert_eq!(parse("a?").unwrap(), Ast::Opt(Box::new(class(b'a'))));
        assert_eq!(
            parse("a{2,5}").unwrap(),
            Ast::Repeat { node: Box::new(class(b'a')), min: 2, max: Some(5) }
        );
        assert_eq!(
            parse("a{3}").unwrap(),
            Ast::Repeat { node: Box::new(class(b'a')), min: 3, max: Some(3) }
        );
        assert_eq!(
            parse("a{2,}").unwrap(),
            Ast::Repeat { node: Box::new(class(b'a')), min: 2, max: None }
        );
    }

    #[test]
    fn stacked_quantifiers() {
        // `(a+)?` written without a group: quantifiers stack postfix.
        assert_eq!(parse("a+?").unwrap(), Ast::Opt(Box::new(Ast::Plus(Box::new(class(b'a'))))));
    }

    #[test]
    fn paper_example() {
        // The running example of the paper, /a(bc)*d/.
        let re = parse("a(bc)*d").unwrap();
        assert_eq!(
            re,
            Ast::Concat(vec![
                class(b'a'),
                Ast::Star(Box::new(Ast::literal(b"bc"))),
                class(b'd'),
            ])
        );
    }

    #[test]
    fn classes() {
        assert_eq!(parse("[a-z]").unwrap(), Ast::Class(ByteSet::range(b'a', b'z')));
        assert_eq!(
            parse("[a-z0-9]").unwrap(),
            Ast::Class(ByteSet::range(b'a', b'z').union(&ByteSet::range(b'0', b'9')))
        );
        assert_eq!(
            parse("[^a]").unwrap(),
            Ast::Class(ByteSet::singleton(b'a').complement())
        );
        // `]` first is literal; `-` last is literal.
        assert_eq!(
            parse("[]a]").unwrap(),
            Ast::Class(ByteSet::from_bytes([b']', b'a']))
        );
        assert_eq!(
            parse("[a-]").unwrap(),
            Ast::Class(ByteSet::from_bytes([b'a', b'-']))
        );
    }

    #[test]
    fn class_with_escapes() {
        assert_eq!(
            parse(r"[\d_]").unwrap(),
            Ast::Class(ByteSet::digit().union(&ByteSet::singleton(b'_')))
        );
        assert_eq!(
            parse(r"[\x41-\x43]").unwrap(),
            Ast::Class(ByteSet::range(b'A', b'C'))
        );
        assert_eq!(parse(r"[\]]").unwrap(), Ast::Class(ByteSet::singleton(b']')));
    }

    #[test]
    fn dot_and_predefined() {
        assert_eq!(parse(".").unwrap(), Ast::Class(ByteSet::dot()));
        assert_eq!(parse(r"\d").unwrap(), Ast::Class(ByteSet::digit()));
        assert_eq!(parse(r"\W").unwrap(), Ast::Class(ByteSet::word().complement()));
    }

    #[test]
    fn escapes() {
        assert_eq!(parse(r"\.").unwrap(), class(b'.'));
        assert_eq!(parse(r"\\").unwrap(), class(b'\\'));
        assert_eq!(parse(r"\x00").unwrap(), class(0));
        assert_eq!(parse(r"\xff").unwrap(), class(0xff));
        assert_eq!(parse(r"\n").unwrap(), class(b'\n'));
    }

    #[test]
    fn literal_brace() {
        // `{` that is not a quantifier is a literal.
        assert_eq!(parse("a{b").unwrap(), Ast::literal(b"a{b"));
        // A leading `{` has nothing to quantify and is taken literally.
        assert_eq!(parse("{2}").unwrap(), Ast::literal(b"{2}"));
        assert_eq!(parse("a{,3}").unwrap(), Ast::literal(b"a{,3}"));
    }

    #[test]
    fn errors() {
        assert_eq!(parse("(a").unwrap_err().kind(), &ParseErrorKind::UnclosedParen);
        assert_eq!(parse("a)").unwrap_err().kind(), &ParseErrorKind::UnbalancedParen);
        assert_eq!(parse("[a").unwrap_err().kind(), &ParseErrorKind::UnclosedClass);
        assert_eq!(parse("*a").unwrap_err().kind(), &ParseErrorKind::NothingToRepeat);
        assert_eq!(
            parse("a{5,2}").unwrap_err().kind(),
            &ParseErrorKind::InvertedRepeat { min: 5, max: 2 }
        );
        assert_eq!(
            parse("a{2000}").unwrap_err().kind(),
            &ParseErrorKind::RepeatTooLarge(2000)
        );
        assert_eq!(parse(r"\q").unwrap_err().kind(), &ParseErrorKind::BadEscape);
        assert_eq!(parse(r"\x4g").unwrap_err().kind(), &ParseErrorKind::BadEscape);
        assert_eq!(parse("^a").unwrap_err().kind(), &ParseErrorKind::Unsupported("anchor"));
        assert_eq!(
            parse(r"(a)\1").unwrap_err().kind(),
            &ParseErrorKind::Unsupported("backreference")
        );
    }

    #[test]
    fn error_positions() {
        let e = parse("abc)").unwrap_err();
        assert_eq!(e.position(), 3);
        let e = parse("ab(cd").unwrap_err();
        assert_eq!(e.position(), 2);
    }

    #[test]
    fn error_display_is_informative() {
        let e = parse("(a").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("unclosed"), "got: {msg}");
    }

    #[test]
    fn display_round_trips() {
        for pat in [
            "cat",
            "a(bc)*d",
            "(abc)|d",
            "[a-z0-9]+@[a-z0-9]+",
            r"a\.b",
            "x{2,7}",
            "(ab|cd)+e?",
            ".",
            "[^a-z]",
        ] {
            let ast = parse(pat).unwrap();
            let printed = ast.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
            assert_eq!(ast, reparsed, "round trip of {pat:?} via {printed:?}");
        }
    }

    #[test]
    fn parse_bytes_accepts_non_utf8() {
        let re = parse_bytes(&[0xfe, 0xff]).unwrap();
        assert_eq!(
            re,
            Ast::Concat(vec![
                Ast::Class(ByteSet::singleton(0xfe)),
                Ast::Class(ByteSet::singleton(0xff)),
            ])
        );
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let pat = format!("{}a{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert!(parse(&pat).is_ok());
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        // Must return NestingTooDeep, not blow the parser's stack.
        let pat = format!("{}a{}", "(".repeat(50_000), ")".repeat(50_000));
        let err = parse(&pat).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::NestingTooDeep);
        assert!(err.to_string().contains("nested deeper"));
    }
}
