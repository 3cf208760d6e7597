//! The icgrep-like CPU bitstream baseline.
//!
//! icgrep compiles regexes to bitstream programs and executes them on the
//! CPU, one instruction at a time over full-length streams. This engine
//! reuses the exact lowering of `bitgen-ir` and its whole-stream
//! interpreter, which runs on the word-group kernels of
//! `bitgen-bitstream` — so the stand-in is SIMD-shaped like icgrep
//! itself (group-unrolled word loops plus the SWAR s2p transpose),
//! measured in wall-clock time by the harness.

use bitgen_bitstream::{Basis, BitStream};
use bitgen_ir::{interpret, lower_group, Program};
use bitgen_regex::Ast;

/// A CPU bitstream engine over pre-lowered regex groups.
#[derive(Debug, Clone)]
pub struct CpuBitstreamEngine {
    programs: Vec<Program>,
}

impl CpuBitstreamEngine {
    /// Lowers each group of regexes into one bitstream program.
    ///
    /// # Examples
    ///
    /// ```
    /// use bitgen_regex::parse;
    /// use bitgen_baselines::CpuBitstreamEngine;
    ///
    /// let groups = vec![vec![parse("ab").unwrap()], vec![parse("bc").unwrap()]];
    /// let engine = CpuBitstreamEngine::new(&groups);
    /// assert_eq!(engine.run(b"abc").positions(), vec![1, 2]);
    /// ```
    pub fn new(groups: &[Vec<Ast>]) -> CpuBitstreamEngine {
        CpuBitstreamEngine { programs: groups.iter().map(|g| lower_group(g)).collect() }
    }

    /// Number of compiled programs (groups).
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Total instructions across all programs.
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Program::op_count).sum()
    }

    /// Runs all programs over `input`, returning the union match-end
    /// stream (bit *i* ⇔ some regex matches ending at byte *i*).
    pub fn run(&self, input: &[u8]) -> BitStream {
        let basis = Basis::transpose(input);
        let mut ends = BitStream::zeros(input.len());
        for prog in &self.programs {
            let r = interpret(prog, &basis);
            for out in &r.outputs {
                // Stream length is input+1; or_clipped drops the peek bit.
                ends.or_clipped(out);
            }
        }
        ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgen_regex::{multi_match_ends, parse};

    #[test]
    fn agrees_with_oracle() {
        let pats = ["a(bc)*d", "cat", "[0-9]+x"];
        let asts: Vec<Ast> = pats.iter().map(|p| parse(p).unwrap()).collect();
        let engine = CpuBitstreamEngine::new(std::slice::from_ref(&asts));
        let input = b"abcbcd cat 42x";
        assert_eq!(engine.run(input).positions(), multi_match_ends(&asts, input));
    }

    #[test]
    fn grouping_does_not_change_results() {
        let pats = ["ab", "bc", "c+d"];
        let asts: Vec<Ast> = pats.iter().map(|p| parse(p).unwrap()).collect();
        let one = CpuBitstreamEngine::new(std::slice::from_ref(&asts));
        let many = CpuBitstreamEngine::new(&asts.iter().map(|a| vec![a.clone()]).collect::<Vec<_>>());
        assert_eq!(one.program_count(), 1);
        assert_eq!(many.program_count(), 3);
        let input = b"abcd bccd";
        assert_eq!(one.run(input).positions(), many.run(input).positions());
    }

    #[test]
    fn empty_input() {
        let engine = CpuBitstreamEngine::new(&[vec![parse("a").unwrap()]]);
        assert!(!engine.run(b"").any());
    }
}
