//! Prepared streaming programs: everything about a stream program that
//! does not depend on the input, derived once instead of once per window.

use crate::engine::{execute_streaming_window, ExecConfig, ExecError, ExecOutcome, ExecScratch};
use bitgen_bitstream::{Basis, CcCode};
use bitgen_ir::{ByteSet, CarryLayout, CarryState, Op, Program, RunControl};
use std::collections::HashMap;
use std::sync::Arc;

/// The tables a streaming window reads instead of re-deriving: the class
/// circuits (one per distinct byte class, shared by the programs prepared
/// together — an engine's groups reuse most of their classes) and the
/// carry layout.
#[derive(Debug, Clone)]
pub(crate) struct StreamTables {
    circuits: Arc<HashMap<ByteSet, CcCode>>,
    pub(crate) layout: CarryLayout,
}

impl StreamTables {
    pub(crate) fn of(program: &Program) -> StreamTables {
        StreamTables::of_all(std::slice::from_ref(program)).remove(0)
    }

    fn of_all(programs: &[Program]) -> Vec<StreamTables> {
        let mut circuits = HashMap::new();
        for program in programs {
            program.for_each_op(&mut |op| {
                if let Op::MatchCc { class, .. } = op {
                    circuits.entry(*class).or_insert_with(|| CcCode::for_class(class));
                }
            });
        }
        let circuits = Arc::new(circuits);
        programs
            .iter()
            .map(|p| StreamTables { circuits: Arc::clone(&circuits), layout: CarryLayout::of(p) })
            .collect()
    }

    pub(crate) fn circuit(&self, class: &ByteSet) -> Option<&CcCode> {
        self.circuits.get(class)
    }
}

/// A stream program together with its input-independent tables — what an
/// engine keeps resident so that a streaming window only executes.
///
/// [`PreparedProgram::execute_window`] and the one-shot
/// [`crate::execute_prepared_with`]`(.., Some(carry))` run the same body;
/// the latter derives the tables for that one call.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    program: Program,
    tables: StreamTables,
}

impl PreparedProgram {
    /// Prepares an engine's *untransformed* programs for streaming; they
    /// share one class-circuit table.
    pub fn new_all(programs: Vec<Program>) -> Vec<PreparedProgram> {
        let tables = StreamTables::of_all(&programs);
        programs
            .into_iter()
            .zip(tables)
            .map(|(program, tables)| PreparedProgram { program, tables })
            .collect()
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The program's carry layout: build states with
    /// [`CarryState::for_layout`], check them with
    /// [`CarryState::validate`].
    pub fn carry_layout(&self) -> &CarryLayout {
        &self.tables.layout
    }

    /// Executes one streaming window over a chunk basis — see
    /// [`crate::execute_prepared_with`] for the carry contract and
    /// [`crate::execute_prepared_ctl`] for the errors.
    ///
    /// # Errors
    ///
    /// Same as [`crate::execute_prepared_ctl`] with a carry state.
    pub fn execute_window(
        &self,
        basis: &Basis,
        config: &ExecConfig,
        scratch: &mut ExecScratch,
        ctl: &RunControl,
        carry: &mut CarryState,
    ) -> Result<ExecOutcome, ExecError> {
        execute_streaming_window(&self.program, &self.tables, basis, config, scratch, ctl, carry)
    }
}
