//! Which groups a batch scan walks, restated from the outside for the
//! suites that check it: a group walks when its fused form is exact,
//! priced on the engine's own rung (a group with an `Add` is priced on
//! DTM- at most) with no loop in a fused kernel. `bitgen`'s
//! `TwinPrice::exact` is the one the scan reads.

use bitgen::{BitGen, Scheme};

/// Whether a scan of `engine` walks group `group` instead of emulating it.
pub fn walks(engine: &BitGen, group: usize) -> bool {
    let mut adds = false;
    let program = engine.stream_programs()[group].program();
    program.for_each_op(&mut |op| adds |= matches!(op, bitgen_ir::Op::Add { .. }));
    match engine.config().scheme {
        Scheme::Sequential | Scheme::Base | Scheme::DtmStatic => true,
        Scheme::Dtm => !adds && !engine.records_frontiers(group),
        Scheme::Sr | Scheme::Zbs => false,
    }
}
