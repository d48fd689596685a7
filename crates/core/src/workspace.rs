//! The buffers of one DagHetPart attempt, kept by its thread from one
//! attempt to the next ([`with_workspace`]).
//!
//! An attempt's block set, the member list of every block, the
//! partitioner's arrays, Step 2's queue, Step 3's quotient and queue
//! and Step 4's quotient and tables all live here between attempts.
//! Every step clears and refills what it takes; nothing here carries a
//! value from one attempt into the next, so an attempt's outcome does
//! not depend on what the thread solved before.

use crate::blocks::{Block, MemberPool};
use crate::steps::swap::Step4;
use crate::steps::{assign, merge, partition};
use std::cell::RefCell;

/// Everything an attempt reuses.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Member lists of the blocks of earlier attempts.
    pub(crate) pool: MemberPool,
    /// The block list of the attempt's block set, empty between
    /// attempts.
    pub(crate) blocks: Vec<Block>,
    pub(crate) step1: partition::Scratch,
    pub(crate) step2: assign::Scratch,
    pub(crate) step3: merge::Scratch,
    pub(crate) step4: Step4,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::default();
}

/// Runs `attempt` on this thread's workspace. An attempt made from
/// inside another one (there is none) would get a fresh workspace
/// rather than a panic.
pub(crate) fn with_workspace<R>(attempt: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|ws| match ws.try_borrow_mut() {
        Ok(mut ws) => attempt(&mut ws),
        Err(_) => attempt(&mut Workspace::default()),
    })
}
