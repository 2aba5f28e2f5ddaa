//! The eager reference engine, without a knob: [`Eager`] scores exactly
//! like the policy it wraps but leaves [`ShedPolicy::deferrable_priority`]
//! at its default `false`, so an engine running it scores every arrival,
//! keeps every heap and rebuilds every window at every rollover — what
//! every engine did before priorities could be owed (DESIGN.md §16).
//!
//! Not a module of any crate: `mstream-core`'s unit tests, the
//! `deferred_priorities` integration test and `mstream-audit` each include
//! this file by `#[path]`, so the reference exists once and ships in no
//! library.

use mstream_shed_policies::{PriorityCtx, Requirements, ShedPolicy};
use mstream_types::Tuple;
use mstream_window::QueueVictim;

/// `policy`, scored eagerly.
pub struct Eager(pub Box<dyn ShedPolicy>);

impl ShedPolicy for Eager {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn clone_box(&self) -> Box<dyn ShedPolicy> {
        Box::new(Eager(self.0.clone_box()))
    }

    fn requirements(&self) -> Requirements {
        self.0.requirements()
    }

    fn window_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple, produced: u64) -> f64 {
        self.0.window_priority(ctx, tuple, produced)
    }

    fn window_priority_with_state(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        tuple: &Tuple,
        produced: u64,
    ) -> (f64, f64) {
        self.0.window_priority_with_state(ctx, tuple, produced)
    }

    fn refresh_priority(&self, state: f64, produced: u64) -> f64 {
        self.0.refresh_priority(state, produced)
    }

    fn groupable_estimate(&self) -> bool {
        self.0.groupable_estimate()
    }

    fn window_estimate(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple) -> f64 {
        self.0.window_estimate(ctx, tuple)
    }

    fn window_priority_from_estimate(
        &mut self,
        ctx: &mut PriorityCtx<'_>,
        tuple: &Tuple,
        produced: u64,
        estimate: f64,
    ) -> (f64, f64) {
        self.0
            .window_priority_from_estimate(ctx, tuple, produced, estimate)
    }

    fn queue_priority(&mut self, ctx: &mut PriorityCtx<'_>, tuple: &Tuple) -> f64 {
        self.0.queue_priority(ctx, tuple)
    }

    fn queue_victim(&self) -> QueueVictim {
        self.0.queue_victim()
    }
}
