//! PIM command schedulers.
//!
//! Three controller designs are modeled (paper §V):
//!
//! * [`SchedulerKind::Static`] — the conventional in-order controller that
//!   separates consecutive commands by worst-case gaps derived from command
//!   execution times, with no per-entry dependency tracking.
//! * [`SchedulerKind::PingPong`] — the prior-work double-buffering scheme:
//!   I/O and MAC may overlap only when touching different buffer *halves*;
//!   hand-offs between halves stall (modeled as half-granular dependency
//!   tracking).
//! * [`SchedulerKind::Dcs`] — PIMphony's Dynamic Command Scheduling:
//!   per-entry D-Table/S-Table tracking, split I/O and compute queues with
//!   out-of-order issue across queues, and the `is-MAC` fast path that lets
//!   back-to-back MACs on one OBuf entry issue at `t_CCDS`.
//!
//! All schedulers only reorder *timing*; they never change results. The
//! [`crate::checker`] module replays any schedule against the hazard rules
//! to prove this.

mod dynamic;
mod static_sched;

pub use dynamic::{DynamicScheduler, Tracking};
pub use static_sched::StaticScheduler;

use crate::geometry::Geometry;
use crate::report::ExecutionReport;
use crate::timing::Timing;
use pim_isa::command::CommandStream;

/// Which controller scheduling policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Conservative in-order issue with type-derived gaps.
    Static,
    /// Double-buffered overlap at buffer-half granularity.
    PingPong,
    /// PIMphony's dependency-aware dynamic scheduling.
    Dcs,
}

impl SchedulerKind {
    /// All scheduler kinds, for sweeps.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Static,
        SchedulerKind::PingPong,
        SchedulerKind::Dcs,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Static => "static",
            SchedulerKind::PingPong => "ping-pong",
            SchedulerKind::Dcs => "dcs",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Schedules `stream` on one channel under the given policy.
///
/// # Example
///
/// ```
/// use pim_isa::command::{CommandStream, PimCommand};
/// use pim_sim::{schedule, Geometry, SchedulerKind, Timing};
///
/// let mut s = CommandStream::new();
/// s.push(PimCommand::wr_inp(0, 0, 0));
/// s.push(PimCommand::mac(1, 0, 0, 0, 0));
/// s.push(PimCommand::rd_out(2, 0, 0));
/// let report = schedule(&s, SchedulerKind::Dcs, &Timing::aimx_no_refresh(), &Geometry::pimphony());
/// assert_eq!(report.timings.len(), 3);
/// ```
pub fn schedule(
    stream: &CommandStream,
    kind: SchedulerKind,
    timing: &Timing,
    geometry: &Geometry,
) -> ExecutionReport {
    match kind {
        SchedulerKind::Static => StaticScheduler::new(*timing, *geometry).run(stream),
        SchedulerKind::PingPong => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerHalf).run(stream)
        }
        SchedulerKind::Dcs => {
            DynamicScheduler::new(*timing, *geometry, Tracking::PerEntry).run(stream)
        }
    }
}

/// Shared refresh bookkeeping used by both engines.
#[derive(Debug, Clone)]
pub(crate) struct RefreshState {
    next: u64,
    interval: u64,
    duration: u64,
    pub events: u64,
    pub cycles: u64,
}

impl RefreshState {
    pub(crate) fn new(timing: &Timing) -> Self {
        RefreshState {
            next: if timing.t_refi == 0 {
                u64::MAX
            } else {
                timing.t_refi
            },
            interval: timing.t_refi.max(1),
            duration: timing.t_rfc,
            events: 0,
            cycles: 0,
        }
    }

    /// Pushes a candidate issue time past any refresh windows it collides
    /// with, accounting the stall.
    pub(crate) fn adjust(&mut self, mut t: u64) -> u64 {
        while t >= self.next {
            let window_end = self.next + self.duration;
            if t < window_end {
                self.cycles += window_end - t;
                t = window_end;
            }
            self.next += self.interval;
            self.events += 1;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::PimCommand;

    fn tiny_stream() -> CommandStream {
        let mut s = CommandStream::new();
        s.push(PimCommand::wr_inp(0, 0, 0));
        s.push(PimCommand::mac(1, 0, 0, 0, 0));
        s.push(PimCommand::rd_out(2, 0, 0));
        s
    }

    #[test]
    fn all_schedulers_cover_all_commands() {
        let s = tiny_stream();
        for kind in SchedulerKind::ALL {
            let r = schedule(&s, kind, &Timing::aimx_no_refresh(), &Geometry::pimphony());
            assert_eq!(r.timings.len(), 3, "{kind}");
            assert!(r.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn refresh_pushes_past_window() {
        let t = Timing {
            t_refi: 100,
            t_rfc: 10,
            ..Timing::aimx()
        };
        let mut r = RefreshState::new(&t);
        assert_eq!(r.adjust(50), 50);
        assert_eq!(r.adjust(100), 110);
        assert_eq!(r.events, 1);
        assert_eq!(r.cycles, 10);
        // Next window at 200.
        assert_eq!(r.adjust(150), 150);
        assert_eq!(r.adjust(205), 210);
    }

    #[test]
    fn refresh_disabled_when_refi_zero() {
        let t = Timing::aimx_no_refresh();
        let mut r = RefreshState::new(&t);
        assert_eq!(r.adjust(u64::MAX / 2), u64::MAX / 2);
        assert_eq!(r.events, 0);
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
