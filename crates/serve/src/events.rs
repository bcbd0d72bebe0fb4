//! The drive protocol both simulators share ([`Driver`], [`DriveState`],
//! [`drive`], [`drive_schedule`]) and the one loop both run a replica's due
//! steps with.
//!
//! **Scheduling.** Neither simulator keeps an event queue. Between two inputs
//! that reach it, a replica's steps are a pure function of its own state, so
//! each simulator runs a replica's due steps in one loop: [`ServeSim`]'s
//! replicas interact only at a driver input, so it runs each replica's steps
//! due before the input. [`ClusterSim`] picks every event the rest of the
//! cluster can see by one linear scan over a handful of sources (the link
//! front, the live prefill replicas, the autoscaler tick and, while a handoff
//! waits or a member drains, the live decode replicas), the scan that also
//! answers [`Driver::next_event_s`]; while no decode step is visible its
//! decode replicas run their steps due before each scanned event in one loop
//! each. Ties break by `(time, class, index)`.
//!
//! **Determinism.** The scan compares the sources' current times, as the
//! simulators computed them, so event order is a pure function of the
//! configuration and the input: no key is cached that could go stale or be
//! lost, and every metric, trace and chaos invariant follows from that order.
//!
//! **Checks.** Debug builds check that a replica's step times do not decrease
//! within a loop, that after a loop no replica still has a step due before its
//! horizon, and that [`ClusterSim`] never dispatches an event before its clock.
//!
//! [`EventQueue`] is a min-heap of [`EventKey`]s that no simulator uses; the
//! repo benchmark still times a push and a pop of it.
//!
//! [`ServeSim`]: crate::ServeSim
//! [`ClusterSim`]: crate::ClusterSim

use crate::replica::{FailoverRequest, Replica};
use crate::request::{CompletedRequest, ServeRequest};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use tlt_obs::{hooks, record, EventKind, ObsEvent, Track, NO_REQ};
use tlt_workload::{ArrivalFeed, RequestArrival};

/// A scheduled event key, ordered by `(time, class, index)`. Time is stored as
/// `f64::to_bits`, which is monotonic for the non-negative finite timestamps
/// the simulators produce, so integer comparison reproduces float comparison
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    time_bits: u64,
    class: u8,
    index: usize,
}

impl EventKey {
    /// Builds a key for an event of `class` on source `index` due at `time_s`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `time_s` is negative or not finite — such a
    /// timestamp would break the `to_bits` ordering argument.
    fn new(time_s: f64, class: u8, index: usize) -> Self {
        debug_assert!(
            time_s >= 0.0 && time_s.is_finite(),
            "event times must be non-negative and finite, got {time_s}"
        );
        EventKey {
            time_bits: time_s.to_bits(),
            class,
            index,
        }
    }

    /// The event's due time in seconds.
    pub fn time_s(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }

    /// The event source index within its class.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Min-heap of [`EventKey`]s. Pushing a key whose time is `f64::MAX` is a
/// no-op (idle sources schedule nothing), so callers can push a source's
/// `next_event_s()` unconditionally.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an event (no-op for `f64::MAX`, the idle sentinel).
    pub fn push(&mut self, time_s: f64, class: u8, index: usize) {
        if time_s < f64::MAX {
            self.heap.push(Reverse(EventKey::new(time_s, class, index)));
        }
    }

    /// Removes and returns the earliest key.
    pub fn pop(&mut self) -> Option<EventKey> {
        self.heap.pop().map(|Reverse(k)| k)
    }
}

/// Typed outcome of a simulation drive call (`advance_before` /
/// `run_until_drained`): either every due event was processed, or the hard
/// event budget tripped and the drive stopped early with events still due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// All events due in the driven window were processed.
    Completed,
    /// The event budget was exhausted with at least one event still due; the
    /// simulator reports it once through the flight recorder and refuses
    /// further progress.
    BudgetExhausted,
}

impl DriveOutcome {
    /// Whether this drive stopped on budget exhaustion.
    pub fn budget_exhausted(&self) -> bool {
        matches!(self, DriveOutcome::BudgetExhausted)
    }
}

/// Hard cap on processed events; prevents pathological configurations from
/// spinning forever.
const MAX_EVENTS: u64 = 200_000_000;

/// What [`ServeSim`](crate::ServeSim) and [`ClusterSim`](crate::ClusterSim)
/// share is state, not control flow: the clock, the completion log, the orphan
/// queue, the fault counters and the event budget.
#[derive(Debug, Clone)]
pub struct DriveState {
    pub(crate) now_s: f64,
    /// Every completion so far, moved out of the stepped replica after each
    /// step and handed to the report, which sorts it by `(finish_s, id)`.
    pub(crate) log: Vec<CompletedRequest>,
    /// Requests waiting for a replica that can take them to come back up.
    pub(crate) orphans: VecDeque<FailoverRequest>,
    pub(crate) requeued: u64,
    pub(crate) crashes: u64,
    pub(crate) restarts: u64,
    events: u64,
    event_budget: u64,
    budget_reported: bool,
}

impl Default for DriveState {
    fn default() -> Self {
        DriveState {
            now_s: 0.0,
            log: Vec::new(),
            orphans: VecDeque::new(),
            requeued: 0,
            crashes: 0,
            restarts: 0,
            events: 0,
            event_budget: MAX_EVENTS,
            budget_reported: false,
        }
    }
}

impl DriveState {
    /// Current simulated time.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Sizes the completion log for `expected` requests in one allocation; past
    /// it the log grows as any `Vec`. A count read from outside input must be
    /// clamped by the caller.
    pub fn reserve_completions(&mut self, expected: usize) {
        self.log.reserve(expected);
    }

    /// Overrides the hard event budget (default 200M). Exposed so tests can
    /// exercise the typed [`DriveOutcome::BudgetExhausted`] path cheaply.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Whether the event budget is spent: the next due event will not be
    /// processed and every drive call returns
    /// [`DriveOutcome::BudgetExhausted`].
    pub fn event_budget_exhausted(&self) -> bool {
        self.events >= self.event_budget
    }

    /// Failed-over (or parked) requests delivered to a replica so far.
    pub fn requeued(&self) -> u64 {
        self.requeued
    }

    /// `(crashes, restarts)` applied so far.
    pub fn fault_counts(&self) -> (u64, u64) {
        (self.crashes, self.restarts)
    }

    /// Requests still parked because no replica could take them.
    pub fn orphaned(&self) -> usize {
        self.orphans.len()
    }

    /// The one budget rule, applied to a due internal event before it is
    /// processed: only such events count (offers and failover deliveries do
    /// not), and the drive stops once `budget` of them have run. Counts the
    /// event and returns `true` when it may run. [`ServeSim`](crate::ServeSim)
    /// runs its steps replica by replica, and [`ClusterSim`](crate::ClusterSim)
    /// its bulk decode steps between two scanned events, so a budget stop
    /// there falls in replica order, not time order.
    pub(crate) fn begin_event(&mut self) -> bool {
        if self.event_budget_exhausted() {
            return false;
        }
        self.events += 1;
        hooks::on_sim_event();
        true
    }

    /// Completes every step of `replica` whose time `due` admits, in time
    /// order, each counted against the event budget; `false` when the budget
    /// stopped it. Debug builds check that its step times do not decrease from
    /// `clock_s`, the clock when the caller's loop began.
    pub(crate) fn run_due_steps(
        &mut self,
        replica: &mut Replica,
        clock_s: f64,
        due: impl Fn(f64) -> bool,
    ) -> bool {
        let mut last_s = clock_s;
        loop {
            let t_step = replica.next_event_s();
            if !due(t_step) {
                return true;
            }
            debug_assert!(
                t_step >= last_s,
                "step of {:?} at {t_step} is before its last event at {last_s}",
                replica.track()
            );
            if !self.begin_event() {
                return false;
            }
            self.complete_step(replica, t_step);
            last_s = t_step;
        }
    }

    /// The body of one replica step due at `t_step`: completions move into
    /// the log after each step, so a replica's buffer never holds more than
    /// one step's, and the clock moves up to the step.
    pub(crate) fn complete_step(&mut self, replica: &mut Replica, t_step: f64) {
        replica.on_step_complete(t_step);
        replica.move_completed_into(&mut self.log);
        self.now_s = self.now_s.max(t_step);
    }

    /// The outcome of a drive stopped by [`DriveState::begin_event`], reported
    /// once through the flight recorder.
    pub(crate) fn budget_outcome(&mut self) -> DriveOutcome {
        if !self.budget_reported {
            self.budget_reported = true;
            record(
                ObsEvent::instant(
                    self.now_s,
                    Track::Frontend,
                    EventKind::BudgetExhausted,
                    NO_REQ,
                )
                .with_args(self.events as f64, self.event_budget as f64),
            );
        }
        DriveOutcome::BudgetExhausted
    }

    /// Records an arrival routed to `target` at `now`; an arrival no replica
    /// can take is parked — never rejected — until a restart delivers it.
    pub(crate) fn admit(&mut self, req: &ServeRequest, now: f64, target: Option<usize>) {
        record(
            ObsEvent::instant(now, Track::Frontend, EventKind::Arrival, req.id).with_args(
                target.map(|i| i as f64).unwrap_or(-1.0),
                req.prompt_len as f64,
            ),
        );
        if target.is_none() {
            self.orphans.push_back(FailoverRequest {
                req: *req,
                generated: 0,
                first_token_s: None,
                admitted_s: None,
                preemptions: 0,
            });
        }
    }
}

/// The surface a simulator is driven through. Both simulators implement it,
/// and [`drive`] / [`drive_schedule`] are the only loops written over it.
///
/// Protocol: advance to `t` ([`Driver::advance_before`] processes every
/// internal event strictly before `t`), apply the arrival or the fault at `t`,
/// repeat in time order, then [`Driver::run_until_drained`]. At equal times a
/// fault goes before an arrival and an arrival before an internal event.
/// Faults address replicas by a stable index and carry their own time, so the
/// caller's clock and the simulator's cannot disagree.
pub trait Driver {
    /// What a finished run reports.
    type Report: std::fmt::Debug;

    /// The state shared by every driver (clock, counters, budget).
    fn state(&self) -> &DriveState;

    /// Mutable access to the shared state (log reservation, event budget).
    fn state_mut(&mut self) -> &mut DriveState;

    /// Every replica ever provisioned, retired ones included, as `(pool
    /// label, index within the pool, replica)` in a fixed order.
    fn members(&self) -> impl Iterator<Item = (&'static str, usize, &Replica)>;

    /// Processes every internal event strictly before `t`.
    fn advance_before(&mut self, t: f64) -> DriveOutcome;

    /// Moves the clock to `t` without processing events (the caller guarantees
    /// none lies in between), so that what is applied next is stamped `t`.
    fn advance_now(&mut self, t: f64) {
        let state = self.state_mut();
        state.now_s = state.now_s.max(t);
    }

    /// Routes one arrival (offered in non-decreasing arrival order, after
    /// advancing to it). Returns the replica it went to, `None` when it was
    /// parked because nothing was up.
    fn offer(&mut self, req: ServeRequest) -> Option<usize>;

    /// Processes internal events until no work is left.
    fn run_until_drained(&mut self) -> DriveOutcome;

    /// Time of the next internal event, `f64::MAX` when idle.
    fn next_event_s(&self) -> f64;

    /// Whether any request is still queued, running, in flight or parked.
    fn has_work(&self) -> bool;

    /// Crashes replica `idx` at `now`; what it held fails over.
    fn crash_replica(&mut self, idx: usize, now: f64);

    /// Restarts replica `idx` at `now` and re-routes parked requests.
    fn restart_replica(&mut self, idx: usize, now: f64);

    /// Sets the step-duration multiplier of replica `idx` (a straggler runs
    /// above 1.0); takes effect from its next scheduled step.
    fn set_slow_factor(&mut self, idx: usize, factor: f64);

    /// Consumes the simulation and builds its report around the completion
    /// log, which becomes the report's `completed` without a copy.
    fn into_report(self) -> Self::Report;

    /// Ids dropped at admission, ascending.
    fn dropped_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .members()
            .flat_map(|(_, _, r)| r.dropped_ids().iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Structural conservation check of every replica's KV pool.
    fn kv_pool_check(&self) -> Result<(), String> {
        self.members()
            .try_for_each(|(pool, i, r)| r.kv_pool_check().map_err(|e| format!("{pool} {i}: {e}")))
    }

    /// Blocks neither free nor reclaimable across all replicas (0 after drain).
    fn kv_pool_leaked(&self) -> usize {
        self.members().map(|(_, _, r)| r.kv_pool_leaked()).sum()
    }

    /// `(pool label, index, peak KV blocks, block budget)` per replica.
    fn kv_peaks(&self) -> Vec<(&'static str, usize, usize, usize)> {
        self.members()
            .map(|(pool, i, r)| (pool, i, r.peak_kv_blocks(), r.kv_block_budget()))
            .collect()
    }

    /// Concatenated SD accept-length log of every replica in
    /// [`Driver::members`] order, each replica's speculative steps in step
    /// order: a pure function of (config, arrivals) that the trace recorder
    /// persists as a unary bitstream.
    fn sd_accept_trace(&self) -> Vec<u8> {
        self.members()
            .flat_map(|(_, _, r)| r.sd_accept_trace())
            .collect()
    }
}

/// The arrival loop: advance to each arrival, offer it, then drain.
/// `routed(id, replica)` sees every arrival that was placed (parked arrivals
/// are not routing decisions). Stops early when the event budget trips.
pub fn drive<D: Driver>(
    sim: &mut D,
    mut arrivals: impl ArrivalFeed,
    mut routed: impl FnMut(u64, usize),
) -> DriveOutcome {
    while let Some(arrival) = arrivals.next_arrival() {
        if sim.advance_before(arrival.time_s()).budget_exhausted() {
            return DriveOutcome::BudgetExhausted;
        }
        if let Some(replica) = sim.offer(ServeRequest::from_arrival(&arrival)) {
            routed(arrival.id, replica);
        }
    }
    sim.run_until_drained()
}

/// The arrival loop merged with a time-sorted list of caller-defined actions
/// (faults): `apply(sim, t, action)` runs once the clock stands at the action's
/// time, and `after(sim, t)` after every action, arrival and batch of internal
/// events (with `t` the simulator's clock for the last). Ties go action <
/// arrival < internal event.
pub fn drive_schedule<D: Driver, A>(
    sim: &mut D,
    arrivals: &[RequestArrival],
    actions: &[(f64, A)],
    mut apply: impl FnMut(&mut D, f64, &A),
    mut after: impl FnMut(&D, f64),
) -> DriveOutcome {
    let (mut ai, mut fi) = (0, 0);
    loop {
        let t_arrival = arrivals.get(ai).map_or(f64::MAX, RequestArrival::time_s);
        let t_action = actions.get(fi).map_or(f64::MAX, |a| a.0);
        let t = t_action.min(t_arrival);
        if t == f64::MAX {
            let outcome = sim.run_until_drained();
            after(sim, sim.state().now_s());
            return outcome;
        }
        let stepped = sim.next_event_s() < t;
        if sim.advance_before(t).budget_exhausted() {
            return DriveOutcome::BudgetExhausted;
        }
        if stepped {
            after(sim, sim.state().now_s());
        }
        if t_action <= t_arrival {
            sim.advance_now(t);
            apply(sim, t, &actions[fi].1);
            fi += 1;
        } else {
            sim.offer(ServeRequest::from_arrival(&arrivals[ai]));
            ai += 1;
        }
        after(sim, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_order_by_time_then_class_then_index() {
        let mut q = EventQueue::new();
        q.push(2.0, 0, 0);
        q.push(1.0, 3, 9);
        q.push(1.0, 1, 2);
        q.push(1.0, 1, 1);
        q.push(1.0, 0, 7); // the lower class wins over the lower index
        q.push(f64::MAX, 0, 0); // idle sentinel: dropped
        let order: Vec<EventKey> = std::iter::from_fn(|| q.pop()).collect();
        let expected = [
            (1.0, 0, 7),
            (1.0, 1, 1),
            (1.0, 1, 2),
            (1.0, 3, 9),
            (2.0, 0, 0),
        ];
        assert_eq!(order, expected.map(|(t, c, i)| EventKey::new(t, c, i)));
    }

    #[test]
    fn to_bits_order_matches_float_order_for_sim_times() {
        let times = [0.0, 1e-12, 0.5, 1.0, 1.0 + f64::EPSILON, 3600.0, 1e300];
        for w in times.windows(2) {
            assert!(w[0].to_bits() < w[1].to_bits(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn a_pushed_key_pops_with_its_exact_time_and_index() {
        let mut q = EventQueue::new();
        let t = 0.1 + 0.2; // not exactly representable as 0.3
        q.push(t, 2, 7);
        let k = q.pop().unwrap();
        assert_eq!((k.time_s().to_bits(), k.index()), (t.to_bits(), 7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drive_outcome_reports_exhaustion() {
        assert!(!DriveOutcome::Completed.budget_exhausted());
        assert!(DriveOutcome::BudgetExhausted.budget_exhausted());
    }
}
