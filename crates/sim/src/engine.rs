//! The discrete-event engine.
//!
//! A [`Simulation`] owns a time-ordered event queue and a user-supplied
//! [`World`]. Each event carries a world-defined message; delivering an event
//! hands the message to [`World::deliver`], which may schedule further events
//! through the [`Scheduler`] handle it receives. Events at equal timestamps
//! are delivered in scheduling order (deterministic FIFO tie-break), so a
//! simulation is a pure function of its seed and initial events — a property
//! the reproduction harness relies on for run-to-run comparability.
//!
//! The event queue is a hierarchical [`TimingWheel`](crate::wheel) with a
//! slab/freelist node store, replacing the original
//! `BinaryHeap<Reverse<Scheduled>>`: inserts and pops are `O(1)` amortized
//! instead of `O(log n)`, and the steady-state loop performs **no heap
//! allocation** — the staging buffer a delivery schedules into is recycled
//! across events. The pre-wheel engine is preserved verbatim in
//! [`baseline`](crate::baseline) as the differential-testing reference and
//! bench baseline; `tests/prop_wheel.rs` drives both engines with random
//! event streams and requires event-for-event identical delivery.
//!
//! The engine is intentionally minimal: components, wiring, and message
//! typing live in the crates that model the testbed. Keeping the kernel
//! generic lets every substrate crate unit-test its state machines against a
//! tiny ad-hoc `World` without dragging in the full testbed.

use crate::time::Time;
use crate::wheel::TimingWheel;

/// The environment a simulation runs: receives each delivered message and
/// schedules follow-up work.
pub trait World {
    /// The message type carried by events.
    type Msg;

    /// Deliver one message at simulated instant `now`.
    fn deliver(&mut self, now: Time, msg: Self::Msg, sched: &mut Scheduler<Self::Msg>);
}

/// Handle through which a [`World`] schedules future events while one is
/// being delivered. Scheduling is relative (`after`) or absolute (`at`);
/// absolute times in the past are clamped to `now` rather than rejected,
/// matching the "can't happen before it is noticed" semantics of hardware
/// signals crossing clock domains.
pub struct Scheduler<M> {
    now: Time,
    staged: Vec<(Time, M)>,
}

impl<M> Scheduler<M> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `msg` to be delivered `delay` after now.
    #[inline]
    pub fn after(&mut self, delay: Time, msg: M) {
        self.staged.push((self.now + delay, msg));
    }

    /// Schedule `msg` at absolute instant `at` (clamped to now).
    #[inline]
    pub fn at(&mut self, at: Time, msg: M) {
        self.staged.push((at.max(self.now), msg));
    }

    /// Schedule `msg` for delivery at the current instant, after all other
    /// events already staged or queued for this instant.
    #[inline]
    pub fn now_msg(&mut self, msg: M) {
        self.staged.push((self.now, msg));
    }

    /// Build a scheduler around a recycled staging buffer (empty, but with
    /// capacity from previous deliveries). Shared with the baseline engine.
    #[inline]
    pub(crate) fn with_buffer(now: Time, staged: Vec<(Time, M)>) -> Self {
        debug_assert!(staged.is_empty());
        Scheduler { now, staged }
    }

    /// Surrender the staging buffer for draining and recycling.
    #[inline]
    pub(crate) fn into_buffer(self) -> Vec<(Time, M)> {
        self.staged
    }
}

/// Outcome of [`Simulation::run`]: why the event loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Idle,
    /// The time horizon was reached with events still pending.
    Horizon,
    /// The event budget was exhausted — almost always a livelock in the
    /// modeled system (e.g. a polling loop that never backs off).
    EventBudget,
}

/// A boxed delivery observer: called with each event's timestamp and a
/// shared view of its message just before `World::deliver`.
pub type DeliveryHook<M> = Box<dyn FnMut(Time, &M)>;

/// A discrete-event simulation over world `W`.
pub struct Simulation<W: World> {
    /// The modeled system; public so the harness can inspect state between
    /// runs and inject stimulus.
    pub world: W,
    queue: TimingWheel<W::Msg>,
    now: Time,
    delivered: u64,
    hook: Option<DeliveryHook<W::Msg>>,
    /// Recycled staging buffer handed to the [`Scheduler`] each delivery.
    scratch: Vec<(Time, W::Msg)>,
}

impl<W: World> Simulation<W> {
    /// Create a simulation at time zero with an empty queue.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: TimingWheel::new(),
            now: Time::ZERO,
            delivered: 0,
            hook: None,
            scratch: Vec::new(),
        }
    }

    /// Install an observer invoked immediately before every delivery with
    /// the event's timestamp and a shared view of its message — the seam
    /// tracing harnesses use to anchor their clock and describe events
    /// without the engine knowing anything about tracing. Pass `None` to
    /// remove. The hook cannot mutate the world or the queue, so it cannot
    /// change simulation behavior.
    pub fn set_delivery_hook(&mut self, hook: Option<DeliveryHook<W::Msg>>) {
        self.hook = hook;
    }

    /// Current simulated time (the timestamp of the last delivered event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events delivered so far.
    #[inline]
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule a message from outside the event loop (initial stimulus,
    /// or new stimulus between [`run`](Self::run) calls).
    pub fn schedule(&mut self, delay: Time, msg: W::Msg) {
        self.schedule_at(self.now + delay, msg);
    }

    /// Schedule at an absolute instant (clamped to now).
    pub fn schedule_at(&mut self, at: Time, msg: W::Msg) {
        self.queue.insert(at.max(self.now), msg);
    }

    /// Deliver the single earliest event. Returns `false` if the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((at, msg)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backwards");
        // Fire any metrics sample boundaries that lie strictly before
        // this event, so a sample at instant `s` observes exactly the
        // state left by all events with `t <= s`. Sampling is pure
        // observation — it cannot schedule, reorder, or perturb events —
        // and with no session installed this is one thread-local load.
        if vf_metrics::sample_pending(at.as_ps()) {
            self.publish_metrics();
            vf_metrics::sample_before(at.as_ps());
        }
        self.now = at;
        if let Some(hook) = self.hook.as_mut() {
            hook(self.now, &msg);
        }
        let mut sched = Scheduler::with_buffer(self.now, std::mem::take(&mut self.scratch));
        self.world.deliver(self.now, msg, &mut sched);
        self.delivered += 1;
        let mut staged = sched.into_buffer();
        for (at, msg) in staged.drain(..) {
            // Staged times are already >= now: `after`/`now_msg` add to it
            // and `at` clamps when staging.
            self.queue.insert(at, msg);
        }
        self.scratch = staged;
        true
    }

    /// Run until the queue drains, `horizon` is passed, or `max_events`
    /// deliveries have been made.
    pub fn run(&mut self, horizon: Time, max_events: u64) -> RunOutcome {
        // Saturate: `run_to_idle` passes a budget of `u64::MAX / 2`, which
        // would overflow here once enough events have been delivered across
        // repeated runs of a long-lived simulation.
        let budget_end = self.delivered.saturating_add(max_events);
        if horizon == Time::MAX {
            // Sweep hot path: no event can lie beyond `Time::MAX`, so the
            // horizon check can never fire and the exact `next_at()` peek
            // (which walks a slot chain to find the minimum) is pure
            // overhead — an emptiness test is enough.
            loop {
                if self.queue.is_empty() {
                    return RunOutcome::Idle;
                }
                if self.delivered >= budget_end {
                    return RunOutcome::EventBudget;
                }
                self.step();
            }
        }
        loop {
            // Peek via the chain-walk-free window first; the exact peek is
            // only needed when the horizon falls inside the window of the
            // slot holding the next event.
            match self.queue.next_window() {
                None => return RunOutcome::Idle,
                Some((lo, _)) if lo > horizon => return RunOutcome::Horizon,
                Some((_, hi)) if hi > horizon => {
                    let at = self.queue.next_at().expect("window implies non-empty");
                    if at > horizon {
                        return RunOutcome::Horizon;
                    }
                }
                Some(_) => {}
            }
            if self.delivered >= budget_end {
                return RunOutcome::EventBudget;
            }
            self.step();
        }
    }

    /// Run until the queue drains (with a generous livelock guard).
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(Time::MAX, u64::MAX / 2)
    }

    /// Publish the engine/wheel gauges into the ambient metrics session:
    /// pending-event depth, slab/freelist/overflow occupancy, and the
    /// cascade and delivery totals. Called automatically just before
    /// each batch of sample boundaries fires (the wheel cannot change
    /// between boundaries with no events in between); harnesses may
    /// also call it before an explicit end-of-run
    /// [`vf_metrics::sample_at`].
    pub fn publish_metrics(&self) {
        vf_metrics::gauge_set("sim.wheel.pending", 0, self.queue.len() as i64);
        vf_metrics::gauge_set("sim.wheel.slab", 0, self.queue.slab_len() as i64);
        vf_metrics::gauge_set("sim.wheel.freelist", 0, self.queue.freelist_len() as i64);
        vf_metrics::gauge_set("sim.wheel.overflow", 0, self.queue.overflow_len() as i64);
        vf_metrics::counter_set_total("sim.wheel.cascades", 0, self.queue.cascades());
        vf_metrics::counter_set_total("sim.events.delivered", 0, self.delivered);
    }

    /// Run and require the queue to drain: like [`run`](Self::run), but
    /// panics (naming `what` wedged) if the loop stops on the horizon or
    /// the event budget instead of going [`RunOutcome::Idle`]. The shared
    /// epilogue of every harness that expects its workload to complete.
    pub fn run_expect_idle(&mut self, horizon: Time, max_events: u64, what: &str) {
        let outcome = self.run(horizon, max_events);
        assert_eq!(outcome, RunOutcome::Idle, "{what} wedged: {outcome:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy world: echoes each integer message `n` as `n-1` after 10 ns,
    /// recording the delivery order.
    struct Countdown {
        log: Vec<(Time, u32)>,
    }

    impl World for Countdown {
        type Msg = u32;
        fn deliver(&mut self, now: Time, msg: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now, msg));
            if msg > 0 {
                sched.after(Time::from_ns(10), msg - 1);
            }
        }
    }

    #[test]
    fn countdown_runs_to_idle() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(Time::from_ns(5), 3);
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        assert_eq!(
            sim.world.log,
            vec![
                (Time::from_ns(5), 3),
                (Time::from_ns(15), 2),
                (Time::from_ns(25), 1),
                (Time::from_ns(35), 0),
            ]
        );
        assert_eq!(sim.events_delivered(), 4);
        assert_eq!(sim.now(), Time::from_ns(35));
    }

    #[test]
    fn fifo_tie_break_is_schedule_order() {
        struct Recorder(Vec<u32>);
        impl World for Recorder {
            type Msg = u32;
            fn deliver(&mut self, _: Time, msg: u32, _: &mut Scheduler<u32>) {
                self.0.push(msg);
            }
        }
        let mut sim = Simulation::new(Recorder(Vec::new()));
        for i in 0..100 {
            sim.schedule(Time::from_ns(42), i);
        }
        sim.run_to_idle();
        assert_eq!(sim.world.0, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_tie_break_among_staged_events() {
        // Events staged by `deliver` at the same instant must come out in
        // the order the world staged them, interleaving correctly with
        // events already queued for that instant.
        struct Fanout {
            log: Vec<u32>,
        }
        impl World for Fanout {
            type Msg = u32;
            fn deliver(&mut self, _: Time, msg: u32, sched: &mut Scheduler<u32>) {
                self.log.push(msg);
                if msg == 0 {
                    // Mixed staging APIs, all landing at the same instant
                    // (deliveries happen at 20 ns: after(0) == at(20) ==
                    // now_msg): expect staging order 1, 2, 3.
                    sched.after(Time::ZERO, 1);
                    sched.at(Time::from_ns(20), 2);
                    sched.now_msg(3);
                }
            }
        }
        let mut sim = Simulation::new(Fanout { log: Vec::new() });
        sim.schedule(Time::from_ns(20), 0);
        // Pre-queued event at the same instant, scheduled before delivery:
        // FIFO puts it after msg 0 but before anything staged by it.
        sim.schedule(Time::from_ns(20), 9);
        sim.run_to_idle();
        assert_eq!(sim.world.log, vec![0, 9, 1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_across_generations() {
        // Same-instant events staged by *different* deliveries interleave
        // in global staging order, not grouped by the staging event.
        struct TwoStage {
            log: Vec<u32>,
        }
        impl World for TwoStage {
            type Msg = u32;
            fn deliver(&mut self, _: Time, msg: u32, sched: &mut Scheduler<u32>) {
                self.log.push(msg);
                if msg < 2 {
                    sched.after(Time::from_ns(10), 10 + msg);
                    sched.after(Time::from_ns(10), 20 + msg);
                }
            }
        }
        let mut sim = Simulation::new(TwoStage { log: Vec::new() });
        sim.schedule(Time::ZERO, 0);
        sim.schedule(Time::ZERO, 1);
        sim.run_to_idle();
        // At t=10ns: msg 0 staged (10, 20) first, then msg 1 staged (11, 21).
        assert_eq!(sim.world.log, vec![0, 1, 10, 20, 11, 21]);
    }

    #[test]
    fn delivery_hook_observes_every_event_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(Time, u32)>>> = Rc::default();
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        let seen2 = Rc::clone(&seen);
        sim.set_delivery_hook(Some(Box::new(move |t, msg: &u32| {
            seen2.borrow_mut().push((t, *msg));
        })));
        sim.schedule(Time::from_ns(5), 2);
        sim.run_to_idle();
        assert_eq!(*seen.borrow(), sim.world.log);
        // Removing the hook stops observation without disturbing the run.
        sim.set_delivery_hook(None);
        sim.schedule(Time::from_ns(1), 0);
        sim.run_to_idle();
        assert_eq!(seen.borrow().len(), 3);
        assert_eq!(sim.world.log.len(), 4);
    }

    #[test]
    fn horizon_stops_before_future_events() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(Time::from_ns(5), 10);
        let outcome = sim.run(Time::from_ns(26), u64::MAX / 2);
        assert_eq!(outcome, RunOutcome::Horizon);
        // Events at 5, 15, 25 delivered; 35 pending.
        assert_eq!(sim.world.log.len(), 3);
        assert_eq!(sim.pending(), 1);
        // Resuming picks up where it left off.
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        assert_eq!(sim.world.log.len(), 11);
    }

    #[test]
    fn event_budget_catches_livelock() {
        /// Pathological world that reschedules itself at the same instant.
        struct Livelock;
        impl World for Livelock {
            type Msg = ();
            fn deliver(&mut self, _: Time, _: (), sched: &mut Scheduler<()>) {
                sched.now_msg(());
            }
        }
        let mut sim = Simulation::new(Livelock);
        sim.schedule(Time::ZERO, ());
        assert_eq!(sim.run(Time::MAX, 1000), RunOutcome::EventBudget);
        assert_eq!(sim.events_delivered(), 1000);
        assert_eq!(sim.now(), Time::ZERO);
    }

    #[test]
    fn event_budget_saturates_across_repeated_runs() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(Time::from_ns(5), 3);
        assert_eq!(sim.run(Time::MAX, u64::MAX), RunOutcome::Idle);
        // Regression: with events already delivered, a near-max budget used
        // to compute `delivered + max_events` and overflow in debug builds.
        sim.schedule(Time::from_ns(5), 3);
        assert_eq!(sim.run(Time::MAX, u64::MAX), RunOutcome::Idle);
        assert_eq!(sim.events_delivered(), 8);
    }

    #[test]
    fn past_absolute_times_clamp_to_now() {
        struct ClampWorld {
            times: Vec<Time>,
        }
        impl World for ClampWorld {
            type Msg = bool;
            fn deliver(&mut self, now: Time, first: bool, sched: &mut Scheduler<bool>) {
                self.times.push(now);
                if first {
                    // Try to schedule in the past; must clamp to `now`.
                    sched.at(Time::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(ClampWorld { times: Vec::new() });
        sim.schedule(Time::from_ns(100), true);
        sim.run_to_idle();
        assert_eq!(
            sim.world.times,
            vec![Time::from_ns(100), Time::from_ns(100)]
        );
    }

    #[test]
    fn run_expect_idle_passes_when_drained() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(Time::from_ns(5), 3);
        sim.run_expect_idle(Time::MAX, u64::MAX / 2, "countdown");
        assert_eq!(sim.events_delivered(), 4);
    }

    #[test]
    #[should_panic(expected = "countdown wedged")]
    fn run_expect_idle_panics_on_horizon() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(Time::from_ns(5), 10);
        sim.run_expect_idle(Time::from_ns(26), u64::MAX / 2, "countdown");
    }

    /// The sampler fires between events, never as an event: delivery
    /// order and timestamps are identical with and without a metrics
    /// session, while the wheel gauges show live occupancy draining to
    /// zero with every node back on the freelist.
    #[test]
    fn metrics_sampling_observes_without_perturbing() {
        let run = |metered: bool| {
            if metered {
                vf_metrics::install(vf_metrics::MetricsConfig {
                    interval_ps: 10_000, // 10 ns, dense relative to the events
                    ..Default::default()
                });
            }
            let mut sim = Simulation::new(Countdown { log: Vec::new() });
            for i in 0..10 {
                sim.schedule(Time::from_ns(5 + i), 20);
            }
            sim.run_to_idle();
            sim.publish_metrics();
            vf_metrics::sample_at(sim.now().as_ps());
            (sim.world.log, vf_metrics::finish())
        };
        let (plain, empty) = run(false);
        let (metered, report) = run(true);
        assert_eq!(plain, metered, "sampling perturbed delivery");
        assert!(empty.instruments.is_empty());
        assert!(report.samples > 10);
        let pending = report.get("sim.wheel.pending", 0).unwrap();
        assert!(pending.series.iter().any(|&(_, v)| v > 0));
        assert_eq!(pending.last, 0, "queue did not drain");
        assert_eq!(
            report.get("sim.wheel.freelist", 0).unwrap().last,
            report.get("sim.wheel.slab", 0).unwrap().last,
            "wheel leaked slab nodes"
        );
        assert!(report.counter_total("sim.events.delivered") >= 200);
        assert!(report.violations.is_empty());
    }

    #[test]
    fn stimulus_between_runs() {
        let mut sim = Simulation::new(Countdown { log: Vec::new() });
        sim.schedule(Time::from_ns(1), 0);
        sim.run_to_idle();
        sim.schedule(Time::from_ns(1), 1);
        sim.run_to_idle();
        assert_eq!(sim.world.log.len(), 3);
        // Second stimulus lands relative to the time the first run ended.
        assert_eq!(sim.world.log[1].0, Time::from_ns(2));
    }
}
