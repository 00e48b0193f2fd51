//! The driver loop: repeatedly pops the earliest event and hands it to the
//! [`Simulation`] implementation together with a scheduling context.
//!
//! The handler receives `&mut EventQueue` directly (rather than a callback
//! context) so that it can schedule follow-up events and cancel stale ones
//! without borrow gymnastics.
//!
//! `run_until` is the primitive; `run_to_completion` is derived from it
//! (`run_until(SimTime::MAX)`). Events are delivered as fast as the
//! handler runs: the engine never reads or waits on the wall clock, so a
//! run is a pure function of its initial schedule and handler.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation model driven by the engine.
pub trait Simulation {
    type Event;

    /// Handle one event at virtual time `now`. New events may be scheduled
    /// on `queue`; they must not be in the past.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Counters describing an engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered to the handler.
    pub delivered: u64,
    /// Events scheduled over the whole run (delivered + cancelled + pending).
    pub scheduled: u64,
    /// Cancelled entries skipped by the queue.
    pub cancelled: u64,
    /// Virtual time of the last delivered event.
    pub end_time: SimTime,
}

/// Event-loop driver owning the future-event list and the model.
pub struct Engine<S: Simulation> {
    pub queue: EventQueue<S::Event>,
    pub sim: S,
    now: SimTime,
    delivered: u64,
}

/// A clone is an independent engine at the same instant: same model,
/// same pending events, same counters. Stepping it never touches the
/// original. Written by hand because a derive would bound only
/// `S: Clone`, not the `S::Event: Clone` the queue needs.
impl<S: Simulation + Clone> Clone for Engine<S>
where
    S::Event: Clone,
{
    fn clone(&self) -> Self {
        Engine::from_parts(
            self.sim.clone(),
            self.queue.clone(),
            self.now,
            self.delivered,
        )
    }
}

impl<S: Simulation> Engine<S> {
    pub fn new(sim: S) -> Self {
        Engine::from_parts(sim, EventQueue::new(), SimTime::ZERO, 0)
    }

    /// Reassemble an engine from externally held state (snapshot restore).
    ///
    /// `now`/`delivered` must come from the same snapshot as `queue`, or
    /// the monotonic-time debug assertion in [`Engine::step`] can fire.
    pub fn from_parts(sim: S, queue: EventQueue<S::Event>, now: SimTime, delivered: u64) -> Self {
        Engine {
            queue,
            sim,
            now,
            delivered,
        }
    }

    /// Current virtual time (time of the most recently delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Deliver a single event. Returns `false` when the queue is exhausted.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, _, ev)) => {
                debug_assert!(t >= self.now, "time went backwards");
                self.now = t;
                self.delivered += 1;
                self.sim.handle(t, ev, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Run until the event queue is empty.
    ///
    /// Equivalent to `run_until(SimTime::MAX)`: `SimTime::MAX` is the
    /// "never" sentinel, and the inclusive horizon contract (see
    /// [`Engine::run_until`]) means no schedulable event can lie beyond it.
    pub fn run_to_completion(&mut self) -> EngineStats {
        self.run_until(SimTime::MAX)
    }

    /// Run while events exist at time `<= horizon`.
    ///
    /// # Horizon semantics (pinned contract)
    ///
    /// - **Inclusive**: events scheduled at exactly `horizon` *are*
    ///   delivered, including follow-ups a handler schedules at `horizon`
    ///   itself while the run is in progress.
    /// - **Idempotent**: a repeated call with an equal (or smaller)
    ///   horizon delivers nothing and changes no state — every remaining
    ///   event is strictly later than `horizon`.
    /// - **Clock stays put**: `now()` afterwards is the timestamp of the
    ///   last *delivered* event, which may be well short of `horizon`; the
    ///   engine never fast-forwards the clock to an instant where nothing
    ///   happened.
    ///
    /// `SchedulerService::step_until` in `hws-core` inherits this contract
    /// verbatim.
    pub fn run_until(&mut self, horizon: SimTime) -> EngineStats {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
        self.stats()
    }

    pub fn stats(&self) -> EngineStats {
        EngineStats {
            delivered: self.delivered,
            scheduled: self.queue.scheduled_total(),
            cancelled: self.queue.cancelled_skipped(),
            end_time: self.now,
        }
    }

    /// Consume the engine, returning the model (for result extraction).
    pub fn into_sim(self) -> S {
        self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Toy model: a ping-pong chain that counts down.
    #[derive(Clone)]
    struct PingPong {
        remaining: u32,
        log: Vec<(SimTime, &'static str)>,
    }

    #[derive(Debug, Clone)]
    enum Ev {
        Ping,
        Pong,
    }

    impl Simulation for PingPong {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
            match ev {
                Ev::Ping => {
                    self.log.push((now, "ping"));
                    q.schedule(now + SimDuration::from_secs(1), Ev::Pong);
                }
                Ev::Pong => {
                    self.log.push((now, "pong"));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        q.schedule(now + SimDuration::from_secs(2), Ev::Ping);
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_runs_to_completion() {
        let mut eng = Engine::new(PingPong {
            remaining: 2,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        let stats = eng.run_to_completion();
        assert_eq!(stats.delivered, 6); // ping,pong,ping,pong,ping,pong
        assert_eq!(eng.sim.log.last().unwrap().0, SimTime::from_secs(7));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng = Engine::new(PingPong {
            remaining: 100,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        eng.run_until(SimTime::from_secs(4));
        assert!(eng.sim.log.iter().all(|(t, _)| *t <= SimTime::from_secs(4)));
        assert!(eng.now() <= SimTime::from_secs(4));
        // Queue still holds the future part of the chain.
        assert!(!eng.queue.is_empty());
    }

    #[test]
    fn run_until_is_inclusive_at_exactly_horizon() {
        // Ping at t=0 schedules Pong at t=1; a horizon of exactly 1 must
        // deliver both, including the follow-up landing on the horizon.
        let mut eng = Engine::new(PingPong {
            remaining: 100,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        let st = eng.run_until(SimTime::from_secs(1));
        assert_eq!(st.delivered, 2);
        assert_eq!(
            eng.sim.log,
            vec![(SimTime::ZERO, "ping"), (SimTime::from_secs(1), "pong")]
        );
        assert_eq!(eng.now(), SimTime::from_secs(1));
    }

    #[test]
    fn repeated_equal_horizon_is_a_no_op() {
        let mut eng = Engine::new(PingPong {
            remaining: 100,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        let first = eng.run_until(SimTime::from_secs(10));
        let log_len = eng.sim.log.len();
        let again = eng.run_until(SimTime::from_secs(10));
        assert_eq!(first, again, "equal-horizon rerun changed stats");
        assert_eq!(
            eng.sim.log.len(),
            log_len,
            "equal-horizon rerun delivered events"
        );
        // A smaller horizon is just as inert.
        let smaller = eng.run_until(SimTime::from_secs(3));
        assert_eq!(first, smaller);
    }

    #[test]
    fn run_until_does_not_fast_forward_the_clock() {
        // Last deliverable event is the pong at t=3; a horizon of 100 must
        // leave `now` at 3, not advance it to the horizon.
        let mut eng = Engine::new(PingPong {
            remaining: 1,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        eng.run_until(SimTime::from_secs(100));
        assert_eq!(eng.now(), SimTime::from_secs(4));
        assert!(eng.queue.is_empty());
    }

    #[test]
    fn run_to_completion_equals_run_until_max() {
        let run = |to_completion: bool| {
            let mut eng = Engine::new(PingPong {
                remaining: 10,
                log: vec![],
            });
            eng.queue.schedule(SimTime::ZERO, Ev::Ping);
            let st = if to_completion {
                eng.run_to_completion()
            } else {
                eng.run_until(SimTime::MAX)
            };
            (st, eng.sim.log)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn stats_track_counts() {
        let mut eng = Engine::new(PingPong {
            remaining: 0,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        let st = eng.run_to_completion();
        assert_eq!(st.delivered, 2);
        assert_eq!(st.scheduled, 2);
        assert_eq!(st.end_time, SimTime::from_secs(1));
        assert_eq!(eng.delivered(), 2);
    }

    #[test]
    fn deterministic_event_trace() {
        let run = || {
            let mut eng = Engine::new(PingPong {
                remaining: 10,
                log: vec![],
            });
            eng.queue.schedule(SimTime::ZERO, Ev::Ping);
            eng.run_to_completion();
            eng.sim.log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn from_parts_resumes_where_run_until_stopped() {
        // Split one run at an arbitrary horizon, carry the pieces through
        // `from_parts`, and finish: the log must match an unbroken run.
        let unbroken = {
            let mut eng = Engine::new(PingPong {
                remaining: 10,
                log: vec![],
            });
            eng.queue.schedule(SimTime::ZERO, Ev::Ping);
            eng.run_to_completion();
            (eng.stats(), eng.sim.log)
        };
        let mut eng = Engine::new(PingPong {
            remaining: 10,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        eng.run_until(SimTime::from_secs(9));
        let now = eng.now();
        let delivered = eng.delivered();
        let Engine { queue, sim, .. } = eng;
        let mut resumed = Engine::from_parts(sim, queue, now, delivered);
        resumed.run_to_completion();
        assert_eq!((resumed.stats(), resumed.sim.log), unbroken);
    }

    #[test]
    fn clone_forks_an_independent_future() {
        let mut eng = Engine::new(PingPong {
            remaining: 10,
            log: vec![],
        });
        eng.queue.schedule(SimTime::ZERO, Ev::Ping);
        eng.run_until(SimTime::from_secs(9));
        let mut fork = eng.clone();
        // Perturb the fork only; the original must not see it.
        fork.queue.schedule(SimTime::from_secs(100), Ev::Pong);
        fork.run_to_completion();
        let fork_log = fork.sim.log.clone();
        eng.run_to_completion();
        assert_eq!(fork_log[..eng.sim.log.len()], eng.sim.log[..]);
        assert_eq!(fork.delivered(), eng.delivered() + 1);
        assert_eq!(fork_log.len(), eng.sim.log.len() + 1);
    }
}
