//! The pod chassis both per-pod engines run on: the cell-failover loop
//! ([`crate::failover::sim`]) and the remote/merge loop
//! ([`super::sim`]).
//!
//! A [`Pod`] owns what the two share: the event kernel, the
//! [`DeviceSet`] (which owns each running job), the fault plan, the
//! arrival stream with SLO-aware admission, the offered/shed/completed
//! ledger, and the root span. [`Pod::next`] is the loop skeleton: it pops
//! the next event, drops stale completions, applies faults to the pool,
//! and hands the engine a [`Step`] to match on. Each engine keeps its
//! own queues, its dispatch, what a killed job means, and its own events
//! ([`Step::Engine`]).

use mtia_core::des::Kernel;
use mtia_core::telemetry::{Json, Telemetry};
use mtia_core::SimTime;
use mtia_sim::faults::{DeviceId, FaultEvent, FaultPlan};

use crate::traffic::ArrivalProcess;

use super::controller::DegradationController;
use super::device::{DeviceSet, FaultImpact};

/// A kernel event: one of the chassis's three kinds, or the engine's.
#[derive(Debug, Clone, Copy)]
enum Ev<X> {
    Arrival,
    JobDone { device: DeviceId, epoch: u64 },
    FaultAt { index: usize },
    Engine(X),
}

/// What [`Pod::next`] hands the engine.
pub(crate) enum Step<J, X> {
    /// A request arrived: [`Pod::admit`] it, and schedule the next one
    /// with [`Pod::next_arrival`] where the engine's order needs it.
    Arrival,
    /// `device` completed `job` (stale completions never surface).
    Done { device: DeviceId, job: J },
    /// `fault` was applied to the pool with `impact`.
    Fault {
        fault: FaultEvent,
        impact: FaultImpact<J>,
    },
    /// One of the engine's own events.
    Engine(X),
}

/// The shared state of one per-pod run; see the module docs.
pub(crate) struct Pod<'a, J, X> {
    des: Kernel<Ev<X>>,
    pub(crate) set: DeviceSet<J>,
    pub(crate) tel: &'a mut Telemetry,
    plan: &'a FaultPlan,
    arrivals: &'a mut dyn ArrivalProcess,
    controller: Option<DegradationController>,
    next_request: u64,
    /// Requests that arrived.
    pub(crate) offered: u64,
    /// Arrivals the controller turned away.
    pub(crate) shed: u64,
    /// Requests served to completion.
    pub(crate) completed: u64,
}

impl<'a, J, X> Pod<'a, J, X> {
    pub(crate) fn new(
        set: DeviceSet<J>,
        controller: Option<DegradationController>,
        plan: &'a FaultPlan,
        arrivals: &'a mut dyn ArrivalProcess,
        tel: &'a mut Telemetry,
    ) -> Self {
        Pod {
            des: Kernel::new(),
            set,
            tel,
            plan,
            arrivals,
            controller,
            next_request: 0,
            offered: 0,
            shed: 0,
            completed: 0,
        }
    }

    /// Opens the run: schedules every fault of the plan, then the
    /// engine's `extra` events, then the first arrival (the kernel breaks
    /// time ties by scheduling order), and opens the root span `name`
    /// with `attrs`.
    pub(crate) fn open(
        &mut self,
        extra: impl IntoIterator<Item = (SimTime, X)>,
        name: &str,
        cat: &str,
        attrs: impl IntoIterator<Item = (&'static str, Json)>,
    ) {
        for (index, fault) in self.plan.events().iter().enumerate() {
            self.des.schedule(fault.at, Ev::FaultAt { index });
        }
        for (at, ev) in extra {
            self.at(at, ev);
        }
        self.next_arrival();
        self.tel.begin_span(name, cat, SimTime::ZERO);
        for (key, value) in attrs {
            self.tel.span_attr(key, value);
        }
    }

    /// Schedules one of the engine's events.
    pub(crate) fn at(&mut self, at: SimTime, ev: X) {
        self.des.schedule(at, Ev::Engine(ev));
    }

    /// Pops the next event due by `horizon` and returns its time and
    /// step. A completion whose job was killed or superseded is dropped
    /// here; a fault is applied to the pool before the engine sees it.
    // Forced inline into each engine's loop, so that the step it returns
    // never round-trips through memory; out of line, the remote/merge
    // loop ran about 10 % slower.
    #[inline(always)]
    pub(crate) fn next(&mut self, horizon: SimTime) -> Option<(SimTime, Step<J, X>)> {
        loop {
            let ev = self.des.next_until(horizon)?;
            let now = self.des.now();
            let step = match ev {
                Ev::Arrival => Step::Arrival,
                Ev::JobDone { device, epoch } => match self.set.finish_job(device, epoch, now) {
                    Some(job) => Step::Done { device, job },
                    None => continue,
                },
                Ev::FaultAt { index } => {
                    let fault = self.plan.events()[index];
                    let impact = self.set.apply_fault(&fault, now);
                    Step::Fault { fault, impact }
                }
                Ev::Engine(ev) => Step::Engine(ev),
            };
            return Some((now, step));
        }
    }

    /// Starts `job` on the idle `device` now and schedules its
    /// completion `occupancy` later; returns the job's epoch.
    pub(crate) fn run_job(&mut self, device: DeviceId, job: J, occupancy: SimTime) -> u64 {
        let now = self.des.now();
        let epoch = self.set.start(device, Some(job), now);
        self.des
            .schedule(now + occupancy, Ev::JobDone { device, epoch });
        epoch
    }

    /// Counts an arrival offered and asks the controller; returns the
    /// request's id if admitted, counts it shed otherwise.
    pub(crate) fn admit(&mut self) -> Option<u64> {
        let request = self.next_request;
        self.next_request += 1;
        self.offered += 1;
        let admitted = self.controller.as_mut().is_none_or(|c| c.admit(request));
        if !admitted {
            self.shed += 1;
        }
        admitted.then_some(request)
    }

    /// Schedules the stream's next arrival after the current time, if
    /// it has one.
    pub(crate) fn next_arrival(&mut self) {
        if let Some(next) = self.arrivals.next_arrival(self.des.now()) {
            self.des.schedule(next, Ev::Arrival);
        }
    }

    /// Counts a request completed and feeds its latency to the
    /// controller.
    pub(crate) fn complete(&mut self, latency: SimTime) {
        self.completed += 1;
        if let Some(c) = &mut self.controller {
            c.observe(latency);
        }
    }

    /// Records an instant event at the current time when tracing;
    /// `attrs` is built only then.
    pub(crate) fn instant<A>(&mut self, name: &str, cat: &str, attrs: impl FnOnce() -> A)
    where
        A: IntoIterator<Item = (&'static str, Json)>,
    {
        if self.tel.is_enabled() {
            let attrs = attrs().into_iter().map(|(k, v)| (k.to_string(), v));
            self.tel.instant(name, cat, self.des.now(), attrs.collect());
        }
    }

    /// Closes the run at the last event: adds the kernel's pops to the
    /// perf counter and ticks the pool there. Returns that time and the
    /// pool's availability over the run.
    pub(crate) fn close(&mut self) -> (SimTime, f64) {
        mtia_core::perfcount::add_events(self.des.popped());
        let end = self.des.now();
        self.set.tick(end);
        (end, self.set.availability(end.max(SimTime::from_picos(1))))
    }

    /// Ends the root span at `end` and adds each outcome counter (both
    /// no-ops unless tracing).
    pub(crate) fn end(
        &mut self,
        end: SimTime,
        counters: impl IntoIterator<Item = (&'static str, u64)>,
    ) {
        self.tel.end_span(end);
        for (name, value) in counters {
            self.tel.counter_add(name, value);
        }
    }
}
