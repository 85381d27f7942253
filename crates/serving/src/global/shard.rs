//! Cell-sharded parallel execution of the global DES.
//!
//! A planetary fleet is operated as many *serving cells* — disjoint
//! pod/region groups with their own ingress traffic and fault plans.
//! Requests never cross a cell boundary (each cell is a complete
//! [`GlobalFleetSpec`]), which makes the cells' event streams
//! independent between coupling points — exactly the structure a
//! parallel DES wants.
//!
//! The optional **ladder coupling** is the one fleet-wide control
//! signal: at every epoch barrier the driver sums `busy + queued` and
//! `up` slots across cells and maps the global utilization through the
//! first cell's ladder thresholds (no hysteresis — the floor is
//! re-derived from scratch each barrier) into a minimum degradation
//! tier every cell must respect in the next epoch. That models a
//! planetary traffic controller reacting at control-plane cadence
//! (the epoch) rather than per request. Without it the cells are
//! embarrassingly parallel: an uncoupled planet is one
//! [`simulate_global`] task per cell on the pool, so the cells may as
//! well be the arms of one experiment — different policies or configs
//! replayed on the same trace, built and dropped inside their own
//! tasks.
//!
//! [`simulate_planet`] defines the coupled replay as **lock-step**
//! epochs — every cell runs to barrier *k*, the barrier sets the floor
//! for epoch *k+1* — but executes it **optimistically** (Time Warp
//! style), because the floor rarely moves. Each resumable `Sim` runs a
//! window of `w` epochs on its own under the current floor, recording
//! `(load, up, pending)` at every barrier it crosses; the driver then
//! folds the records barrier by barrier:
//!
//! ```text
//! window from barrier b, w = max(1, held/2) epochs, cells on parallel_map:
//!   cell 0 ──run_until(b+1)·record──run_until(b+2)·record── … ──(b+w)──┐
//!   …                                                                   │
//!   cell N ──run_until(b+1)·record──run_until(b+2)·record── … ──(b+w)──┘
//! fold barriers b+1 … b+w in order, cells summed in index order:
//!   all drained          → stop
//!   floor unchanged      → next barrier; all w kept → held += w
//!   floor changes at b+j → j < w: restore the window-start clone,
//!                                 re-run to b+j (one rollback)
//!                          set the floor, continue from b+j, held = 0
//! ```
//!
//! `held` counts the epochs the current floor has held, so a window
//! speculates half as far ahead as the floor has already lasted: the
//! windows grow geometrically while it holds, and a floor that
//! oscillates keeps them at one epoch. A one-epoch window is exactly
//! the lock-step step and needs no checkpoint; wider windows clone
//! every cell at their start. Work speculated past a mispredicted
//! barrier is thrown away with its event counts, so reports,
//! fingerprints and `events` are byte-identical to lock-step. On a
//! fleet whose floor never moves each cell runs most of the replay in
//! a few long tasks, keeping its working set in cache instead of
//! rotating every cell through it each epoch.
//!
//! Determinism does not depend on the thread count: each cell's
//! simulation is a pure function of its inputs plus the floor
//! sequence, `parallel_map` returns results in submission order, and
//! the barrier fold visits cells in index order. Every cell with
//! coupling off is *exactly* [`simulate_global`] — the equivalence test
//! pins that, and an oracle test pins the windows against a lock-step
//! driver on overloaded planets that do roll back.

use mtia_core::error::ConfigError;
use mtia_core::fnv::Fnv1a;
use mtia_core::pool::parallel_map;
use mtia_core::telemetry::Telemetry;
use mtia_core::SimTime;
use mtia_sim::faults::FaultPlan;

use super::report::GlobalReport;
use super::sim::{simulate_global, Sim};
use super::{
    utilization, GlobalConfig, GlobalFleetSpec, LadderConfig, RegionalTrace, RoutingPolicy,
};

/// One serving cell: a complete, self-contained global-DES input
/// tuple. Cells are simulated independently and merged.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The cell's pod/region shape.
    pub spec: GlobalFleetSpec,
    /// Router/ladder/gray configuration.
    pub config: GlobalConfig,
    /// The cell's ingress arrival trace.
    pub trace: RegionalTrace,
    /// The cell's fault plan.
    pub plan: FaultPlan,
    /// Routing arm.
    pub policy: RoutingPolicy,
}

/// How the sharded driver advances and couples the cells.
#[derive(Debug, Clone, Copy)]
pub struct PlanetConfig {
    /// Epoch length — the barrier cadence. Smaller epochs couple the
    /// ladder tighter and synchronize more often.
    pub epoch: SimTime,
    /// Couple the degradation ladder fleet-wide at each barrier. With
    /// this off the cells are fully independent and a single-cell run
    /// is byte-identical to [`simulate_global`].
    pub couple_ladder: bool,
}

impl PlanetConfig {
    /// Control-plane cadence: 1 s epochs, ladder coupling on.
    pub fn production() -> Self {
        PlanetConfig {
            epoch: SimTime::from_secs(1),
            couple_ladder: true,
        }
    }

    /// Uncoupled cells: one [`simulate_global`] task per cell on the
    /// pool, no fleet-wide signal. The epoch is validated but unused.
    pub fn uncoupled(epoch: SimTime) -> Self {
        PlanetConfig {
            epoch,
            couple_ladder: false,
        }
    }

    /// Checks that this config can drive `cells`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] on an empty `cells`, on cells whose
    /// timeline bucket widths differ (the merge sums timelines bucket by
    /// bucket), and on a zero epoch, which would never advance
    /// simulated time.
    pub fn validate(&self, cells: &[CellSpec]) -> Result<(), ConfigError> {
        let Some(first) = cells.first() else {
            return Err(ConfigError::OutOfRange {
                what: "planet cells",
                valid: "at least one cell",
            });
        };
        if cells
            .iter()
            .any(|c| c.config.timeline_bucket != first.config.timeline_bucket)
        {
            return Err(ConfigError::OutOfRange {
                what: "cell timeline bucket",
                valid: "one timeline bucket width for every cell",
            });
        }
        if self.epoch == SimTime::ZERO {
            return Err(ConfigError::OutOfRange {
                what: "planet epoch",
                valid: "> 0",
            });
        }
        Ok(())
    }
}

/// A planetary replay's outcome: the per-cell reports plus the
/// deterministic merge.
#[derive(Debug, Clone)]
pub struct PlanetReport {
    /// One report per cell, in cell order.
    pub cells: Vec<GlobalReport>,
    /// The fleet-wide merge: counters summed, latency histograms
    /// merged, recovery time maxed, headroom min'd, fingerprints
    /// folded in cell order, `routed` block-diagonal over the cells'
    /// disjoint region/pod index spaces, timelines summed bucket by
    /// bucket. `policy` and `seed` are cell 0's.
    pub merged: GlobalReport,
    /// Barriers whose fleet floor differed from the floor the cells had
    /// already run past them under, so every cell was restored to its
    /// window-start checkpoint and re-run to the barrier. Independent
    /// of the thread count; 0 when the ladder is uncoupled.
    pub rollbacks: u64,
}

/// Folds per-cell fingerprints into one fleet identity (FNV-style,
/// order-sensitive so cell permutations are visible): the fingerprints
/// a [`PlanetReport::merged`] carries.
pub fn fold_fingerprints(parts: impl Iterator<Item = u64>) -> u64 {
    let mut hash = Fnv1a::default();
    for part in parts {
        hash.word(part);
    }
    hash.finish()
}

/// Merges fully-drained per-cell reports into the fleet-wide view.
fn merge_reports(cells: &[GlobalReport]) -> GlobalReport {
    assert!(!cells.is_empty(), "a planet needs at least one cell");
    let total_regions: usize = cells.iter().map(|c| c.routed.len()).sum();
    let total_pods: usize = cells
        .iter()
        .map(|c| c.routed.first().map_or(0, Vec::len))
        .sum();
    let mut merged = GlobalReport {
        fault_fingerprint: fold_fingerprints(cells.iter().map(|c| c.fault_fingerprint)),
        trace_fingerprint: fold_fingerprints(cells.iter().map(|c| c.trace_fingerprint)),
        ..GlobalReport::empty(
            cells[0].policy,
            cells[0].seed,
            total_regions,
            total_pods,
            cells[0].timeline_bucket,
        )
    };
    let (mut region_base, mut pod_base) = (0usize, 0usize);
    for cell in cells {
        merged.offered += cell.offered;
        merged.served_full += cell.served_full;
        merged.served_degraded += cell.served_degraded;
        merged.shed += cell.shed;
        merged.lost += cell.lost;
        merged.lost_unroutable += cell.lost_unroutable;
        merged.lost_killed += cell.lost_killed;
        merged.lost_deadline += cell.lost_deadline;
        merged.spillover += cell.spillover;
        merged.hedges_issued += cell.hedges_issued;
        merged.hedge_wins += cell.hedge_wins;
        merged.duplicates_suppressed += cell.duplicates_suppressed;
        merged.hedges_cancelled += cell.hedges_cancelled;
        merged.retries_issued += cell.retries_issued;
        merged.retries_shed += cell.retries_shed;
        merged.breaker_opens += cell.breaker_opens;
        merged.cancelled_at_admission += cell.cancelled_at_admission;
        merged.scale_events += cell.scale_events;
        merged.outlier_demotions += cell.outlier_demotions;
        merged.device_downs += cell.device_downs;
        merged.events += cell.events;
        merged.request_latency.merge(&cell.request_latency);
        merged.spillover_latency.merge(&cell.spillover_latency);
        merged.recovery_time = merged.recovery_time.max(cell.recovery_time);
        merged.capacity_headroom = merged.capacity_headroom.min(cell.capacity_headroom);
        // Element-wise timeline sum: buckets are absolute arrival-time
        // indices, and every cell shares one bucket width.
        if merged.timeline.len() < cell.timeline.len() {
            merged
                .timeline
                .resize(cell.timeline.len(), Default::default());
        }
        for (m, c) in merged.timeline.iter_mut().zip(&cell.timeline) {
            m.offered += c.offered;
            m.served += c.served;
        }
        for (r, row) in cell.routed.iter().enumerate() {
            for (p, &count) in row.iter().enumerate() {
                merged.routed[region_base + r][pod_base + p] = count;
            }
        }
        region_base += cell.routed.len();
        pod_base += cell.routed.first().map_or(0, Vec::len);
    }
    merged
}

/// One cell's state at an epoch barrier: the coupling signal and
/// whether it still has events pending.
#[derive(Debug, Clone, Copy)]
struct BarrierRecord {
    /// `busy + queued` slots.
    load: u64,
    /// `up` slots.
    up: u64,
    /// Whether the cell still has events pending.
    more: bool,
}

/// The fleet-wide ladder floor for the next epoch: the cells' loads
/// summed in cell-index order and mapped through the ladder thresholds,
/// hysteresis-free.
fn ladder_floor(ladder: &LadderConfig, records: impl Iterator<Item = BarrierRecord>) -> u8 {
    let (mut load, mut up) = (0u64, 0u64);
    for r in records {
        load += r.load;
        up += r.up;
    }
    ladder.entry_tier(utilization(load, up))
}

/// Runs every cell on the pool through the `epochs` epochs after
/// `from`, each under its current floor, recording its state at every
/// barrier. Results come back in cell order.
fn run_window<'a>(
    sims: Vec<Sim<'a>>,
    from: SimTime,
    epoch: SimTime,
    epochs: usize,
) -> (Vec<Sim<'a>>, Vec<Vec<BarrierRecord>>) {
    parallel_map(sims, |_, mut sim| {
        let records = (1..=epochs)
            .map(|k| {
                sim.run_until(from + epoch * k as u64, &mut Telemetry::disabled());
                let (load, up) = sim.load();
                BarrierRecord {
                    load,
                    up,
                    more: sim.next_time().is_some(),
                }
            })
            .collect();
        (sim, records)
    })
    .into_iter()
    .unzip()
}

/// Replays every cell to drain, sharded across the pool workers, and
/// merges deterministically.
///
/// Uncoupled, this is exactly a `mtia_core::pool::parallel_map` of
/// [`simulate_global`] over the cells: each cell is built, drained,
/// reported and dropped inside its own task, so independent arms of one
/// experiment can share a call without holding every arm's peak at
/// once. Coupled, the cells advance in speculative epoch windows (see
/// the module docs).
///
/// The result is byte-identical at any thread count, and to advancing
/// the cells in lock-step one epoch at a time: cell work is distributed
/// by `mtia_core::pool::parallel_map`, which preserves submission
/// order, every cross-cell reduction folds in cell index order, and
/// speculated work past a mispredicted barrier is discarded with its
/// event counts.
///
/// # Panics
///
/// Panics if `planet` fails [`PlanetConfig::validate`] for `cells`, or
/// a cell config fails [`GlobalConfig::validate`].
pub fn simulate_planet(cells: &[CellSpec], planet: PlanetConfig) -> PlanetReport {
    planet.validate(cells).expect("a valid planet config");
    let (reports, rollbacks) = if planet.couple_ladder {
        simulate_coupled(cells, planet.epoch)
    } else {
        let run =
            |_, c: &CellSpec| simulate_global(&c.spec, &c.config, &c.trace, &c.plan, c.policy);
        (parallel_map(cells.iter().collect(), run), 0)
    };
    PlanetReport {
        merged: merge_reports(&reports),
        cells: reports,
        rollbacks,
    }
}

/// The coupled replay: speculative epoch windows folded barrier by
/// barrier into the fleet floor. Returns the cell reports in cell order
/// and the rollback count.
fn simulate_coupled(cells: &[CellSpec], epoch: SimTime) -> (Vec<GlobalReport>, u64) {
    let mut sims: Vec<Sim<'_>> = cells
        .iter()
        .map(|c| Sim::new(&c.spec, &c.config, &c.trace, &c.plan, c.policy))
        .collect();
    let mut rollbacks = 0;
    let ladder = cells[0].config.ladder;
    // `done` is the last folded barrier, `floor` the floor every cell
    // runs under after it, and `held` the epochs it has held.
    let (mut done, mut floor, mut held) = (SimTime::ZERO, 0u8, 0usize);
    loop {
        // Speculate half as far ahead as the floor has held: a floor
        // that oscillates keeps the windows at one epoch, where
        // lock-step needs no checkpoint and never rolls back.
        let window = (held / 2).max(1);
        let checkpoint = (window > 1).then(|| sims.clone());
        let records;
        (sims, records) = run_window(sims, done, epoch, window);
        // Fold the barriers in order with the lock-step rules: stop
        // once every cell is drained, else derive the next floor.
        let (mut drained, mut changed) = (false, None);
        for k in 0..window {
            if records.iter().all(|r| !r[k].more) {
                drained = true;
                break;
            }
            let next = ladder_floor(&ladder, records.iter().map(|r| r[k]));
            if next != floor {
                changed = Some((k + 1, next));
                break;
            }
        }
        if drained {
            break;
        }
        let Some((epochs, next)) = changed else {
            done += epoch * window as u64;
            held += window;
            continue;
        };
        if epochs < window {
            // The cells ran past this barrier under the old floor:
            // restore them and re-run up to it.
            rollbacks += 1;
            let restored = checkpoint.expect("windows over one epoch are checkpointed");
            sims = run_window(restored, done, epoch, epochs).0;
        }
        floor = next;
        for sim in &mut sims {
            sim.set_tier_floor(floor);
        }
        done += epoch * epochs as u64;
        held = 0;
    }
    (sims.into_iter().map(Sim::into_report).collect(), rollbacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{build_regional_trace, AutoscaleConfig, RegionalTrafficConfig};
    use mtia_core::pool;
    use mtia_core::seed::derive_indexed;
    use mtia_sim::faults::{FaultEvent, FaultKind};

    fn toy_cell(index: u64, policy: RoutingPolicy) -> CellSpec {
        let spec = GlobalFleetSpec::symmetric(2, 2, 8, SimTime::from_millis(60))
            .expect("every dimension is non-empty");
        let seed = derive_indexed(42, "planet.cell", index);
        let traffic = RegionalTrafficConfig::production(20.0, SimTime::from_secs(20));
        let trace = build_regional_trace(&traffic, spec.regions, SimTime::from_secs(20), seed);
        CellSpec {
            spec,
            config: GlobalConfig::production(seed),
            trace,
            plan: FaultPlan::empty(seed),
            policy,
        }
    }

    /// The lock-step driver the speculative windows replace: every
    /// cell advances one epoch, then the barrier derives the next
    /// floor from scratch.
    fn lock_step(cells: &[CellSpec], epoch: SimTime) -> Vec<GlobalReport> {
        let mut sims: Vec<Sim<'_>> = cells
            .iter()
            .map(|c| Sim::new(&c.spec, &c.config, &c.trace, &c.plan, c.policy))
            .collect();
        let ladder = cells[0].config.ladder;
        let mut limit = epoch;
        loop {
            for sim in &mut sims {
                sim.run_until(limit, &mut Telemetry::disabled());
            }
            let (load, up) = sims.iter().fold((0, 0), |(l, u), sim| {
                let (sl, su) = sim.load();
                (l + sl, u + su)
            });
            let floor = ladder.entry_tier(load as f64 / up as f64);
            for sim in &mut sims {
                sim.set_tier_floor(floor);
            }
            if sims.iter().all(|s| s.next_time().is_none()) {
                break;
            }
            limit += epoch;
        }
        sims.into_iter().map(Sim::into_report).collect()
    }

    /// A `global_small`-shaped cell (2 regions × 2 pods × 16 devices,
    /// 40 ms WAN) driven past the ladder's thresholds.
    fn hot_cell(index: u64, policy: RoutingPolicy, rate: f64) -> CellSpec {
        let spec = GlobalFleetSpec::symmetric(2, 2, 16, SimTime::from_millis(40))
            .expect("every dimension is non-empty");
        let seed = derive_indexed(7, "planet.hot", index);
        let horizon = SimTime::from_secs(120);
        let traffic = RegionalTrafficConfig::production(rate, horizon);
        let trace = build_regional_trace(&traffic, spec.regions, horizon, seed);
        CellSpec {
            spec,
            config: GlobalConfig::production(seed),
            trace,
            plan: FaultPlan::empty(seed),
            policy,
        }
    }

    #[test]
    fn speculative_windows_match_lock_step_under_overload() {
        let cells: Vec<CellSpec> = [
            (RoutingPolicy::HealthAware, 60.0),
            (RoutingPolicy::GrayResilient, 72.0),
            (RoutingPolicy::HealthAware, 54.0),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (policy, rate))| hot_cell(i as u64, policy, rate))
        .collect();
        for epoch in [SimTime::from_millis(250), SimTime::from_secs(1)] {
            let reference = lock_step(&cells, epoch);
            let oracle: Vec<String> = reference.iter().map(|r| format!("{r:?}")).collect();
            let merged = format!("{:?}", merge_reports(&reference));
            let degraded: u64 = reference.iter().map(|r| r.shed + r.served_degraded).sum();
            assert!(degraded > 0, "the ladder must engage");
            let mut rollbacks = None;
            for threads in [1, 2, 8] {
                pool::set_threads(threads);
                let planet = simulate_planet(
                    &cells,
                    PlanetConfig {
                        epoch,
                        couple_ladder: true,
                    },
                );
                pool::set_threads(0);
                let cells: Vec<String> = planet.cells.iter().map(|r| format!("{r:?}")).collect();
                assert_eq!(cells, oracle, "{threads} threads, epoch {epoch}");
                assert_eq!(format!("{:?}", planet.merged), merged);
                assert!(planet.rollbacks > 0, "the rollback path must run");
                assert_eq!(*rollbacks.get_or_insert(planet.rollbacks), planet.rollbacks);
            }
        }
    }

    /// An overloaded `OverloadResilient` cell with the autoscaler on
    /// and reserve devices to recruit; one pod dies outright for 6 s.
    /// As in E26, little traffic is sheddable and the degraded tier
    /// costs full service time, so the ladder cannot absorb the
    /// overload and the retry, breaker and admission defenses engage.
    fn stormy_cell() -> CellSpec {
        let mut cell = toy_cell(1, RoutingPolicy::OverloadResilient);
        let horizon = SimTime::from_secs(20);
        let mut traffic = RegionalTrafficConfig::production(30.0, horizon);
        traffic.low_priority_share = 0.05;
        cell.trace = build_regional_trace(&traffic, cell.spec.regions, horizon, cell.config.seed);
        cell.config.degraded_service_time = cell.config.service_time;
        cell.config.reserve_per_pod = 2;
        cell.config.autoscale = Some(AutoscaleConfig::production(horizon));
        let first = 2 * cell.spec.devices_per_pod;
        for device in first..first + cell.spec.devices_per_pod {
            cell.plan = cell.plan.with_event(FaultEvent {
                at: SimTime::from_secs(5),
                device,
                kind: FaultKind::PodLoss,
                duration: SimTime::from_secs(6),
            });
        }
        cell
    }

    #[test]
    fn uncoupled_cells_match_simulate_global_exactly() {
        // A gray-resilient cell with its own plan: two devices of pod 0
        // throttle deep for most of the run.
        let mut gray = toy_cell(3, RoutingPolicy::GrayResilient);
        for device in [0, 1] {
            gray.plan = gray.plan.with_event(FaultEvent {
                at: SimTime::from_secs(3),
                device,
                kind: FaultKind::ThermalThrottle {
                    ramp_s: 4.0,
                    floor: 0.2,
                },
                duration: SimTime::from_secs(12),
            });
        }
        let cells = [
            toy_cell(0, RoutingPolicy::HealthAware),
            stormy_cell(),
            toy_cell(2, RoutingPolicy::StaticLocal),
            gray,
        ];
        let direct: Vec<GlobalReport> = cells
            .iter()
            .map(|c| simulate_global(&c.spec, &c.config, &c.trace, &c.plan, c.policy))
            .collect();
        let oracle: Vec<String> = direct.iter().map(|r| format!("{r:?}")).collect();
        let merged = format!("{:?}", merge_reports(&direct));
        let uncoupled = PlanetConfig::uncoupled(SimTime::from_millis(250));
        for threads in [1, 2, 8] {
            pool::set_threads(threads);
            let planet = simulate_planet(&cells, uncoupled);
            pool::set_threads(0);
            let got: Vec<String> = planet.cells.iter().map(|r| format!("{r:?}")).collect();
            assert_eq!(got, oracle, "{threads} threads");
            assert_eq!(format!("{:?}", planet.merged), merged);
            assert_eq!(planet.rollbacks, 0);
        }
        // A one-cell planet's merge keeps that cell's report, its
        // fingerprints folded; the stormy cell's recovery time and
        // headroom show the max/min folds keep a single value.
        for (cell, direct) in cells.iter().zip(direct) {
            let one = simulate_planet(std::slice::from_ref(cell), uncoupled);
            let folded = GlobalReport {
                fault_fingerprint: fold_fingerprints(std::iter::once(direct.fault_fingerprint)),
                trace_fingerprint: fold_fingerprints(std::iter::once(direct.trace_fingerprint)),
                ..direct
            };
            assert_eq!(format!("{:?}", one.merged), format!("{folded:?}"));
        }
    }

    #[test]
    fn stormy_cell_moves_every_overload_counter() {
        let cell = stormy_cell();
        let r = simulate_global(
            &cell.spec,
            &cell.config,
            &cell.trace,
            &cell.plan,
            cell.policy,
        );
        assert_eq!(r.unaccounted(), 0);
        for (name, value) in [
            ("retries_issued", r.retries_issued),
            ("retries_shed", r.retries_shed),
            ("breaker_opens", r.breaker_opens),
            ("cancelled_at_admission", r.cancelled_at_admission),
            ("scale_events", r.scale_events),
            ("device_downs", r.device_downs),
            ("lost", r.lost),
        ] {
            assert!(value > 0, "{name} never moved");
        }
        assert!(r.recovery_time > SimTime::ZERO);
        assert!(r.capacity_headroom < 1.0);
        assert!(!r.timeline.is_empty());
    }

    #[test]
    #[should_panic(expected = "one timeline bucket width")]
    fn cells_with_different_timeline_buckets_are_rejected() {
        let mut other = toy_cell(1, RoutingPolicy::HealthAware);
        other.config.timeline_bucket = SimTime::from_millis(500);
        simulate_planet(
            &[toy_cell(0, RoutingPolicy::HealthAware), other],
            PlanetConfig::uncoupled(SimTime::from_secs(1)),
        );
    }

    /// The parameter a rejected planet config names.
    fn rejected(planet: PlanetConfig, cells: &[CellSpec]) -> &'static str {
        match planet.validate(cells) {
            Err(ConfigError::OutOfRange { what, .. }) => what,
            other => panic!("expected a rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_planet_without_cells_is_rejected() {
        assert_eq!(rejected(PlanetConfig::production(), &[]), "planet cells");
    }

    #[test]
    fn a_planet_mixing_timeline_buckets_is_rejected() {
        let mut other = toy_cell(1, RoutingPolicy::HealthAware);
        other.config.timeline_bucket = SimTime::from_millis(500);
        let cells = [toy_cell(0, RoutingPolicy::HealthAware), other];
        assert_eq!(
            rejected(PlanetConfig::production(), &cells),
            "cell timeline bucket"
        );
    }

    #[test]
    fn a_zero_epoch_is_rejected() {
        let cells = [toy_cell(0, RoutingPolicy::HealthAware)];
        assert_eq!(PlanetConfig::production().validate(&cells), Ok(()));
        let planet = PlanetConfig::uncoupled(SimTime::ZERO);
        assert_eq!(rejected(planet, &cells), "planet epoch");
    }

    #[test]
    fn planet_is_byte_identical_across_thread_counts() {
        let cells: Vec<CellSpec> = (0..4)
            .map(|i| toy_cell(i, RoutingPolicy::HealthAware))
            .collect();
        let run = |threads: usize| {
            pool::set_threads(threads);
            let planet = simulate_planet(&cells, PlanetConfig::production());
            pool::set_threads(0);
            planet
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        for other in [&two, &eight] {
            assert_eq!(one.merged.offered, other.merged.offered);
            assert_eq!(one.merged.served_full, other.merged.served_full);
            assert_eq!(one.merged.served_degraded, other.merged.served_degraded);
            assert_eq!(one.merged.shed, other.merged.shed);
            assert_eq!(one.merged.lost, other.merged.lost);
            assert_eq!(one.merged.events, other.merged.events);
            assert_eq!(one.merged.routed, other.merged.routed);
            assert_eq!(one.merged.trace_fingerprint, other.merged.trace_fingerprint);
            assert_eq!(
                one.merged.request_latency.quantile(0.999),
                other.merged.request_latency.quantile(0.999)
            );
        }
    }

    #[test]
    fn merged_counters_conserve_across_cells() {
        let cells: Vec<CellSpec> = (0..3)
            .map(|i| toy_cell(i, RoutingPolicy::GrayResilient))
            .collect();
        let planet = simulate_planet(&cells, PlanetConfig::production());
        assert_eq!(planet.cells.len(), 3);
        assert_eq!(planet.merged.unaccounted(), 0);
        let offered: u64 = planet.cells.iter().map(|c| c.offered).sum();
        let events: u64 = planet.cells.iter().map(|c| c.events).sum();
        assert_eq!(planet.merged.offered, offered);
        assert_eq!(planet.merged.events, events);
        assert_eq!(
            planet.merged.request_latency.count(),
            planet.cells.iter().map(|c| c.request_latency.count()).sum()
        );
    }
}
