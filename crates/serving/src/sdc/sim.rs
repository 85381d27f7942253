//! The guarded-serving event loop: requests, canaries, shadow votes,
//! suspicion scoring, and quarantine hand-off.
//!
//! [`run_sdc_sim`] drives a small fleet of [`DeviceImage`]s through a
//! deterministic request stream while a seeded [`FaultPlan`] injects §5.1
//! LPDDR bit flips. The defense ladder is entirely policy-driven:
//!
//! * **Inline guards** — every execution runs the checksum/bounds/range
//!   guards; a violation rejects the response and retries on a peer.
//! * **Canary deferral** — responses stay *provisional* in a per-device
//!   pending window until the device's next canary fingerprint matches
//!   its golden value; a mismatch replays the whole window on peers, so
//!   silently corrupted outputs are never committed.
//! * **Shadow voting** — devices whose suspicion score crossed the
//!   shadow threshold get their responses re-executed on a peer and
//!   served only by (majority) agreement; unresolvable splits fall back
//!   to the deferred-commit window rather than serving blind.
//! * **Quarantine** — when suspicion reaches the quarantine threshold
//!   the device drains through the PR-1 health machine and is handed to
//!   a [`QuarantineHandler`] (the fleet crate's manager in production;
//!   [`InlineRepair`] standalone), which memtests, repairs, and either
//!   schedules the device back on probation or retires it.

use std::collections::HashMap;
use std::iter::Peekable;
use std::slice;

use mtia_core::error::ConfigError;
use mtia_core::{DetectionMethod, SdcIncident, SimTime};
use mtia_model::integrity::{output_fingerprint, IntegrityViolation, OutputGuard};
use mtia_model::tensor::DenseTensor;
use mtia_sim::faults::{FaultEvent, FaultKind, FaultPlan};

use crate::resilience::{HealthConfig, HealthMachine};

use super::image::{DeviceImage, ImageSpec, RequestInput};
use super::policy::DetectionPolicy;
use super::report::SdcReport;

/// Workload and fleet shape for one defended-serving run.
#[derive(Debug, Clone, Copy)]
pub struct SdcSimConfig {
    /// Fleet size.
    pub devices: u32,
    /// User requests offered.
    pub requests: u32,
    /// Spacing between request arrivals.
    pub inter_arrival: SimTime,
    /// The model working set every device loads.
    pub image: ImageSpec,
    /// Detection policy under test.
    pub policy: DetectionPolicy,
}

impl SdcSimConfig {
    /// The E19 default: 6 devices, 1 200 requests at 1 ms spacing.
    pub fn default_for(policy: DetectionPolicy, seed: u64) -> Self {
        SdcSimConfig {
            devices: 6,
            requests: 1200,
            inter_arrival: SimTime::from_millis(1),
            image: ImageSpec::small(seed),
            policy,
        }
    }

    /// Checks the fleet shape every SDC run needs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] on zero `devices`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices == 0 {
            return Err(ConfigError::OutOfRange {
                what: "SDC fleet devices",
                valid: "at least one device",
            });
        }
        Ok(())
    }
}

/// Context a [`QuarantineHandler`] receives for a quarantined device.
#[derive(Debug, Clone, Copy)]
pub struct QuarantineRequest {
    /// Fleet index of the device.
    pub device: u32,
    /// Quarantine time.
    pub at: SimTime,
    /// Suspicion score at quarantine.
    pub suspicion: f64,
}

/// What the quarantine workflow decided for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineDecision {
    /// Device was memtested and repaired; it rejoins the fleet on
    /// probation at `back_at`.
    Repair {
        /// When the device is dispatchable again.
        back_at: SimTime,
    },
    /// Device is permanently removed from service.
    Retire,
}

/// The quarantine/repair workflow the serving loop hands suspect devices
/// to. `mtia-fleet`'s quarantine manager implements the full §5.1
/// drain → targeted-memtest → release/retire workflow; [`InlineRepair`]
/// is the dependency-free default.
pub trait QuarantineHandler {
    /// Processes one quarantined device. On `Repair` the handler must
    /// leave `image` clean (memtest + reload); the simulator asserts it.
    fn handle(&mut self, req: &QuarantineRequest, image: &mut DeviceImage) -> QuarantineDecision;
}

/// Minimal in-process repair: immediate memtest + golden reload, with a
/// lifetime fault budget after which the device is retired.
#[derive(Debug, Clone)]
pub struct InlineRepair {
    /// Out-of-service time a quarantine costs (drain + memtest + reload).
    pub memtest_time: SimTime,
    /// Lifetime memtest faults at or above which a device is retired
    /// instead of returned.
    pub retire_after_faults: usize,
    faults_by_device: HashMap<u32, usize>,
}

impl InlineRepair {
    /// A repairer with the given memtest cost and retirement budget.
    pub fn new(memtest_time: SimTime, retire_after_faults: usize) -> Self {
        InlineRepair {
            memtest_time,
            retire_after_faults: retire_after_faults.max(1),
            faults_by_device: HashMap::new(),
        }
    }

    /// Lifetime faults found on a device so far.
    pub fn lifetime_faults(&self, device: u32) -> usize {
        self.faults_by_device.get(&device).copied().unwrap_or(0)
    }
}

impl QuarantineHandler for InlineRepair {
    fn handle(&mut self, req: &QuarantineRequest, image: &mut DeviceImage) -> QuarantineDecision {
        let findings = image.repair();
        let total = self.faults_by_device.entry(req.device).or_insert(0);
        *total += findings.total();
        if *total >= self.retire_after_faults {
            QuarantineDecision::Retire
        } else {
            QuarantineDecision::Repair {
                back_at: req.at + self.memtest_time,
            }
        }
    }
}

/// One injected flip's ground-truth bookkeeping.
#[derive(Debug, Clone, Copy)]
struct FlipRecord {
    at: SimTime,
    /// Set once the naive-path oracle shows the flip corrupting an
    /// executed request's output.
    corrupting: bool,
    detected_at: Option<SimTime>,
    repaired: bool,
}

/// A provisional (uncommitted) response awaiting canary confirmation.
#[derive(Debug, Clone, Copy)]
struct PendingResponse {
    request: u64,
    corrupted: bool,
    rescued: bool,
}

struct Dev {
    image: DeviceImage,
    health: HealthMachine,
    suspicion: f64,
    since_canary: u32,
    pending: Vec<PendingResponse>,
    flips: Vec<FlipRecord>,
    back_at: Option<SimTime>,
    retired: bool,
}

impl Dev {
    fn has_active_flip(&self) -> bool {
        self.flips.iter().any(|f| !f.repaired)
    }
}

/// What an execution was for (cost accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecKind {
    User,
    Canary,
    Shadow,
    Replay,
    Retry,
}

struct Sim<'a> {
    cfg: &'a SdcSimConfig,
    guard: OutputGuard,
    canary_fp: u64,
    devs: Vec<Dev>,
    cursor: usize,
    report: SdcReport,
}

/// Runs one defended-serving simulation: `cfg.requests` arrivals against
/// `plan`'s injected bit flips, with quarantined devices handed to
/// `handler`. Fully deterministic in `(cfg, plan)`.
pub fn run_sdc_sim(
    cfg: &SdcSimConfig,
    plan: &FaultPlan,
    handler: &mut dyn QuarantineHandler,
) -> SdcReport {
    cfg.validate().expect("a valid SDC config");
    let golden = cfg.image.build();
    // Calibrate the output guard from golden outputs of a request sample
    // (plus the canary), at the policy's margin.
    let samples: Vec<DenseTensor> = (0..64u64)
        .map(|i| golden.execute_golden(&cfg.image.request(i)))
        .chain(std::iter::once(golden.execute_golden(&cfg.image.canary())))
        .collect();
    let guard = OutputGuard::calibrate(&samples, cfg.policy.guard_margin);
    let canary_fp = golden.golden_canary_fingerprint();

    let devs = (0..cfg.devices)
        .map(|_| Dev {
            image: golden.clone(),
            health: HealthMachine::new(HealthConfig::default()),
            suspicion: 0.0,
            since_canary: 0,
            pending: Vec::new(),
            flips: Vec::new(),
            back_at: None,
            retired: false,
        })
        .collect();

    let mut sim = Sim {
        cfg,
        guard,
        canary_fp,
        devs,
        cursor: 0,
        report: SdcReport {
            policy: cfg.policy.name.to_string(),
            seed: cfg.image.seed,
            fault_fingerprint: plan.fingerprint(),
            ..SdcReport::default()
        },
    };

    let mut faults = plan.events().iter().peekable();
    let mut end = SimTime::ZERO;
    for r in 0..cfg.requests {
        let now = cfg.inter_arrival * (r as u64 + 1);
        end = now;
        sim.inject_due(&mut faults, now);
        sim.return_repaired(now);
        sim.report.offered += 1;

        let req = cfg.image.request(r as u64);
        let Some(d) = sim.pick_device() else {
            sim.report.dropped += 1;
            continue;
        };
        sim.serve_request(d, &req, now, handler);
        sim.maybe_canary(d, now, handler);
    }
    // Flush: one final canary on every device still holding provisional
    // responses, so every offered request resolves to served or dropped.
    for d in 0..sim.devs.len() {
        if !sim.devs[d].pending.is_empty() {
            sim.run_canary(d, end, handler);
        }
        debug_assert!(sim.devs[d].pending.is_empty(), "flush must drain pending");
    }
    sim.finish()
}

impl Sim<'_> {
    fn inject_due(&mut self, faults: &mut Peekable<slice::Iter<'_, FaultEvent>>, now: SimTime) {
        while let Some(e) = faults.next_if(|e| e.at <= now) {
            if let FaultKind::LpddrBitFlip { region, word, bit } = e.kind {
                let d = (e.device as usize) % self.devs.len();
                self.devs[d].image.apply_flip(region, word, bit);
                self.devs[d].flips.push(FlipRecord {
                    at: e.at,
                    corrupting: false,
                    detected_at: None,
                    repaired: false,
                });
                self.report.flips_injected += 1;
                self.report.timeline.push((
                    e.at,
                    d as u32,
                    format!("LPDDR bit flip injected ({region:?}, word {word}, bit {bit})"),
                ));
            }
        }
    }

    fn return_repaired(&mut self, now: SimTime) {
        for (i, dev) in self.devs.iter_mut().enumerate() {
            if let Some(back) = dev.back_at {
                if back <= now && !dev.retired {
                    dev.back_at = None;
                    dev.health.begin_recovery(now);
                    self.report.timeline.push((
                        now,
                        i as u32,
                        "returns to service on probation".to_string(),
                    ));
                }
            }
        }
    }

    fn in_service(&self, d: usize) -> bool {
        let dev = &self.devs[d];
        !dev.retired && dev.back_at.is_none() && dev.health.is_dispatchable()
    }

    /// Round-robin over in-service devices.
    fn pick_device(&mut self) -> Option<usize> {
        let n = self.devs.len();
        for step in 0..n {
            let d = (self.cursor + step) % n;
            if self.in_service(d) {
                self.cursor = d + 1;
                return Some(d);
            }
        }
        None
    }

    /// Next in-service device after `after`, excluding `exclude`.
    fn pick_peer(&self, after: usize, exclude: &[usize]) -> Option<usize> {
        let n = self.devs.len();
        (1..=n)
            .map(|step| (after + step) % n)
            .find(|&d| self.in_service(d) && !exclude.contains(&d))
    }

    /// Runs one guarded execution on device `d`, with all the side
    /// accounting: cost counters, clean-execution counting, and the
    /// naive-path corruption oracle that marks active flips as
    /// output-corrupting.
    fn exec_guarded(
        &mut self,
        d: usize,
        req: &RequestInput,
        kind: ExecKind,
    ) -> Result<DenseTensor, IntegrityViolation> {
        self.count_exec(kind);
        self.report.execs_guarded += 1;
        if !self.devs[d].has_active_flip() {
            self.report.clean_guarded_executions += 1;
        } else {
            self.mark_corrupting_if_naive_would_corrupt(d, req);
        }
        let guard = self.guard;
        self.devs[d].image.execute_guarded(req, &guard)
    }

    /// Runs one unguarded (naive) execution on device `d`.
    fn exec_unguarded(&mut self, d: usize, req: &RequestInput, kind: ExecKind) -> DenseTensor {
        self.count_exec(kind);
        if self.devs[d].has_active_flip() {
            self.mark_corrupting_if_naive_would_corrupt(d, req);
        }
        self.devs[d].image.execute_unguarded(req)
    }

    fn count_exec(&mut self, kind: ExecKind) {
        match kind {
            ExecKind::User => self.report.execs_user += 1,
            ExecKind::Canary => self.report.execs_canary += 1,
            ExecKind::Shadow => self.report.execs_shadow += 1,
            ExecKind::Replay => self.report.execs_replay += 1,
            ExecKind::Retry => self.report.execs_retry += 1,
        }
    }

    /// Ground-truth oracle: would the *naive* path have served a
    /// corrupted output for `req` on device `d` right now? If so, every
    /// active flip on `d` is output-corrupting. Oracle work — costs
    /// nothing in the overhead accounting.
    fn mark_corrupting_if_naive_would_corrupt(&mut self, d: usize, req: &RequestInput) {
        let dev = &mut self.devs[d];
        let naive = dev.image.execute_unguarded(req);
        if dev.image.is_corrupted_output(req, &naive) {
            for f in dev.flips.iter_mut().filter(|f| !f.repaired) {
                if !f.corrupting {
                    f.corrupting = true;
                    self.report.flips_corrupting += 1;
                    if f.detected_at.is_some() {
                        // Detected before it proved corrupting.
                        self.report.flips_detected_corrupting += 1;
                    }
                }
            }
        }
    }

    fn method_of(v: IntegrityViolation) -> DetectionMethod {
        match v {
            IntegrityViolation::RowChecksumMismatch { .. } => DetectionMethod::RowChecksum,
            IntegrityViolation::IndexOutOfBounds { .. } => DetectionMethod::IndexBounds,
            IntegrityViolation::IndexStreamMismatch => DetectionMethod::IndexStreamChecksum,
            IntegrityViolation::NonFiniteOutput { .. }
            | IntegrityViolation::OutputOutOfRange { .. } => DetectionMethod::OutputGuard,
        }
    }

    /// Records an incident on device `d` and bumps its suspicion.
    fn incident(&mut self, d: usize, method: DetectionMethod, now: SimTime) {
        let genuine = self.devs[d].has_active_flip();
        self.report.incidents.push(SdcIncident {
            at: now,
            device: d as u32,
            method,
            genuine,
        });
        *self.report.incidents_by_method.entry(method).or_insert(0) += 1;
        let s = &self.cfg.policy.suspicion;
        self.devs[d].suspicion += match method {
            DetectionMethod::CanaryFingerprint => s.canary_mismatch,
            DetectionMethod::ShadowVote => s.shadow_mismatch,
            _ => s.guard_trip,
        };
        self.report.timeline.push((
            now,
            d as u32,
            format!(
                "{method} fired{} (suspicion {:.2})",
                if genuine { "" } else { " [false positive]" },
                self.devs[d].suspicion
            ),
        ));
        if genuine {
            self.mark_active_flips_detected(d, now);
        } else {
            self.report.false_positives += 1;
        }
    }

    fn mark_active_flips_detected(&mut self, d: usize, now: SimTime) {
        let mut latencies = Vec::new();
        for f in self.devs[d].flips.iter_mut().filter(|f| !f.repaired) {
            if f.detected_at.is_none() {
                f.detected_at = Some(now);
                latencies.push(now.saturating_sub(f.at));
                if f.corrupting {
                    self.report.flips_detected_corrupting += 1;
                }
            }
        }
        self.report.detection_latencies.extend(latencies);
    }

    /// Serves one user request that arrived at device `d`.
    fn serve_request(
        &mut self,
        d: usize,
        req: &RequestInput,
        now: SimTime,
        handler: &mut dyn QuarantineHandler,
    ) {
        self.devs[d].since_canary += 1;
        if !self.cfg.policy.inline_guards {
            // Pre-defense path: serve whatever comes out.
            let out = self.exec_unguarded(d, req, ExecKind::User);
            let corrupted = self.devs[d].image.is_corrupted_output(req, &out);
            self.commit(d, corrupted, false, now);
            return;
        }
        match self.exec_guarded(d, req, ExecKind::User) {
            Ok(out) => {
                self.devs[d].health.observe_success(now);
                self.resolve_ok(d, req, out, now, false, handler);
            }
            Err(v) => {
                self.devs[d].health.observe_error(now);
                self.incident(d, Self::method_of(v), now);
                self.maybe_quarantine(d, now, handler);
                self.retry_elsewhere(d, req, now, handler);
            }
        }
    }

    /// A guarded execution on `d` succeeded; decide how to serve it.
    fn resolve_ok(
        &mut self,
        d: usize,
        req: &RequestInput,
        out: DenseTensor,
        now: SimTime,
        rescued: bool,
        handler: &mut dyn QuarantineHandler,
    ) {
        let policy = self.cfg.policy;
        if policy.shadow_voting && self.devs[d].suspicion > policy.suspicion.shadow_above {
            self.serve_with_shadow_vote(d, req, out, now, rescued, handler);
        } else {
            self.defer_or_commit(d, req, out, rescued, now);
        }
    }

    /// Holds the response in `d`'s provisional window when canary
    /// deferral is on; commits immediately otherwise.
    fn defer_or_commit(
        &mut self,
        d: usize,
        req: &RequestInput,
        out: DenseTensor,
        rescued: bool,
        now: SimTime,
    ) {
        let corrupted = self.devs[d].image.is_corrupted_output(req, &out);
        if self.cfg.policy.canary_every.is_some() {
            self.devs[d].pending.push(PendingResponse {
                request: req.id,
                corrupted,
                rescued,
            });
        } else {
            self.commit(d, corrupted, rescued, now);
        }
    }

    /// Commits a response to the caller.
    fn commit(&mut self, d: usize, corrupted: bool, rescued: bool, now: SimTime) {
        self.report.served += 1;
        if corrupted {
            self.report.served_corrupted += 1;
            self.report
                .timeline
                .push((now, d as u32, "CORRUPTED response served".to_string()));
        }
        if rescued {
            self.report.rescued += 1;
        }
    }

    /// Shadow re-execution voting: run `req` on a peer; disagreement
    /// escalates to a third vote, and the majority is served. An
    /// unresolvable split (fewer than three voters) defers the
    /// less-suspect output to the canary window instead of serving it
    /// unverified.
    fn serve_with_shadow_vote(
        &mut self,
        d: usize,
        req: &RequestInput,
        out: DenseTensor,
        now: SimTime,
        rescued: bool,
        handler: &mut dyn QuarantineHandler,
    ) {
        let fp = output_fingerprint(&out);
        let Some(p) = self.pick_peer(d, &[d]) else {
            // No peer available; fall back to the deferral window.
            self.defer_or_commit(d, req, out, rescued, now);
            return;
        };
        match self.exec_guarded(p, req, ExecKind::Shadow) {
            Ok(shadow) if output_fingerprint(&shadow) == fp => {
                // Agreement: the response is vote-verified; commit now.
                self.devs[p].health.observe_success(now);
                let corrupted = self.devs[d].image.is_corrupted_output(req, &out);
                self.commit(d, corrupted, rescued, now);
            }
            Ok(shadow) => {
                // 1–1 split: a third device breaks the tie if available.
                self.devs[p].health.observe_success(now);
                let shadow_fp = output_fingerprint(&shadow);
                let verdict = match self.pick_peer(p, &[d, p]) {
                    Some(t) => match self.exec_guarded(t, req, ExecKind::Shadow) {
                        Ok(tie) if output_fingerprint(&tie) == fp => Some((d, out.clone(), p)),
                        Ok(tie) if output_fingerprint(&tie) == shadow_fp => {
                            Some((p, shadow.clone(), d))
                        }
                        _ => None,
                    },
                    None => None,
                };
                match verdict {
                    Some((winner, winner_out, loser)) => {
                        self.incident(loser, DetectionMethod::ShadowVote, now);
                        self.maybe_quarantine(loser, now, handler);
                        let corrupted = self.devs[winner]
                            .image
                            .is_corrupted_output(req, &winner_out);
                        self.commit(winner, corrupted, rescued || winner != d, now);
                    }
                    None => {
                        // No majority: blame the more-suspect side and
                        // defer the other output to its canary window.
                        let (keep, keep_out, blame) =
                            if self.devs[p].suspicion <= self.devs[d].suspicion {
                                (p, shadow, d)
                            } else {
                                (d, out, p)
                            };
                        self.incident(blame, DetectionMethod::ShadowVote, now);
                        self.maybe_quarantine(blame, now, handler);
                        self.defer_or_commit(keep, req, keep_out, rescued || keep != d, now);
                    }
                }
            }
            Err(v) => {
                // The peer itself tripped a guard: the suspect's output
                // passed its own guards, but without a vote it stays in
                // the deferral window.
                self.devs[p].health.observe_error(now);
                self.incident(p, Self::method_of(v), now);
                self.maybe_quarantine(p, now, handler);
                self.defer_or_commit(d, req, out, rescued, now);
            }
        }
    }

    /// An inline guard rejected `req` on `failed`; retry on peers.
    fn retry_elsewhere(
        &mut self,
        failed: usize,
        req: &RequestInput,
        now: SimTime,
        handler: &mut dyn QuarantineHandler,
    ) {
        let mut tried = vec![failed];
        while let Some(p) = self.pick_peer(*tried.last().unwrap(), &tried) {
            tried.push(p);
            match self.exec_guarded(p, req, ExecKind::Retry) {
                Ok(out) => {
                    self.devs[p].health.observe_success(now);
                    self.resolve_ok(p, req, out, now, true, handler);
                    return;
                }
                Err(v) => {
                    self.devs[p].health.observe_error(now);
                    self.incident(p, Self::method_of(v), now);
                    self.maybe_quarantine(p, now, handler);
                }
            }
        }
        // Every in-service device rejected it.
        self.report.dropped += 1;
        self.report.timeline.push((
            now,
            failed as u32,
            "request dropped (rejected everywhere)".to_string(),
        ));
    }

    /// Runs a canary on `d` if one is due under the policy.
    fn maybe_canary(&mut self, d: usize, now: SimTime, handler: &mut dyn QuarantineHandler) {
        let Some(n) = self.cfg.policy.canary_every else {
            return;
        };
        if self.in_service(d) && self.devs[d].since_canary >= n {
            self.run_canary(d, now, handler);
        }
    }

    /// One canary round on `d`: execute the canary request guarded,
    /// compare its fingerprint with the golden value, and either commit
    /// the pending window (clean) or replay it on peers (suspect).
    fn run_canary(&mut self, d: usize, now: SimTime, handler: &mut dyn QuarantineHandler) {
        self.devs[d].since_canary = 0;
        let canary = self.cfg.image.canary();
        match self.exec_guarded(d, &canary, ExecKind::Canary) {
            Ok(out) if output_fingerprint(&out) == self.canary_fp => {
                // Clean canary: decay suspicion, commit the window.
                self.devs[d].suspicion *= self.cfg.policy.suspicion.clean_canary_decay;
                let pending = std::mem::take(&mut self.devs[d].pending);
                for p in pending {
                    self.commit(d, p.corrupted, p.rescued, now);
                }
            }
            Ok(_) => {
                self.incident(d, DetectionMethod::CanaryFingerprint, now);
                self.devs[d].health.observe_error(now);
                let pending = std::mem::take(&mut self.devs[d].pending);
                self.replay_pending(pending, d, now, handler);
                self.maybe_quarantine(d, now, handler);
            }
            Err(v) => {
                self.incident(d, Self::method_of(v), now);
                self.devs[d].health.observe_error(now);
                let pending = std::mem::take(&mut self.devs[d].pending);
                self.replay_pending(pending, d, now, handler);
                self.maybe_quarantine(d, now, handler);
            }
        }
    }

    /// Replays a suspect device's provisional window on peers before
    /// anything is committed. Under shadow voting the replayed outputs
    /// are vote-verified too (the peer may carry its own silent flip).
    fn replay_pending(
        &mut self,
        pending: Vec<PendingResponse>,
        suspect: usize,
        now: SimTime,
        handler: &mut dyn QuarantineHandler,
    ) {
        for item in pending {
            let req = self.cfg.image.request(item.request);
            let mut tried = vec![suspect];
            let mut done = false;
            while let Some(p) = self.pick_peer(*tried.last().unwrap(), &tried) {
                tried.push(p);
                match self.exec_guarded(p, &req, ExecKind::Replay) {
                    Ok(out) => {
                        self.devs[p].health.observe_success(now);
                        if self.cfg.policy.shadow_voting {
                            self.serve_with_shadow_vote(p, &req, out, now, true, handler);
                        } else {
                            let corrupted = self.devs[p].image.is_corrupted_output(&req, &out);
                            self.commit(p, corrupted, true, now);
                        }
                        done = true;
                        break;
                    }
                    Err(v) => {
                        self.devs[p].health.observe_error(now);
                        self.incident(p, Self::method_of(v), now);
                        self.maybe_quarantine(p, now, handler);
                    }
                }
            }
            if !done {
                self.report.dropped += 1;
            }
        }
    }

    /// Quarantines `d` if its suspicion crossed the threshold: drain
    /// through the health machine, replay any provisional window, and
    /// hand the device to the quarantine workflow.
    fn maybe_quarantine(&mut self, d: usize, now: SimTime, handler: &mut dyn QuarantineHandler) {
        if self.devs[d].retired
            || self.devs[d].back_at.is_some()
            || self.devs[d].suspicion < self.cfg.policy.suspicion.quarantine_threshold
        {
            return;
        }
        let suspicion = self.devs[d].suspicion;
        self.report.quarantines += 1;
        self.report.timeline.push((
            now,
            d as u32,
            format!("quarantined (suspicion {suspicion:.2}); draining"),
        ));
        self.devs[d].health.begin_drain(now);
        self.devs[d].health.set_offline(now);
        self.devs[d].suspicion = 0.0;
        // Nothing provisional may survive on a quarantined device.
        let pending = std::mem::take(&mut self.devs[d].pending);
        if !pending.is_empty() {
            self.replay_pending(pending, d, now, handler);
        }
        let qreq = QuarantineRequest {
            device: d as u32,
            at: now,
            suspicion,
        };
        // The handler owns the device image for memtest + repair.
        let decision = handler.handle(&qreq, &mut self.devs[d].image);
        match decision {
            QuarantineDecision::Repair { back_at } => {
                assert!(
                    self.devs[d].image.is_clean(),
                    "quarantine handler returned Repair with a dirty image"
                );
                self.report.repairs += 1;
                self.settle_flips(d, now);
                self.devs[d].back_at = Some(back_at.max(now));
                self.report.timeline.push((
                    now,
                    d as u32,
                    format!("memtest + repair complete; back at {}", back_at.max(now)),
                ));
            }
            QuarantineDecision::Retire => {
                self.report.retirements += 1;
                self.devs[d].retired = true;
                self.settle_flips(d, now);
                self.report.timeline.push((
                    now,
                    d as u32,
                    "retired (fault budget exhausted)".to_string(),
                ));
            }
        }
    }

    /// Marks a quarantined device's active flips repaired; flips the
    /// online pipeline hadn't individually attributed yet are credited
    /// to the targeted memtest at quarantine time.
    fn settle_flips(&mut self, d: usize, now: SimTime) {
        self.mark_active_flips_detected(d, now);
        for f in self.devs[d].flips.iter_mut() {
            f.repaired = true;
        }
    }

    fn finish(mut self) -> SdcReport {
        // Reconcile: every offered request must have been resolved.
        debug_assert_eq!(
            self.report.offered,
            self.report.served + self.report.dropped,
            "offered requests must resolve to served or dropped"
        );
        self.report.timeline.sort_by_key(|e| (e.0, e.1));
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtia_core::seed::{derive, DEFAULT_SEED};
    use mtia_sim::faults::FaultPlanConfig;

    fn plan(devices: u32, requests: u32, cfg_seed: u64) -> FaultPlan {
        let horizon = SimTime::from_millis(requests as u64 + 1);
        FaultPlan::generate(
            &FaultPlanConfig::sdc_study(),
            devices,
            horizon,
            derive(cfg_seed, "sdc/plan"),
        )
    }

    fn run(policy: DetectionPolicy) -> SdcReport {
        let cfg = SdcSimConfig::default_for(policy, DEFAULT_SEED);
        let plan = plan(cfg.devices, cfg.requests, DEFAULT_SEED);
        let mut handler = InlineRepair::new(SimTime::from_millis(20), 64);
        run_sdc_sim(&cfg, &plan, &mut handler)
    }

    #[test]
    fn a_fleet_without_devices_is_rejected() {
        let mut cfg = SdcSimConfig::default_for(DetectionPolicy::naive(), DEFAULT_SEED);
        assert_eq!(cfg.validate(), Ok(()));
        cfg.devices = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange {
                what: "SDC fleet devices",
                ..
            })
        ));
    }

    #[test]
    fn every_request_resolves() {
        for policy in [
            DetectionPolicy::naive(),
            DetectionPolicy::guards_only(),
            DetectionPolicy::guards_canary(16),
            DetectionPolicy::full(16),
        ] {
            let r = run(policy);
            assert_eq!(r.offered, 1200);
            assert_eq!(r.served + r.dropped, r.offered, "{}", r.policy);
        }
    }

    #[test]
    fn naive_serves_corruption_and_detects_nothing() {
        let r = run(DetectionPolicy::naive());
        assert!(r.flips_injected > 0, "sdc_study plan must inject flips");
        assert!(r.flips_corrupting > 0, "some flips must corrupt outputs");
        assert!(
            r.served_corrupted > 0,
            "naive must serve corrupted responses"
        );
        assert_eq!(r.flips_detected_corrupting, 0);
        assert!(r.incidents.is_empty());
    }

    #[test]
    fn full_policy_serves_zero_corrupted_and_detects_most() {
        let r = run(DetectionPolicy::full(16));
        assert_eq!(
            r.served_corrupted, 0,
            "defended path must never commit a corrupted response"
        );
        assert!(
            r.recall() >= 0.9,
            "recall {:.2} below 0.9 ({} of {})",
            r.recall(),
            r.flips_detected_corrupting,
            r.flips_corrupting
        );
        assert!(r.quarantines > 0 && r.repairs > 0);
    }

    #[test]
    fn policies_consume_byte_identical_traces() {
        let a = run(DetectionPolicy::naive());
        let b = run(DetectionPolicy::full(16));
        assert_eq!(a.fault_fingerprint, b.fault_fingerprint);
        assert_eq!(a.flips_injected, b.flips_injected);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(DetectionPolicy::full(16));
        let b = run(DetectionPolicy::full(16));
        assert_eq!(a.served, b.served);
        assert_eq!(a.served_corrupted, b.served_corrupted);
        assert_eq!(a.incidents.len(), b.incidents.len());
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(
            a.mean_detection_latency().map(|t| t.as_millis_f64()),
            b.mean_detection_latency().map(|t| t.as_millis_f64())
        );
    }

    #[test]
    fn default_guard_margin_never_false_positives_on_clean_fleet() {
        // Empty fault plan: nothing should ever fire.
        let cfg = SdcSimConfig::default_for(DetectionPolicy::full(16), DEFAULT_SEED);
        let empty = FaultPlan::generate(
            &FaultPlanConfig {
                error_prone_card_rate: 0.0,
                ..FaultPlanConfig::sdc_study()
            },
            cfg.devices,
            SimTime::from_secs(2),
            derive(DEFAULT_SEED, "sdc/clean"),
        );
        let mut handler = InlineRepair::new(SimTime::from_millis(20), 64);
        let r = run_sdc_sim(&cfg, &empty, &mut handler);
        assert_eq!(r.flips_injected, 0);
        assert_eq!(r.incidents.len(), 0, "clean run must raise no incidents");
        assert_eq!(r.false_positives, 0);
        assert_eq!(r.served, r.offered);
        assert_eq!(r.served_corrupted, 0);
    }

    #[test]
    fn tight_guard_margin_produces_false_positives() {
        let r = run(DetectionPolicy::full_tight_guard(16));
        assert!(
            r.false_positives > 0,
            "margin 1.0 must trip on clean distribution tails"
        );
        assert!(r.false_positive_rate() > 0.0);
        // Still never serves corruption — FPs cost work, not correctness.
        assert_eq!(r.served_corrupted, 0);
    }

    #[test]
    fn steady_state_overhead_undercuts_the_ecc_alternative() {
        // Overhead on a clean fleet is the defense's permanent tax; the
        // §5.1 controller-ECC alternative costs 10–15 % always.
        let cfg = SdcSimConfig::default_for(DetectionPolicy::full(32), DEFAULT_SEED);
        let empty = FaultPlan::generate(
            &FaultPlanConfig {
                error_prone_card_rate: 0.0,
                ..FaultPlanConfig::sdc_study()
            },
            cfg.devices,
            SimTime::from_secs(2),
            derive(DEFAULT_SEED, "sdc/clean"),
        );
        let mut handler = InlineRepair::new(SimTime::from_millis(20), 64);
        let r = run_sdc_sim(&cfg, &empty, &mut handler);
        assert!(
            r.overhead() < 0.10,
            "steady-state overhead {:.3} should undercut the ECC cost 0.10",
            r.overhead()
        );
        assert!(r.overhead() > 0.0, "the defense is not free");
    }

    #[test]
    fn retirement_path_fires_under_a_tiny_fault_budget() {
        let cfg = SdcSimConfig::default_for(DetectionPolicy::full(16), DEFAULT_SEED);
        let plan = plan(cfg.devices, cfg.requests, DEFAULT_SEED);
        let mut handler = InlineRepair::new(SimTime::from_millis(20), 1);
        let r = run_sdc_sim(&cfg, &plan, &mut handler);
        assert!(r.retirements > 0, "budget 1 must retire faulty devices");
        assert_eq!(r.served_corrupted, 0);
    }
}
