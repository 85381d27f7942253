//! The benchmark's workloads. Each is a batch job whose simulated
//! traffic is open-loop and fixed by its seeded inputs; each module
//! states why the workload exists.

pub mod codesign;
pub mod overload;
pub mod planet;
pub mod pod;

use mtia_serving::global::GlobalReport;

use crate::job::Ctx;

/// Input size: the benchmark's own (`Full`) or a few-second version of
/// the same job for the self-tests (`Tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Full,
    /// The same job shape on toy fleets and spaces.
    Tiny,
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E24: sharded planetary replay (see [`planet`]).
    Planet,
    /// E26: metastable-overload arms (see [`overload`]).
    Overload,
    /// E25: co-design sweep and search (see [`codesign`]).
    Codesign,
    /// The per-pod failover, resilience and scheduler loops (see [`pod`]).
    Pod,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Planet,
        Workload::Overload,
        Workload::Codesign,
        Workload::Pod,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Planet => "planet",
            Workload::Overload => "overload",
            Workload::Codesign => "codesign",
            Workload::Pod => "pod",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one job of the workload.
    pub fn run(self, seed: u64, scale: Scale, ctx: &Ctx) {
        match self {
            Workload::Planet => planet::run(seed, scale, ctx),
            Workload::Overload => overload::run(seed, scale, ctx),
            Workload::Codesign => codesign::run(seed, scale, ctx),
            Workload::Pod => pod::run(seed, scale, ctx),
        }
    }
}

/// Folds a global-serving report's simulated statistics into the digest.
fn fold_global(ctx: &Ctx, key: &str, r: &GlobalReport) {
    ctx.fold(
        key,
        format_args!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {:016x} {:016x} {} {}",
            r.offered,
            r.served_full,
            r.served_degraded,
            r.shed,
            r.lost,
            r.spillover,
            r.retries_issued,
            r.retries_shed,
            r.breaker_opens,
            r.cancelled_at_admission,
            r.scale_events,
            r.events,
            r.trace_fingerprint,
            r.fault_fingerprint,
            r.request_latency.p99().as_picos(),
            r.capacity_headroom,
        ),
    );
}
