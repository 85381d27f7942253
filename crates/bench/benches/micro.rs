//! Criterion microbenchmarks of the simulator's hot paths: the cache
//! simulator, the Che/Zipf analytic model, the rANS and LZSS codecs, the
//! DES kernel, one full chip-level model execution, the regional
//! arrival generator, and the regional trace's replay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mtia_core::des::Kernel;
use mtia_core::spec::chips;
use mtia_core::SimTime;
use mtia_model::compress::{ans, lzss};
use mtia_model::models::dlrm::DlrmConfig;
use mtia_serving::global::{build_regional_trace, RegionalTrafficConfig};
use mtia_serving::traffic::{ArrivalProcess, FlashCrowd, RegionalArrivals};
use mtia_sim::chip::ChipSim;
use mtia_sim::mem::cache::{zipf_hit_rate, SetAssocCache};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_cache(c: &mut Criterion) {
    c.bench_function("set_assoc_cache_1k_accesses", |b| {
        let mut cache = SetAssocCache::new(1 << 20, 8, 64);
        let mut addr = 0u64;
        b.iter(|| {
            for _ in 0..1000 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
                black_box(cache.access(addr % (1 << 24), addr & 1 == 0));
            }
        });
    });

    c.bench_function("zipf_hit_rate_1b_catalog", |b| {
        b.iter(|| black_box(zipf_hit_rate(1_000_000_000, 1_000_000, 0.95)));
    });
}

fn bench_codecs(c: &mut Criterion) {
    let peaked: Vec<u8> = (0..64 * 1024)
        .map(|i: u32| {
            let x = (i.wrapping_mul(2654435761)) >> 24;
            (x % 7) as u8
        })
        .collect();
    c.bench_function("rans_compress_64k", |b| {
        b.iter(|| black_box(ans::compress(&peaked)));
    });
    let compressed = ans::compress(&peaked);
    c.bench_function("rans_decompress_64k", |b| {
        b.iter(|| black_box(ans::decompress(&compressed).unwrap()));
    });
    c.bench_function("lzss_compress_64k", |b| {
        b.iter(|| black_box(lzss::compress(&peaked)));
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("event_engine_10k_events", |b| {
        b.iter_batched(
            Kernel::new,
            |mut des| {
                for i in 0..10_000u64 {
                    des.schedule(SimTime::from_nanos(i * 7), i);
                }
                while let Some(ev) = des.next_until(SimTime::MAX) {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_chip(c: &mut Criterion) {
    let graph = DlrmConfig::small(512).build();
    let sim = ChipSim::new(chips::mtia2i());
    c.bench_function("chip_sim_dlrm_small", |b| {
        b.iter(|| black_box(sim.run_optimized(&graph)));
    });
    c.bench_function("compile_dlrm_small", |b| {
        b.iter(|| {
            black_box(mtia_compiler::compile(
                &graph,
                mtia_compiler::CompilerOptions::all(),
            ))
        });
    });
}

/// One region of the E24 production shape (600 req/s base, 600 s
/// period and horizon, one flash crowd): divide ns/iter by the printed
/// arrival count for ns per arrival.
fn bench_arrivals(c: &mut Criterion) {
    let horizon = SimTime::from_secs(600);
    let shape = RegionalTrafficConfig::production(600.0, horizon);
    let region = || {
        let crowd = FlashCrowd {
            start: SimTime::from_secs(200),
            duration: shape.crowd_duration,
            multiplier: shape.crowd_multiplier,
        };
        let mut process = RegionalArrivals::new(
            shape.base_rate_per_s,
            shape.amplitude,
            shape.period,
            SimTime::ZERO,
            vec![crowd],
            StdRng::seed_from_u64(24),
        )
        .expect("the production shape is valid");
        let (mut now, mut arrivals) = (SimTime::ZERO, 0u64);
        while let Some(t) = process.next_arrival(now).filter(|&t| t <= horizon) {
            (now, arrivals) = (t, arrivals + 1);
        }
        arrivals
    };
    println!(
        "regional_arrivals_production_region: {} arrivals/iter",
        region()
    );
    c.bench_function("regional_arrivals_production_region", |b| {
        b.iter(|| black_box(region()))
    });
}

/// Replays one E24 cell trace (the planetary fleet's three regions of
/// the production shape above): the per-arrival cost of decoding the
/// gap-encoded columns and merging them into `(time, region)` order.
/// Divide ns/iter by the printed arrival count for ns per arrival.
fn bench_trace_replay(c: &mut Criterion) {
    let horizon = SimTime::from_secs(600);
    let shape = RegionalTrafficConfig::production(600.0, horizon);
    let trace = build_regional_trace(&shape, 3, horizon, 24);
    println!("regional_trace_replay: {} arrivals/iter", trace.len());
    c.bench_function("regional_trace_replay", |b| {
        b.iter(|| {
            for arrival in trace.arrivals() {
                black_box(arrival);
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache, bench_codecs, bench_engine, bench_chip, bench_arrivals,
        bench_trace_replay
}
criterion_main!(benches);
