//! Criterion microbenchmarks of the simulator's hot paths: the cache
//! simulator, the Che/Zipf analytic model, the rANS and LZSS codecs, the
//! DES kernel, and one full chip-level model execution.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mtia_core::des::Kernel;
use mtia_core::spec::chips;
use mtia_core::SimTime;
use mtia_model::compress::{ans, lzss};
use mtia_model::models::dlrm::DlrmConfig;
use mtia_sim::chip::ChipSim;
use mtia_sim::mem::cache::{zipf_hit_rate, SetAssocCache};

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cache, bench_codecs, bench_engine, bench_chip
}
criterion_main!(benches);
