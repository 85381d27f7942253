#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, release build,
# and the complete test suite. Everything is hermetic — the three external
# dependencies (rand, proptest, criterion) are vendored path crates under
# third_party/, so no network or registry access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no tracked build artifacts"
# Build output must never be committed: fail if the index contains any
# target/ directory (workspace root or nested) or other generated junk.
if git ls-files | grep -E '(^|/)target/|\.rlib$|\.rmeta$|\.crate$' >/dev/null; then
  echo "error: build artifacts are tracked in git:" >&2
  git ls-files | grep -E '(^|/)target/|\.rlib$|\.rmeta$|\.crate$' | head >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
# Broken, ambiguous or private intra-doc links fail the build, so deleting
# an item can never leave a dangling link in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> examples in release"
# The examples are the non-test callers of much of the public API (the
# autotuner, rollout_serving, the SDC incident timeline), and each one
# asserts its own acceptance criteria, so each must exit 0. Once built,
# all ten run in well under a second together.
cargo build --release --examples
time for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> reproduce smoke: determinism + perf (--filter quick)"
# The fast experiment subset (fig5, e19_rung, e21_rung, e22_rung,
# e23_rung, e24_rung, e25_rung, e26_rung), run at one thread and at all
# host threads: fails if the rendered tables are not byte-identical,
# and leaves the per-experiment wall-clock/speedup/events-per-sec/
# peak-RSS/Zipf-memo telemetry in BENCH_PERF.json.
# e25_rung's design search re-solves the same embedding-cache budgets
# through the Zipf hit-rate memo in sim::costcache, so a 0% overall hit
# rate here is a regression (the binary warns on it).
#
# --perf-baseline regression-gates the DES core's single-thread
# events/sec against the checked-in BENCH_BASELINE.json: any gated
# experiment (≥100k simulated events; in the quick subset that is fig5,
# the remote/merge engine's 1.2M kernel pops, and e24_rung,
# the cell-sharded planetary replay) more than 25% slower than
# baseline fails the build, and so does any gated experiment whose
# simulated event count differs from the baseline's (counts are
# deterministic, so an inflated count cannot pass as a faster rate).
# On a host with known slower/noisier clocks than the baseline machine,
# export MTIA_PERF_ALLOW_REGRESSION=1 to downgrade a rate failure to a
# warning; refresh BENCH_BASELINE.json (copy a representative
# BENCH_PERF.json) when a slowdown or a count change is intended.
time target/release/reproduce --threads "$(nproc)" --filter quick \
  --determinism-check --bench-perf BENCH_PERF.json \
  --perf-baseline BENCH_BASELINE.json

echo "==> telemetry smoke: tracing is a pure observer (+ trace artifacts)"
# Traced and untraced runs of the pinned-seed scenarios must produce
# byte-identical results with <10 % wall-clock overhead; the canonical +
# Chrome trace_event exports land in traces/ for artifact upload.
target/release/reproduce --filter quick --telemetry-smoke --trace-out traces

echo "==> chaos smoke: failover survives the seeded correlated-fault suite"
# The aimed chaos suite (host crash, rolling rack loss, partition at the
# diurnal peak) against a domain-aware failover cell, plus the region
# suite (pod loss, rolling pod loss, region outage at the crest, WAN
# partition, and the fail-slow gray_failure preset — thermal throttles,
# retention drift, a flapping NIC — against the outlier-hedge arm): zero
# cell-level requests lost forever, request accounting conserved
# everywhere, goodput >= 90 %.
target/release/reproduce --chaos-smoke

echo "==> explore smoke: tiny-space rung + paper-space oracle for the search"
# Exhaustive search over the tiny pinned design space (the one behind
# tests/goldens/explore_frontier.golden) at the default seed: fails
# unless the argmax is exactly the shipped sram256 8x8 lpddr 1350MHz
# lm384 point — the cheapest end-to-end check that the objective,
# cost model, and search driver still agree on the paper's design.
# Then the exhaustive paper-space sweep (384 candidates x 5 models)
# serves as an oracle: its best must be the shipped point or
# Pareto-dominate it, and the seeded E25 search must report no
# Perf/TCO above the sweep's best. The search-to-sweep gap is printed.
target/release/reproduce --explore-smoke

echo "==> cargo test"
cargo test -q --workspace

echo "==> global DES unit tests in release"
# The workspace tests build the debug layout, where a queued request
# copy also carries its request's full generational handle for a debug
# check. In release a copy is a bare 4-byte arena slot: this runs the
# layout guards that pin that size, and the DES tests against the
# release-only slot check.
cargo test -q --release -p mtia-serving --lib global

echo "==> allocation guard in release"
# A ChipSim run and a GPU baseline run must allocate per run, not per
# node: a counting allocator pins the exact allocation count of runs of
# two zoo models with different node counts, in the optimized build the
# co-design search uses. The count is exact, so it cannot drift with the
# host.
cargo test -q --release -p mtia-sim --test alloc_guard

echo "==> perfbench self-tests"
# The benchmark package (perfbench/, its own workspace) builds against
# the crates' public API; a crate API change that breaks it fails here.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "CI gate passed."
