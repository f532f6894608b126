//! BATCH bench: single-shot vs batched vs cached evaluation throughput
//! at widths 8/16/32 — the perf baseline for the backend/session API.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use magnon_bench::random_operand_sets;
use magnon_core::backend::BackendChoice;
use magnon_core::gate::{ParallelGate, ParallelGateBuilder};
use magnon_math::constants::GHZ;
use magnon_physics::waveguide::Waveguide;
use std::hint::black_box;

const BATCH: usize = 256;

fn gate_with_width(n: usize) -> ParallelGate {
    // 32 channels at 10 GHz spacing would pass 320 GHz; pack at 4 GHz
    // so all three widths share one frequency plan style.
    ParallelGateBuilder::new(Waveguide::paper_default().expect("waveguide"))
        .channels(n)
        .inputs(3)
        .base_frequency(10.0 * GHZ)
        .frequency_step(4.0 * GHZ)
        .build()
        .expect("gate")
}

fn bench_batch(c: &mut Criterion) {
    for n in [8usize, 16, 32] {
        let gate = gate_with_width(n);
        let sets = random_operand_sets(&gate, BATCH).expect("operand sets");
        let mut group = c.benchmark_group(format!("batch_w{n}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((BATCH * n) as u64));

        // N independent single-shot calls through the public wrapper,
        // collecting all outputs (what a caller replacing a batch call
        // would actually do).
        group.bench_function("single_shot_x256", |b| {
            b.iter(|| {
                sets.iter()
                    .map(|set| gate.evaluate(black_box(set.words())).expect("evaluate"))
                    .collect::<Vec<_>>()
            })
        });

        // One batched call through an analytic session.
        let mut analytic = gate.session(BackendChoice::Analytic).expect("session");
        group.bench_function("analytic_batch_256", |b| {
            b.iter(|| black_box(analytic.evaluate_batch(black_box(&sets)).expect("batch")))
        });

        // One batched call through a truth-table session: readouts
        // gathered from the gate's table.
        let mut cached = gate.session(BackendChoice::Cached).expect("session");
        group.bench_function("cached_batch_256", |b| {
            b.iter(|| black_box(cached.evaluate_batch(black_box(&sets)).expect("batch")))
        });

        // Logic-only bit-sliced kernel on the same table: 64 operand
        // sets advance per boolean word-op, and no per-channel analog
        // readouts are materialized.
        let mut sliced = gate.session(BackendChoice::Cached).expect("session");
        group.bench_function("sliced_batch_256", |b| {
            b.iter(|| {
                black_box(
                    sliced
                        .evaluate_batch_logic(black_box(&sets))
                        .expect("batch"),
                )
            })
        });

        group.finish();
    }
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
