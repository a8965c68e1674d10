//! Measure the persistent worker pool against a spawn-per-call baseline and
//! emit `BENCH_hotpath.json`.
//!
//! ```text
//! cargo run --release -p dap-bench --bin report_hotpath
//! ```
//!
//! **pool_dispatch** — many small parallel maps through the persistent
//! worker pool vs a spawn-per-call `thread::scope` baseline doing the
//! identical sharded work.
//!
//! The row **asserts identical results** between the two dispatchers and
//! the sequential map — those assertions are always on. The wall-clock
//! acceptance bar (dispatch below spawn cost) is relaxed by
//! `DAP_BENCH_NO_ASSERT=1` so a noisy shared CI runner records an honest
//! artifact instead of failing the build.

use dap_bench::speedup_ratio;
use dap_relalg::ParPool;
use std::time::{Duration, Instant};

/// Dispatches per pool-overhead sample; items per dispatch.
const DISPATCHES: usize = 400;
const ITEMS: usize = 64;
const RUNS: usize = 9;

/// Time `slow` and `fast` with **interleaved** samples (slow, fast, slow,
/// fast, ...) and return the per-closure medians. Interleaving keeps a
/// drifting runner (CPU throttling, noisy neighbours) from loading all of
/// its slowdown onto whichever side happens to be timed second.
fn median_pair<F: FnMut(), G: FnMut()>(
    runs: usize,
    mut slow: F,
    mut fast: G,
) -> (Duration, Duration) {
    let mut s_samples: Vec<Duration> = Vec::with_capacity(runs);
    let mut f_samples: Vec<Duration> = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        slow();
        s_samples.push(start.elapsed());
        let start = Instant::now();
        fast();
        f_samples.push(start.elapsed());
    }
    s_samples.sort();
    f_samples.sort();
    (s_samples[runs / 2], f_samples[runs / 2])
}

fn main() {
    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("==============================================================");
    println!(" hotpath — persistent pool dispatch vs spawn-per-call");
    println!("==============================================================\n");
    println!("hardware threads: {hw_threads}\n");
    println!(
        "{:>13} {:>9} {:>14} {:>14} {:>9}",
        "phase", "size", "spawn", "persistent", "speedup"
    );

    // The same sharded map, dispatched DISPATCHES times, through the
    // persistent pool vs fresh OS threads per call.
    let threads = hw_threads.clamp(2, 4);
    let pool = ParPool::new(threads);
    let work = |i: usize| -> u64 {
        let mut acc = i as u64;
        for k in 0..32u64 {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7) ^ k;
        }
        acc
    };
    let expected: Vec<u64> = (0..ITEMS).map(work).collect();
    assert_eq!(
        pool.par_indices(ITEMS, work),
        expected,
        "persistent pool diverged from sequential"
    );
    let (spawned, persistent) = median_pair(
        RUNS,
        || {
            for _ in 0..DISPATCHES {
                let mut out: Vec<Vec<u64>> = Vec::new();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|s| {
                            scope.spawn(move || {
                                (s * ITEMS / threads..(s + 1) * ITEMS / threads)
                                    .map(work)
                                    .collect::<Vec<u64>>()
                            })
                        })
                        .collect();
                    out = handles.into_iter().map(|h| h.join().unwrap()).collect();
                });
                let flat: Vec<u64> = out.into_iter().flatten().collect();
                assert_eq!(flat, expected, "spawn-per-call baseline diverged");
            }
        },
        || {
            for _ in 0..DISPATCHES {
                std::hint::black_box(pool.par_indices(ITEMS, work));
            }
        },
    );
    let speedup = speedup_ratio(spawned, persistent);
    println!(
        "{:>13} {:>9} {:>14?} {:>14?} {:>8.2}x",
        "pool_dispatch", DISPATCHES, spawned, persistent, speedup
    );

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"hw_threads\": {hw_threads},\n  \"rows\": [\n    \
         {{\"phase\": \"pool_dispatch\", \"size\": {DISPATCHES}, \"aux\": {threads}, \
         \"spawn_ns\": {}, \"persistent_ns\": {}, \"speedup\": {speedup:.2}, \
         \"identical\": true}}\n  ],\n  \"dispatch_speedup\": {speedup:.2}\n}}\n",
        spawned.as_nanos(),
        persistent.as_nanos(),
    );
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("\nwrote BENCH_hotpath.json");

    if std::env::var_os("DAP_BENCH_NO_ASSERT").is_none() {
        assert!(
            speedup >= 1.0,
            "persistent pool dispatch must not cost more than spawn-per-call \
             (measured {speedup:.2}x)"
        );
    }
    println!("acceptance: pool dispatch {speedup:.2}x over spawn-per-call (bar 1x)");
}
