//! Concurrent-increment stress: the registry's primitives are shared by the
//! planner's group threads and the daemon's worker pool, so contended
//! updates must never be lost or double-counted.  The statics mirror how the
//! global registry embeds each primitive.

use iotsan_telemetry::{Counter, Gauge, Histogram};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 50_000;

static COUNTER: Counter = Counter::new();
static TOTAL: Gauge = Gauge::new();
static PEAK: Gauge = Gauge::new();
static HIST: Histogram = Histogram::new(&[1, 2, 4, 8, 16, 32, 64]);

#[test]
fn contended_updates_all_land() {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    COUNTER.inc();
                    TOTAL.add(1);
                    PEAK.max((t + 1) as i64);
                    HIST.observe(i % 100);
                }
            });
        }
    });

    let updates = THREADS * PER_THREAD;
    assert_eq!(COUNTER.get(), updates);
    assert_eq!(TOTAL.get(), updates as i64);
    assert_eq!(PEAK.get(), THREADS as i64);
    assert_eq!(HIST.count(), updates);
    let per_thread_sum: u64 = (0..PER_THREAD).map(|i| i % 100).sum();
    assert_eq!(HIST.sum(), THREADS * per_thread_sum);
    assert_eq!(HIST.bucket_counts().iter().sum::<u64>(), updates);
}
