//! A global registry of named counters, gauges and fixed-bucket
//! histograms. Handles are `&'static` — resolve them once (registry lookup
//! takes a lock) and update them lock-free afterwards (one atomic op).

use crate::json::{self, Obj};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A floating-point metric that can be set or accumulated (f64 bits in an
/// atomic word; `add` uses a CAS loop).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self(AtomicU64::new(0.0f64.to_bits()))
    }
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Accumulate `v` onto the value.
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// A histogram over fixed, caller-supplied bucket upper bounds (an
/// implicit `+inf` bucket catches the rest).
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: Gauge,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: Gauge::default(),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum.get()
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) from the
    /// bucket counts. See [`quantile_from_buckets`] for the estimation
    /// rule and its worst-case error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets(), q)
    }

    /// `(upper_bound, count)` per bucket; the final bound is `+inf`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain([f64::INFINITY])
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.reset();
    }
}

/// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) from fixed-bucket
/// counts (`(upper_bound, count)` pairs as produced by
/// [`Histogram::buckets`] — the final bound may be `+inf`).
///
/// The estimate interpolates linearly inside the bucket the quantile
/// rank lands in, assuming observations are spread uniformly across the
/// bucket. **Worst-case error is therefore the width of that bucket**
/// (all observations could sit at either edge). Two documented
/// distortions at the extremes: the first bucket's lower edge is taken
/// as `min(0, bound)` (every histogram in this codebase records
/// non-negative quantities), and a quantile landing in the `+inf`
/// overflow bucket is clamped to the largest finite bound — there is no
/// upper edge to interpolate toward, so tail quantiles saturate there.
/// Returns 0.0 when the buckets are empty.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    let mut lower = f64::NAN; // set per-bucket below
    for (i, (upper, n)) in buckets.iter().enumerate() {
        lower = if i == 0 {
            upper.min(0.0)
        } else {
            buckets[i - 1].0
        };
        if *n == 0 {
            continue;
        }
        let before = seen as f64;
        seen += n;
        if (seen as f64) < rank {
            continue;
        }
        if upper.is_infinite() {
            return lower; // overflow bucket: saturate at last finite bound
        }
        let frac = ((rank - before) / *n as f64).clamp(0.0, 1.0);
        return lower + frac * (upper - lower);
    }
    // ranks beyond the last non-empty bucket (q == 1.0 edge): its bound
    if lower.is_nan() {
        0.0
    } else {
        lower
    }
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Get-or-register the metric named `name`: a lookup by `&str` under
/// the registry lock, allocating the owned name (and the metric) only on
/// first registration.
fn lookup(name: &str, make: impl FnOnce() -> Metric) -> Metric {
    let mut reg = registry().lock().expect("metrics registry");
    if let Some(&m) = reg.get(name) {
        return m;
    }
    *reg.entry(name.to_owned()).or_insert_with(make)
}

/// Get-or-register the counter named `name`.
pub fn counter(name: &str) -> &'static Counter {
    match lookup(name, || Metric::Counter(Box::leak(Box::default()))) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Get-or-register the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    match lookup(name, || Metric::Gauge(Box::leak(Box::default()))) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Get-or-register the histogram named `name`. The bounds of the first
/// registration win; later calls may pass any bounds.
pub fn histogram(name: &str, bounds: &[f64]) -> &'static Histogram {
    match lookup(name, || {
        Metric::Histogram(Box::leak(Box::new(Histogram::new(bounds))))
    }) {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram `(count, sum, (upper_bound, bucket_count) list)`.
    Histogram(u64, f64, Vec<(f64, u64)>),
}

impl MetricSnapshot {
    /// Serialize as a JSON value.
    pub fn to_json(&self) -> String {
        match self {
            MetricSnapshot::Counter(v) => v.to_string(),
            MetricSnapshot::Gauge(v) => {
                let mut s = String::new();
                json::write_f64(&mut s, *v);
                s
            }
            MetricSnapshot::Histogram(count, sum, buckets) => {
                let mut o = Obj::new();
                o.u64("count", *count).f64("sum", *sum).raw(
                    "buckets",
                    &json::array(buckets.iter().map(|(ub, n)| {
                        let mut b = Obj::new();
                        b.f64("le", *ub).u64("n", *n);
                        b.finish()
                    })),
                );
                o.finish()
            }
        }
    }
}

/// Read every registered metric, sorted by name.
pub fn snapshot() -> Vec<(String, MetricSnapshot)> {
    let reg = registry().lock().expect("metrics registry");
    reg.iter()
        .map(|(name, m)| {
            let value = match m {
                Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                Metric::Histogram(h) => MetricSnapshot::Histogram(h.count(), h.sum(), h.buckets()),
            };
            (name.clone(), value)
        })
        .collect()
}

/// Zero every metric and forget all registrations. Existing `&'static`
/// handles stay valid but are no longer visible in [`snapshot`].
pub fn reset_metrics() {
    let mut reg = registry().lock().expect("metrics registry");
    for m in reg.values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
    reg.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("t.m.counter");
        c.add(2);
        c.inc();
        assert_eq!(c.get(), 3);
        let g = gauge("t.m.gauge");
        g.set(1.5);
        g.add(0.25);
        assert!((g.get() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = histogram("t.m.hist", &[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 14.1).abs() < 1e-9);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (1.0, 2));
        assert_eq!(buckets[1], (10.0, 1));
        assert_eq!(buckets[2].1, 1);
        assert!(buckets[2].0.is_infinite());
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = histogram("t.m.quant", &[10.0, 20.0, 40.0]);
        for _ in 0..50 {
            h.observe(5.0);
        }
        for _ in 0..30 {
            h.observe(15.0);
        }
        for _ in 0..20 {
            h.observe(30.0);
        }
        // rank 50 sits exactly at the first bucket's upper edge
        assert!((h.quantile(0.5) - 10.0).abs() < 1e-9);
        // rank 95 lands in the third bucket: 20 + 0.75·(40−20) = 35
        assert!((h.quantile(0.95) - 35.0).abs() < 1e-9);
        // rank 99: 20 + 0.95·20 = 39
        assert!((h.quantile(0.99) - 39.0).abs() < 1e-9);
        // an observation in the +inf overflow bucket saturates tail
        // quantiles at the largest finite bound
        h.observe(1e9);
        assert_eq!(h.quantile(1.0), 40.0);
        // empty histograms report 0
        assert_eq!(
            quantile_from_buckets(&[(1.0, 0), (f64::INFINITY, 0)], 0.5),
            0.0
        );
    }

    #[test]
    fn same_name_returns_same_handle() {
        let c: &'static Counter = counter("t.m.same.c");
        let g: &'static Gauge = gauge("t.m.same.g");
        let h: &'static Histogram = histogram("t.m.same.h", &[1.0]);
        c.add(4);
        g.set(0.5);
        h.observe(2.0);
        for _ in 0..3 {
            assert!(std::ptr::eq(c, counter("t.m.same.c")));
            assert!(std::ptr::eq(g, gauge("t.m.same.g")));
            // later bounds are ignored: the first registration wins
            assert!(std::ptr::eq(h, histogram("t.m.same.h", &[5.0, 9.0])));
        }
        assert_eq!(counter("t.m.same.c").get(), 4);
        assert_eq!(gauge("t.m.same.g").get(), 0.5);
        assert_eq!(histogram("t.m.same.h", &[]).buckets().len(), 2);
    }

    #[test]
    fn snapshot_contains_registered_metrics() {
        counter("t.m.snap.c").add(7);
        gauge("t.m.snap.g").set(2.0);
        let snap = snapshot();
        let get = |n: &str| snap.iter().find(|(k, _)| k == n).map(|(_, v)| v.clone());
        assert_eq!(get("t.m.snap.c"), Some(MetricSnapshot::Counter(7)));
        assert_eq!(get("t.m.snap.g"), Some(MetricSnapshot::Gauge(2.0)));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let c = counter("t.m.concurrent");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
