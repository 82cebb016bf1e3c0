//! Readings taken from outside the program: process counters from
//! `/proc`, the `obs` metric registry, and the machine/commit provenance
//! stamped on every result.

use obs::metrics::MetricSnapshot;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Process CPU time `(user_s, sys_s)` so far, from `/proc/self/stat`.
pub fn cpu_times() -> (f64, f64) {
    stat_cpu("/proc/self/stat")
}

/// CPU seconds (user + sys) the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    let (u, s) = stat_cpu("/proc/thread-self/stat");
    u + s
}

fn stat_cpu(path: &str) -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string(path) else {
        return (0.0, 0.0);
    };
    // the command name may contain spaces; fields resume after its ')'
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // after ')' the state is field 3, so utime (14) / stime (15) sit at 11 / 12
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// A `/proc/self/status` field in kB, as MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let v = l.strip_prefix(field)?.trim().strip_suffix("kB")?;
                v.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Process CPU seconds (user + sys) so far.
pub fn cpu_s() -> f64 {
    let (u, s) = cpu_times();
    u + s
}

/// Wall and CPU time around one call into a layer.
pub struct Cost {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
}

/// Run `f`, returning its value with its wall and CPU cost.
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (u0, s0) = cpu_times();
    let t0 = Instant::now();
    let v = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let (u1, s1) = cpu_times();
    (
        v,
        Cost {
            wall_s,
            user_s: u1 - u0,
            sys_s: s1 - s0,
        },
    )
}

/// Current value of an `obs` counter (0 when never registered).
pub fn counter(name: &str) -> u64 {
    obs::metrics::snapshot()
        .into_iter()
        .find_map(|(n, m)| match m {
            MetricSnapshot::Counter(v) if n == name => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

/// Online CPU count of the machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree without `.git` reports `unknown`.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The provenance header every result carries, as a JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let mut o = obs::json::Obj::new();
    o.str("workload", workload)
        .u64("seed", seed)
        .u64("seconds", seconds)
        .bool("trace", trace)
        .u64("nproc", nproc() as u64)
        .u64("par_threads", par::threads() as u64)
        .str("cpu_model", &cpu_model())
        .str("commit", &commit())
        .str(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
    o.finish()
}
