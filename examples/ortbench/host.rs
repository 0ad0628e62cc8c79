//! What the host did while a phase ran: wall clock, CPU time granted to
//! the process (`/proc/self/stat`), and resident memory
//! (`/proc/self/status`). Off Linux the CPU share and memory read as 0,
//! so every phase there reads as noisy.

use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`
/// (`USER_HZ`, 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// A single-threaded phase that gets less CPU than this marks the run
/// `noisy`: the host gave its time to someone else.
pub const NOISY_CPU_SHARE: f64 = 0.9;

fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`).
pub fn status_mib(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A running phase: started with [`Phase::start`], closed with
/// [`Phase::end`].
pub struct Phase {
    wall: Instant,
    cpu: f64,
}

/// A closed phase, or the sum of several with the same name.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    pub wall: Duration,
    /// CPU seconds the process got.
    pub cpu_s: f64,
    /// `VmHWM` when the (last) phase ended.
    pub hwm_mib: f64,
}

impl PhaseStats {
    /// CPU seconds ÷ wall seconds.
    pub fn cpu_share(&self) -> f64 {
        self.cpu_s / self.wall.as_secs_f64().max(1e-9)
    }

    pub fn merge(&mut self, later: PhaseStats) {
        self.wall += later.wall;
        self.cpu_s += later.cpu_s;
        self.hwm_mib = later.hwm_mib;
    }
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn end(self) -> PhaseStats {
        PhaseStats {
            wall: self.wall.elapsed(),
            cpu_s: cpu_seconds() - self.cpu,
            hwm_mib: status_mib("VmHWM"),
        }
    }
}

/// Cost of one `Instant::now()`: the mean gap between a million
/// back-to-back reads.
pub fn empty_timer_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let first = Instant::now();
    let mut last = first;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - first).as_nanos() as f64 / f64::from(READS)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
