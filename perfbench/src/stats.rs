//! Sample statistics and host observations shared by the workloads.

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p < 1), or `None` when fewer than ten
/// samples lie beyond it: such a percentile is not printed.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let idx = ((p * n as f64).ceil() as usize).max(1) - 1;
    if n == 0 || n - 1 - idx < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[idx])
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset this process's `VmHWM` to its current resident set, so the next
/// reading is the peak of what runs in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The host's CPU model string, from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reading of a POSIX clock in seconds, or `None` when it cannot be read
/// (the clock of a process that has exited).
fn clock_s(clock: i32) -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime(2) writes one timespec into the struct it is
    // given, which lives on this stack frame for the whole call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU time consumed so far by every thread of this process, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`): unlike wall time, it does not count the
/// time the process waits for a core that another process holds.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_s(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock is readable")
}

/// CPU time consumed so far by every thread of another process, in
/// seconds, or `None` once it has exited.
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    extern "C" {
        fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    }
    let mut clock = 0;
    // SAFETY: clock_getcpuclockid(3) writes one clockid_t (an int) into
    // the variable it is given.
    let rc = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
    if rc != 0 {
        return None;
    }
    clock_s(clock)
}

/// Host speed, measured with benchmark-owned reference work.
///
/// On a shared host the CPU time of the same work moves by up to 2.5×
/// for minutes at a time (other tenants' load changes how much a core
/// does per cycle; steal time stays near 1 %). The reference is a fixed
/// chunk of work shaped like the simulator's (dependent integer hashing,
/// data-dependent branches, random read-modify-write over a table larger
/// than the private caches), sampled between the measured units for a
/// fixed share of their time. Its rate over the rate of a quiet host is
/// the host speed, by which the measured times are scaled to nominal
/// seconds. It never runs concurrently with the measured work.
pub struct Reference {
    table: Vec<u64>,
    h: u64,
    /// Chunks run and their CPU seconds since the last [`Reference::take`].
    chunks: u64,
    cpu_s: f64,
}

impl Reference {
    /// Words in the table: 16 MB.
    const WORDS: usize = 1 << 21;
    /// Random read-modify-writes and hash steps per chunk.
    const MEM_STEPS: u64 = 2048;
    const ALU_STEPS: u64 = 1 << 16;
    /// Reference time as a share of the measured time it samples.
    const SHARE: f64 = 0.05;
    /// Chunks per CPU second on a quiet host of the class this benchmark
    /// was defined on (2-vCPU `Intel(R) Xeon(R) Processor` at 2.0 GHz).
    /// It only sets the scale of nominal seconds; with it, `tables` runs on
    /// a host 2.5× slower read within 10 % of the CPU-time figure of runs
    /// on a quiet one.
    pub const NOMINAL_RATE: f64 = 2500.0;
    /// Resident bytes of the table, held for the whole run.
    pub const TABLE_MB: f64 = (Reference::WORDS * 8) as f64 / (1024.0 * 1024.0);

    pub fn new() -> Reference {
        let table = (0..Reference::WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Reference {
            table,
            h: 0x2545_F491_4F6C_DD1D,
            chunks: 0,
            cpu_s: 0.0,
        }
    }

    fn chunk(&mut self) {
        let mask = (Reference::WORDS - 1) as u64;
        let mut h = self.h;
        for i in 0..Reference::MEM_STEPS {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let j = (h & mask) as usize;
            let v = self.table[j];
            self.table[j] = if v & 3 == 0 {
                v.wrapping_add(h)
            } else {
                v.rotate_left((i & 31) as u32) ^ h
            };
            h = h.wrapping_add(v);
        }
        let mut acc = 0u64;
        for i in 0..Reference::ALU_STEPS {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            if h & 3 == 0 {
                acc = acc.wrapping_add(h);
            } else {
                acc ^= h.rotate_left((i & 31) as u32);
            }
        }
        self.h = std::hint::black_box(h ^ acc);
    }

    /// Run chunks, at least one, until the reference has used its share
    /// of `measured_s`, the measured time since the last [`Reference::take`].
    pub fn sample(&mut self, measured_s: f64) {
        loop {
            let c = process_cpu_s();
            self.chunk();
            self.cpu_s += process_cpu_s() - c;
            self.chunks += 1;
            if self.cpu_s >= Reference::SHARE * measured_s {
                break;
            }
        }
    }

    /// Host speed since the last call, relative to a quiet host (below 1
    /// when the host is slower), and the number of chunks behind it.
    pub fn take(&mut self) -> (f64, u64) {
        let speed = self.chunks as f64 / self.cpu_s / Reference::NOMINAL_RATE;
        let n = self.chunks;
        (self.chunks, self.cpu_s) = (0, 0.0);
        (speed, n)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..99], 0.9), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
