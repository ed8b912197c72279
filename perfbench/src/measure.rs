//! Host clocks, memory and order statistics.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`: user + system time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout (two 64-bit fields), and the clock ids passed here are
    // constants the kernel defines; clock_gettime writes only through the
    // pointer it gets.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds (user + system) the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall and CPU time of one measured section.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
}

/// Run `f`, returning its value with the wall and CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (value, Span { wall_s, cpu_s })
}

/// Reset this process's peak-resident mark (`VmHWM`) to its current
/// resident set, so the next [`peak_rss_mb`] covers only what runs after.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Order statistics of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Statistics of a non-empty sample set.
    pub fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Stats {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }
}

/// What [`host_probe_s`] takes on the reference host (a 2-vCPU Xeon VM at
/// 2.1 GHz, at its fastest): the host speed every normalized time is
/// expressed at.
pub const REFERENCE_PROBE_S: f64 = 0.0135;

/// Time a fixed piece of work that belongs to this benchmark, not to the
/// simulator, on `threads` threads at once, and return the mean: 1.5
/// million dependent random reads and writes over an 8 MiB table each. The
/// host this benchmark was built on runs identical work up to half again
/// as slowly for seconds to minutes at a time; timed after every measured
/// run, the probe's median tells how fast the host was over an invocation,
/// and no change to the simulator can move it. One thread probes on the
/// calling thread, where the measured run ran.
pub fn host_probe_s(threads: usize) -> f64 {
    // Each table sits at the start of a zeroed block larger than the
    // allocator's largest heap request (32 MiB), so the block is mapped
    // fresh and unmapped on drop: the probe leaves nothing resident for
    // the next run's `peak_rss_mb`. The blocks are allocated, and their
    // pages faulted in, on the calling thread before any clock starts, so
    // probe threads allocate nothing.
    const BLOCK: usize = 40 << 20 >> 2;
    let mut tables: Vec<Vec<u32>> = (0..threads)
        .map(|_| {
            let mut block = vec![0u32; BLOCK];
            block[..PROBE_SLOTS].fill(2);
            block
        })
        .collect();
    let total: f64 = if threads == 1 {
        probe_table(&mut tables[0])
    } else {
        std::thread::scope(|scope| {
            let probes: Vec<_> = tables
                .iter_mut()
                .map(|table| scope.spawn(move || probe_table(table)))
                .collect();
            probes
                .into_iter()
                .map(|p| p.join().expect("the host probe does not panic"))
                .sum()
        })
    };
    total / threads as f64
}

/// Slots of one probe table (8 MiB of `u32`).
const PROBE_SLOTS: usize = 1 << 21;

/// Seconds the probe's reads and writes over `table` take.
fn probe_table(table: &mut [u32]) -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut sum = 0u64;
    for _ in 0..1_500_000 {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (PROBE_SLOTS - 1)];
        if *slot & 1 == 0 {
            *slot = slot.wrapping_add(x as u32 | 1);
        } else {
            sum = sum.wrapping_add(u64::from(*slot));
        }
    }
    std::hint::black_box((sum, &table));
    t0.elapsed().as_secs_f64()
}
