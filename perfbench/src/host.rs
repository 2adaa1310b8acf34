//! Host facts recorded with every run, and thread placement.
//!
//! Placement matters more than any code change this benchmark is meant
//! to resolve: with one connection, a client and server thread sharing
//! a CPU answer in about half the time of a pair split across CPUs, and
//! an unpinned pair flips between the two from run to run. Every run
//! therefore pins the server side to the first CPU of the process's
//! affinity mask and the client thread to the second.

use std::io;
use std::time::Instant;

/// Size of the CPU mask passed to the affinity calls: 1024 CPUs, the
/// kernel's default `CONFIG_NR_CPUS` ceiling for `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread to `cpu`. Threads it spawns afterwards
/// inherit the restriction.
fn pin_current_thread(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::other(format!("cpu {cpu} is outside the mask")));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Where the server and client threads run.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// CPU of the thread that starts the server; the acceptor,
    /// connection threads and reactor inherit it.
    pub server_cpu: usize,
    /// CPU of the client thread.
    pub client_cpu: usize,
    /// CPUs in the process's affinity mask.
    pub allowed: usize,
}

impl Placement {
    /// Takes the first two allowed CPUs (both the same one when only
    /// one is allowed) and pins the calling thread to the server's.
    pub fn pin_server_side() -> io::Result<Placement> {
        let cpus = allowed_cpus()?;
        let server_cpu = *cpus
            .first()
            .ok_or_else(|| io::Error::other("empty affinity mask"))?;
        let client_cpu = *cpus.get(1).unwrap_or(&server_cpu);
        pin_current_thread(server_cpu)?;
        Ok(Placement {
            server_cpu,
            client_cpu,
            allowed: cpus.len(),
        })
    }

    /// Pins the calling (client) thread.
    pub fn pin_client(&self) -> io::Result<()> {
        pin_current_thread(self.client_cpu)
    }

    /// One line for the run's report.
    pub fn describe(&self) -> String {
        if self.server_cpu == self.client_cpu {
            format!(
                "server and client both on cpu {} (only one cpu allowed)",
                self.server_cpu
            )
        } else {
            format!(
                "server on cpu {}, client on cpu {} ({} cpus allowed)",
                self.server_cpu, self.client_cpu, self.allowed
            )
        }
    }
}

/// Steal time in clock ticks summed over all CPUs (`/proc/stat`'s
/// eighth `cpu` column), or `None` where the file is unreadable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Start-of-run host facts; [`HostRecord::finish`] reports the deltas.
pub struct HostRecord {
    cores: usize,
    started: Instant,
    steal_at_start: Option<u64>,
}

impl HostRecord {
    /// Stamps the start of the run; call it before pinning, which
    /// narrows what `available_parallelism` reports.
    pub fn start() -> HostRecord {
        HostRecord {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            started: Instant::now(),
            steal_at_start: steal_ticks(),
        }
    }

    /// The host line: cores, placement, steal-time delta and wall time.
    pub fn finish(&self, placement: &Placement) -> String {
        let steal = match (self.steal_at_start, steal_ticks()) {
            (Some(a), Some(b)) => format!("{} ticks", b.saturating_sub(a)),
            _ => "unavailable".to_owned(),
        };
        format!(
            "host: {} cores; {}; steal delta {steal}; wall {:.2} s",
            self.cores,
            placement.describe(),
            self.started.elapsed().as_secs_f64()
        )
    }
}
