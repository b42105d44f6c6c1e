//! What the kernel accounts for this process and for the machine: the
//! process's own CPU time, the time a hypervisor stole from the machine's
//! CPUs, and the peak resident set.
//!
//! On a virtual machine whose host is oversubscribed, the hypervisor runs
//! other guests on this machine's CPUs while the benchmark's threads wait
//! ("steal"). The kernel leaves stolen time out of a process's CPU time,
//! but wall time runs on through it, so wall figures swing with the
//! neighbours' load. Steal is only accounted machine-wide (`/proc/stat`);
//! [`Interval::unstolen_s`] uses its share to take it out of wall time. On
//! bare metal the steal is zero.

use std::time::Instant;

/// Clock ticks per second of `/proc` (`USER_HZ`, 100 in Linux's ABI).
const USER_HZ: f64 = 100.0;

/// This process's CPU time and the machine's CPU accounting at one
/// instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    at: Instant,
    /// User and system ticks of this process, all its threads, the ended
    /// ones included.
    cpu: u64,
    /// User, nice, system, irq and softirq ticks over all CPUs.
    busy: u64,
    /// Stolen ticks over all CPUs.
    steal: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is readable");
        // pid (comm) state ppid ... utime stime: fields 14 and 15, counted
        // after the command name, which may hold spaces.
        let own: Vec<u64> = stat
            .rsplit_once(')')
            .expect("command name in /proc/self/stat")
            .1
            .split_whitespace()
            .skip(11)
            .take(2)
            .map(|v| v.parse().expect("numeric /proc/self/stat field"))
            .collect();
        let stat = std::fs::read_to_string("/proc/stat").expect("procfs is readable");
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .expect("aggregate cpu line in /proc/stat")
            .split_whitespace()
            .map(|v| v.parse().expect("numeric /proc/stat field"))
            .collect();
        // user nice system idle iowait irq softirq steal ...
        Usage {
            at: Instant::now(),
            cpu: own[0] + own[1],
            busy: ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6],
            steal: ticks[7],
        }
    }

    /// What happened between `self` and the later reading `end`.
    pub fn until(&self, end: &Usage) -> Interval {
        let busy = (end.busy - self.busy) as f64;
        let steal = (end.steal - self.steal) as f64;
        Interval {
            wall_s: end.at.duration_since(self.at).as_secs_f64(),
            cpu_s: (end.cpu - self.cpu) as f64 / USER_HZ,
            steal_share: if busy + steal > 0.0 {
                steal / (busy + steal)
            } else {
                0.0
            },
        }
    }
}

/// Wall time, this process's CPU time and the machine's stolen share of
/// one interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interval {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds this process spent in user or system mode, over all its
    /// threads.
    pub cpu_s: f64,
    /// Share of the machine's CPU demand (busy + stolen ticks, every
    /// process) that the hypervisor stole.
    pub steal_share: f64,
}

impl Interval {
    /// Wall time less the stolen share: how long the interval would have
    /// taken had the hypervisor not run other guests meanwhile.
    pub fn unstolen_s(&self) -> f64 {
        self.wall_s * (1.0 - self.steal_share)
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
