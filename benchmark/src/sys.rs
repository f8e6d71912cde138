//! The operating-system edge of the harness: spawning one `sapp` child and
//! collecting its wall-clock, CPU time and peak RSS through `wait4`, a
//! watchdog for hung children, and the facts about the box that go into
//! every result file.
//!
//! No `libc` crate exists offline, so the three calls needed are bound by
//! hand. The layouts below are Linux's on 64-bit targets.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark binds Linux 64-bit wait4/rusage by hand");

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage`: two timevals, then fourteen longs of which only the
/// first (`ru_maxrss`, KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const P_PID: i32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    // `infop` is a 128-byte `siginfo_t` the harness never reads.
    fn waitid(idtype: i32, id: u32, infop: *mut [u64; 16], options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildCost {
    /// Spawn → stdout drained → reaped.
    pub wall_ms: f64,
    /// User + system time of the child, from its `rusage`.
    pub cpu_ms: f64,
    /// `ru_maxrss` in KiB.
    pub maxrss_kb: i64,
    /// Exit code; `None` when a signal ended it (the watchdog's included).
    pub exit: Option<i32>,
    /// The watchdog killed it at the deadline.
    pub timed_out: bool,
}

#[derive(Default)]
struct Watch {
    armed: Option<(i32, Instant)>,
    fired: bool,
    stop: bool,
}

/// Kills the armed child when its deadline passes. One thread, parked on
/// a condition variable, so it costs the timed children nothing.
pub struct Watchdog {
    state: Arc<(Mutex<Watch>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        let state = Arc::new((Mutex::new(Watch::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let mut w = lock.lock().expect("watchdog state poisoned");
            while !w.stop {
                match w.armed {
                    None => w = cv.wait(w).expect("watchdog state poisoned"),
                    Some((pid, deadline)) => {
                        let now = Instant::now();
                        if now >= deadline {
                            // SAFETY: `armed` is cleared before the child
                            // is reaped (see `run_child`), so `pid` still
                            // names that child, running or zombie.
                            unsafe { kill(pid, SIGKILL) };
                            w.armed = None;
                            w.fired = true;
                        } else {
                            w = cv
                                .wait_timeout(w, deadline - now)
                                .expect("watchdog state poisoned")
                                .0;
                        }
                    }
                }
            }
        });
        Watchdog {
            state,
            thread: Some(thread),
        }
    }

    fn arm(&self, pid: i32, deadline: Instant) {
        let (lock, cv) = &*self.state;
        let mut w = lock.lock().expect("watchdog state poisoned");
        w.armed = Some((pid, deadline));
        w.fired = false;
        cv.notify_one();
    }

    /// Stop watching; true if the child was killed at its deadline.
    fn disarm(&self) -> bool {
        let (lock, _) = &*self.state;
        let mut w = lock.lock().expect("watchdog state poisoned");
        w.armed = None;
        w.fired
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        if let Ok(mut w) = lock.lock() {
            w.stop = true;
            cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Run `bin args…` to completion, leaving its stdout in `stdout` (cleared
/// first; stderr is discarded). The caller reuses one buffer across
/// children, so the harness's own footprint stays small and flat.
///
/// Plain `Command::spawn` (the vfork/posix_spawn path): no `pre_exec`, no
/// environment edits — a `fork()`ed child would start its `ru_maxrss`
/// from the harness's image.
pub fn run_child(
    bin: &Path,
    args: &[String],
    timeout: Duration,
    wd: &Watchdog,
    stdout: &mut Vec<u8>,
) -> std::io::Result<ChildCost> {
    stdout.clear();
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    wd.arm(pid as i32, t0 + timeout);
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(stdout);
    // Wait for the exit without reaping, take the pid off the watchdog,
    // and only then reap: the watchdog can never signal a recycled pid.
    let mut info = [0u64; 16];
    // SAFETY: `info` is 128 writable bytes, the size of `siginfo_t`.
    let waited = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
    let timed_out = wd.disarm();
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: both out-pointers are valid for writes; `ru` has the
    // kernel's `struct rusage` layout.
    let reaped = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    // `child` is dropped without `wait`: it is already reaped, and
    // `Child::drop` neither waits nor kills.
    read?;
    if waited != 0 || reaped != pid as i32 {
        return Err(std::io::Error::last_os_error());
    }
    let tv_ms = |t: &Timeval| t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3;
    Ok(ChildCost {
        wall_ms,
        cpu_ms: tv_ms(&ru.ru_utime) + tv_ms(&ru.ru_stime),
        maxrss_kb: ru.ru_maxrss,
        exit: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        timed_out,
    })
}

/// The harness's own peak RSS (`VmHWM`) in KiB.
pub fn own_hwm_kb() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One-minute load average.
pub fn loadavg() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of `cmd args…`'s stdout, or `"unknown"`.
pub fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> (ChildCost, Vec<u8>) {
        let wd = Watchdog::new();
        let mut out = Vec::new();
        let cost = run_child(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            timeout,
            &wd,
            &mut out,
        )
        .unwrap();
        (cost, out)
    }

    #[test]
    fn collects_stdout_exit_code_and_rusage() {
        let (cost, out) = sh("echo hello; exit 3", Duration::from_secs(10));
        assert_eq!(out, b"hello\n");
        assert_eq!(cost.exit, Some(3));
        assert!(!cost.timed_out);
        assert!(cost.maxrss_kb > 0 && cost.wall_ms > 0.0);
    }

    #[test]
    fn watchdog_kills_a_hung_child() {
        let (cost, _) = sh("exec sleep 30", Duration::from_millis(100));
        assert!(cost.timed_out);
        assert_eq!(cost.exit, None);
        assert!(cost.wall_ms < 5_000.0, "{}", cost.wall_ms);
    }

    #[test]
    fn reads_own_proc_files() {
        assert!(own_hwm_kb().unwrap() > 0);
        assert!(loadavg().unwrap() >= 0.0);
        assert!(nproc() >= 1);
    }
}
