//! The host a result was measured on, and the process's own resource use.

use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Everything stamped on a result so that two results are only compared
/// when they come from the same kind of machine.
pub struct Host {
    pub git_rev: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    /// Device and filesystem type behind the WAL directory.
    pub wal_device: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The mount (device and filesystem type) holding `path`: the longest
/// mount point in `/proc/mounts` that is a prefix of it.
fn mount_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at)
                .then_some((at.len(), format!("{dev} ({fs})")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, mount)| mount)
}

impl Host {
    pub fn probe(wal_dir: &Path) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        Host {
            // A benchmark checkout need not be a git repository.
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            nproc: nproc(),
            cpu_model,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            wal_device: mount_of(wal_dir),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("git_rev", Json::str(&self.git_rev)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("kernel", Json::str(&self.kernel)),
            ("rustc", Json::str(&self.rustc)),
            ("wal_device", Json::str(&self.wal_device)),
        ])
    }
}

/// CPU time and peak memory of this process, every thread included.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mib: f64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then 14 `long`s
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// `getrusage(RUSAGE_SELF)`: `/proc/self/stat` carries the same CPU
/// times, but in 10 ms ticks — too coarse for repetitions of a third of a second.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // Linux C library documents; the call writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on valid arguments"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        peak_rss_mib: ru.maxrss as f64 / 1024.0,
    }
}
