//! The crate's only unsafe surface: a minimal, hand-rolled epoll binding
//! and the per-thread timer-slack guard every driver thread enters.
//!
//! The workspace vendors every third-party crate it uses and `mio` is not
//! among them, so readiness notification is declared here directly against
//! the C symbols libc already links into every Rust binary. The surface is
//! deliberately tiny — create, ctl, wait, close, one `prctl` pair, and a
//! test-only thread CPU clock — and every call site checks the return
//! value and converts `errno` through [`std::io::Error::last_os_error`],
//! so no error is ever invented or dropped on this side of the FFI line.
//!
//! Level-triggered mode only. Edge triggering saves wakeups but demands
//! drain-to-`WouldBlock` discipline on every path; level-triggered
//! readiness means a partial drain (the read path stops after a short
//! read) is re-reported on the next wait, not a hung connection.
//!
//! This module is the scoped exception to the crate's `deny(unsafe_code)`:
//! the `unsafe` blocks below are foreign calls with checked returns,
//! nothing else in the crate may widen that.

#![allow(unsafe_code)]

use std::io;
use std::marker::PhantomData;
use std::os::raw::{c_int, c_long, c_ulong};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Readable readiness (or a pending accept on a listener).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable readiness (socket buffer has room again).
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Error condition; always reported, never requested.
pub(crate) const EPOLLERR: u32 = 0x008;
/// Hangup; always reported, never requested.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write side (half-close visibility).
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o200_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

/// `struct epoll_event`. On x86-64 the kernel ABI packs the 12-byte
/// struct; other architectures use natural alignment — mirroring exactly
/// what `<sys/epoll.h>` declares per target.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub(crate) struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | `EPOLLOUT` | ...).
    pub(crate) events: u32,
    /// The caller's opaque token, returned verbatim with each event.
    pub(crate) data: u64,
}

/// `epoll_pwait2` (Linux ≥ 5.11): epoll waiting with a *nanosecond*
/// timespec instead of `epoll_wait`'s millisecond int. Same number on
/// every architecture — it postdates the unified syscall table.
const SYS_EPOLL_PWAIT2: c_long = 441;

/// `errno` values that mean "this kernel (or its seccomp policy) has no
/// `epoll_pwait2`" — anything else from the probe is a real error.
const EPERM: i32 = 1;
const ENOSYS: i32 = 38;

/// `struct __kernel_timespec`: 64-bit seconds and nanoseconds on every
/// architecture, including 32-bit ones (this is the y2038-safe layout
/// all `*_time64`-era syscalls take).
#[repr(C)]
struct KernelTimespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Latched once `epoll_pwait2` comes back `ENOSYS` (pre-5.11 kernel) or
/// `EPERM` (a seccomp policy predating the syscall): every later wait
/// goes straight to the millisecond `epoll_wait` fallback instead of
/// re-probing.
static PWAIT2_MISSING: AtomicBool = AtomicBool::new(false);

/// Whether waits are currently using the nanosecond path. Meaningful
/// after at least one [`Epoll::wait`] has run the probe.
#[cfg(test)]
pub(crate) fn pwait2_engaged() -> bool {
    !PWAIT2_MISSING.load(Ordering::Relaxed)
}

/// `CLOCK_THREAD_CPUTIME_ID`: the calling thread's processor time.
#[cfg(test)]
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` as `clock_gettime` fills it: `time_t` is a `long`
/// wherever the default time ABI is in use.
#[cfg(test)]
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// The processor time the calling thread has used so far — what a test
/// bounds when it asserts that a reactor thread is not spinning.
#[cfg(test)]
pub(crate) fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`; the return is
    // checked.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime: {}", io::Error::last_os_error());
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

extern "C" {
    #[cfg(test)]
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn prctl(option: c_int, ...) -> c_int;
}

const PR_SET_TIMERSLACK: c_int = 29;
const PR_GET_TIMERSLACK: c_int = 30;

/// `prctl` takes four `unsigned long`s after the option; the ones an
/// option does not use are passed as zero, never left off.
const UNUSED: c_ulong = 0;

/// The calling thread's timer slack in nanoseconds (`PR_GET_TIMERSLACK`).
pub(super) fn timer_slack() -> io::Result<c_ulong> {
    // SAFETY: `PR_GET_TIMERSLACK` uses no argument past the option and
    // writes through none; the return is checked.
    let ns = unsafe { prctl(PR_GET_TIMERSLACK, UNUSED, UNUSED, UNUSED, UNUSED) };
    if ns < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ns as c_ulong)
}

fn set_timer_slack(ns: c_ulong) -> io::Result<()> {
    // SAFETY: `PR_SET_TIMERSLACK` takes one `unsigned long` by value and
    // touches only the calling thread's slack; the return is checked.
    if unsafe { prctl(PR_SET_TIMERSLACK, ns, UNUSED, UNUSED, UNUSED) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Pins the calling thread's kernel timer slack to 1 ns for as long as
/// the guard lives, restoring the previous value on drop.
///
/// The kernel rounds every timed sleep of a normal-priority thread —
/// `epoll_pwait2`, the futex wait under a channel's `recv_timeout`,
/// `nanosleep` — up by the thread's slack, 50 µs by default: a whole
/// protocol tick at the drivers' default tick length, added to every
/// timer. Each driver thread body enters this guard first, so a timed
/// wait wakes at its deadline. The slack is a per-thread attribute, and
/// the client reactor runs on the *caller's* thread — hence a guard that
/// restores rather than a one-way switch; it is `!Send` because the
/// restore must run on the thread whose slack was read.
///
/// Where the kernel refuses (a seccomp policy without `prctl`) the guard
/// does nothing: timers are then late by the default slack, which the
/// lateness counters ([`tc_sim::metrics::names::TIMER_LATE_NS`]) show.
pub(crate) struct TimerSlack {
    restore: Option<c_ulong>,
    _this_thread: PhantomData<*const ()>,
}

impl TimerSlack {
    /// What [`TimerSlack::pin`] sets: the smallest slack the kernel
    /// accepts (0 means "back to the default").
    const PINNED_NS: c_ulong = 1;

    pub(crate) fn pin() -> Self {
        let restore = timer_slack()
            .ok()
            .filter(|_| set_timer_slack(Self::PINNED_NS).is_ok());
        TimerSlack {
            restore,
            _this_thread: PhantomData,
        }
    }
}

impl Drop for TimerSlack {
    fn drop(&mut self) {
        if let Some(ns) = self.restore {
            // Restoring cannot fail where pinning succeeded; `Drop` has
            // nowhere to report it anyway.
            let _ = set_timer_slack(ns);
        }
    }
}

/// An owned epoll instance. Closed on drop.
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: plain syscall, no pointers; the return is checked.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it out before
        // returning. DEL ignores the event pointer entirely.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` for `interest`, tagging its events `token`.
    pub(crate) fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces `fd`'s interest set (same token, new readiness mask).
    pub(crate) fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Stops watching `fd`. Must precede closing the fd: a closed fd is
    /// auto-removed only once every duplicate is gone, and the reactor
    /// clones streams nowhere it can afford to rely on that.
    pub(crate) fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for events, filling `buf` and returning how many arrived.
    ///
    /// The timeout is honoured at *nanosecond* granularity via
    /// `epoll_pwait2` where the kernel provides it. The old path rounded
    /// the timeout up to `epoll_wait`'s whole milliseconds, which turned
    /// every sub-millisecond timer deadline into ≥ 1 ms of skew — enough
    /// to smear the reactor's Δ-retransmit and controller timers at the
    /// default 50 µs tick. On kernels without the syscall (`ENOSYS`, or
    /// `EPERM` from an old seccomp allowlist) waits fall back to the
    /// round-up-to-ms path, which at least never fires early and never
    /// busy-spins at timeout 0. `EINTR` retries internally on both paths.
    pub(crate) fn wait(&self, buf: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        if !PWAIT2_MISSING.load(Ordering::Relaxed) {
            match self.wait_ns(buf, timeout) {
                Err(e) if matches!(e.raw_os_error(), Some(libc_err) if libc_err == ENOSYS || libc_err == EPERM) =>
                {
                    PWAIT2_MISSING.store(true, Ordering::Relaxed);
                }
                other => return other,
            }
        }
        self.wait_ms(buf, timeout)
    }

    /// Nanosecond-resolution wait through raw `epoll_pwait2`.
    fn wait_ns(&self, buf: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        let ts = KernelTimespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        loop {
            // SAFETY: `buf` is valid for `buf.len()` events, `ts` outlives
            // the call, the sigmask is null (mask untouched, its size
            // ignored), and the return is checked. All variadic arguments
            // are passed pointer- or long-sized, matching what glibc's
            // `syscall` forwards to the kernel.
            let rc = unsafe {
                syscall(
                    SYS_EPOLL_PWAIT2,
                    c_long::from(self.fd),
                    buf.as_mut_ptr(),
                    buf.len().min(c_int::MAX as usize) as c_long,
                    &raw const ts,
                    std::ptr::null::<u8>(),
                    0_usize,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Millisecond fallback: `timeout` rounds *up* to the next millisecond
    /// (classic `epoll_wait` granularity) so a sub-millisecond timer wait
    /// never busy-spins at timeout 0.
    fn wait_ms(&self, buf: &mut [EpollEvent], timeout: Duration) -> io::Result<usize> {
        let ms: c_int = timeout
            .as_millis()
            .saturating_add(u128::from(
                !timeout.subsec_nanos().is_multiple_of(1_000_000),
            ))
            .min(c_int::MAX as u128) as c_int;
        loop {
            // SAFETY: `buf` is valid for `buf.len()` events and the kernel
            // writes at most `maxevents` of them; the return is checked.
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    buf.as_mut_ptr(),
                    buf.len().min(c_int::MAX as usize) as c_int,
                    ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed exactly once.
        let _ = unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_after_a_write() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 0xBEEF)
            .unwrap();

        let mut buf = [EpollEvent { events: 0, data: 0 }; 8];
        // Nothing readable yet: a bounded wait returns zero events.
        assert_eq!(ep.wait(&mut buf, Duration::from_millis(1)).unwrap(), 0);

        tx.write_all(b"ping").unwrap();
        let n = ep.wait(&mut buf, Duration::from_millis(500)).unwrap();
        assert_eq!(n, 1);
        let (events, data) = (buf[0].events, buf[0].data);
        assert_eq!(data, 0xBEEF, "the token must round-trip");
        assert_ne!(events & EPOLLIN, 0, "the event must be readable");

        // Re-registration after del is a fresh add, not an error.
        ep.del(rx.as_raw_fd()).unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN, 7).unwrap();
        assert_eq!(ep.wait(&mut buf, Duration::from_millis(100)).unwrap(), 1);
    }

    #[test]
    fn sub_millisecond_waits_do_not_round_up_to_whole_ms() {
        use std::time::Instant;
        let ep = Epoll::new().unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 4];
        // Warm-up wait settles the one-shot ENOSYS/EPERM probe.
        ep.wait(&mut buf, Duration::from_micros(100)).unwrap();

        let rounds: u32 = 16;
        let per = Duration::from_micros(300);
        let start = Instant::now();
        for _ in 0..rounds {
            assert_eq!(
                ep.wait(&mut buf, per).unwrap(),
                0,
                "an idle epoll must time out, not report events"
            );
        }
        let elapsed = start.elapsed();
        // Both paths: a timed wait never returns early, so the regression
        // of busy-spinning at timeout 0 stays dead.
        assert!(
            elapsed >= per * rounds,
            "waits returned early: {elapsed:?} < {:?}",
            per * rounds
        );
        // Nanosecond path only: the old round-up-to-ms behaviour stretched
        // 16 × 300 µs to ≥ 16 ms; with `epoll_pwait2` the skew budget is
        // a fraction of that even under scheduler noise.
        if pwait2_engaged() {
            assert!(
                elapsed < Duration::from_millis(12),
                "timer skew too coarse for the nanosecond path: {elapsed:?}"
            );
        }
    }

    #[test]
    fn timer_slack_is_pinned_inside_the_guard_and_restored_after() {
        // A fresh thread: its slack is its own, whatever other tests do.
        std::thread::spawn(|| {
            let before = timer_slack().expect("PR_GET_TIMERSLACK");
            assert_ne!(before, TimerSlack::PINNED_NS, "default slack is 50 µs");
            {
                let _outer = TimerSlack::pin();
                assert_eq!(timer_slack().unwrap(), TimerSlack::PINNED_NS);
                // Nested guards (a driver loop run under a pinned test
                // thread) restore to the enclosing guard's value.
                drop(TimerSlack::pin());
                assert_eq!(timer_slack().unwrap(), TimerSlack::PINNED_NS);
            }
            assert_eq!(timer_slack().unwrap(), before);
        })
        .join()
        .expect("slack probe thread");
    }

    #[test]
    fn epollout_arms_and_disarms() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let tx = TcpStream::connect(addr).unwrap();
        let _rx = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // An idle socket with write interest is immediately writable.
        ep.add(tx.as_raw_fd(), EPOLLIN | EPOLLOUT, 1).unwrap();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 8];
        let n = ep.wait(&mut buf, Duration::from_millis(500)).unwrap();
        assert_eq!(n, 1);
        let events = buf[0].events;
        assert_ne!(events & EPOLLOUT, 0);
        // Dropping write interest silences it again.
        ep.modify(tx.as_raw_fd(), EPOLLIN, 1).unwrap();
        assert_eq!(ep.wait(&mut buf, Duration::from_millis(1)).unwrap(), 0);
    }
}
