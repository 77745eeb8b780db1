//! `poll(2)` — the one foreign call in this crate. std links libc but
//! exposes no readiness wait, so the reactor's cold wait declares the
//! symbol itself; everything outside this file stays safe code.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;

/// Data to read, or EOF (a read will not block).
pub(crate) const POLLIN: i16 = 0x001;
/// Room to write (a write will not block).
pub(crate) const POLLOUT: i16 = 0x004;
/// Both directions closed; reported whether or not it was asked for.
#[cfg(test)]
pub(crate) const POLLHUP: i16 = 0x010;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// `struct pollfd`: one descriptor, the events asked for, the events seen.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Events the last [`wait`] reported for this descriptor.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until a descriptor in `fds` is ready or `timeout_ms` passes
/// (negative = no timeout); returns how many entries have `revents` set.
/// A signal (`EINTR`) returns `Ok(0)`: the caller re-sweeps and waits
/// again, nothing is retried here.
pub(crate) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and `nfds` is its exact length,
    // so the kernel reads and writes only memory this call owns. `poll`
    // keeps no pointer past its return and never closes a descriptor; a
    // stale or negative `fd` is reported in `revents`, not dereferenced.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        return Ok(0);
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_end_reports_pollin() {
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(&[1]).unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
    }

    #[test]
    fn closed_peer_reports_pollhup_without_being_asked() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), 0)];
        assert_eq!(wait(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLHUP, 0);
    }

    /// `SIGUSR1` on Linux's x86 and Arm ports; on any port the test only
    /// needs a catchable signal that nothing else in the binary raises.
    #[cfg(target_os = "linux")]
    const SIGUSR1: c_int = 10;

    #[cfg(target_os = "linux")]
    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
        fn pthread_kill(thread: std::os::unix::thread::RawPthread, sig: c_int) -> c_int;
    }

    #[cfg(target_os = "linux")]
    extern "C" fn ignore(_: c_int) {}

    #[cfg(target_os = "linux")]
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test bounds a real-time wait"
    )]
    fn a_signal_ends_the_wait_with_zero() {
        use std::os::unix::thread::JoinHandleExt;
        use std::time::{Duration, Instant};

        // SAFETY: `ignore` is an `extern "C" fn(c_int)` that touches
        // nothing, so it is async-signal-safe, and the handler stays valid
        // for the life of the process. Nothing else in this test binary
        // raises `SIGUSR1`, so the new disposition changes no other test.
        let old = unsafe { signal(SIGUSR1, ignore) };
        assert_ne!(old, usize::MAX, "signal(SIGUSR1) returned SIG_ERR");
        let (a, _b) = UnixStream::pair().unwrap();
        let waiter = std::thread::spawn(move || {
            let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
            let t0 = Instant::now();
            (wait(&mut fds, 10_000), t0.elapsed())
        });
        // A signal that lands before the thread enters `poll` is spent on
        // nothing, so keep sending until the wait returns (or 5 s pass,
        // so that a wait which swallows the signal fails the test).
        let t0 = Instant::now();
        while !waiter.is_finished() && t0.elapsed() < Duration::from_secs(5) {
            // SAFETY: `waiter` is not joined yet, so its `pthread_t` names
            // a thread that has not been reclaimed, even one that has just
            // returned; `SIGUSR1` has the no-op handler installed above. A
            // failed send shows as a wait that runs to its timeout.
            unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) };
            std::thread::sleep(Duration::from_millis(20));
        }
        let (got, took) = waiter.join().unwrap();
        assert_eq!(got.unwrap(), 0);
        assert!(took < Duration::from_secs(5), "the wait ran {took:?}");
    }

    #[test]
    fn timeout_zero_on_a_quiet_set_returns_zero() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, 0).unwrap(), 0);
        assert_eq!(fds[0].revents(), 0);
    }
}
