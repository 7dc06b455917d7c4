//! Level-triggered fd readiness: `epoll(7)` with a `poll(2)` fallback.
//!
//! The two backends expose one API, chosen at construction:
//! [`BackendKind::Epoll`] keeps registrations in the kernel and waits
//! in O(ready); [`BackendKind::Poll`] keeps them in a map and rebuilds
//! the `pollfd` array per wait — O(registered), fine as a portability
//! net and as the test double that keeps the fallback honest. Setting
//! `SRJ_NET_FORCE_POLL=1` makes [`Poller::new`] pick the fallback.

use std::collections::HashMap;
use std::io;
use std::time::Duration;

use crate::sys;
use crate::sys::RawFd;

/// Which readiness directions a registration cares about.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One ready fd, tagged with the token it was registered under.
///
/// Error/hangup conditions are folded into `readable`/`writable`: the
/// owning state machine discovers the specifics from the syscall that
/// then fails, which keeps teardown on a single path.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    Epoll,
    Poll,
}

pub struct Poller {
    backend: Backend,
}

enum Backend {
    Epoll(Epoll),
    Poll(PollFallback),
}

impl Poller {
    /// Epoll unless `SRJ_NET_FORCE_POLL=1` (or a non-Linux target).
    pub fn new() -> io::Result<Poller> {
        let force_poll = std::env::var_os("SRJ_NET_FORCE_POLL").is_some_and(|v| v == "1");
        let kind = if force_poll || !cfg!(target_os = "linux") {
            BackendKind::Poll
        } else {
            BackendKind::Epoll
        };
        Poller::with_backend(kind)
    }

    pub fn with_backend(kind: BackendKind) -> io::Result<Poller> {
        let backend = match kind {
            BackendKind::Epoll => Backend::Epoll(Epoll::new()?),
            BackendKind::Poll => Backend::Poll(PollFallback::default()),
        };
        Ok(Poller { backend })
    }

    pub fn backend_kind(&self) -> BackendKind {
        match self.backend {
            Backend::Epoll(_) => BackendKind::Epoll,
            Backend::Poll(_) => BackendKind::Poll,
        }
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(e) => e.ctl(sys::EPOLL_CTL_ADD, fd, token, interest),
            Backend::Poll(p) => {
                p.fds.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(e) => e.ctl(sys::EPOLL_CTL_MOD, fd, token, interest),
            Backend::Poll(p) => {
                p.fds.insert(fd, (token, interest));
                Ok(())
            }
        }
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            Backend::Epoll(e) => e.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::default()),
            Backend::Poll(p) => {
                p.fds.remove(&fd);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses, or a signal lands (reported as zero events). Appends
    /// into `events` after clearing it.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms = match timeout {
            // Round up so a 100µs deadline does not busy-spin at 0ms.
            Some(d) => i32::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
            None => -1,
        };
        match &mut self.backend {
            Backend::Epoll(e) => e.wait(events, timeout_ms),
            Backend::Poll(p) => p.wait(events, timeout_ms),
        }
    }
}

struct Epoll {
    epfd: RawFd,
    buf: Vec<sys::epoll_event>,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(sys::last_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![sys::epoll_event { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut flags = sys::EPOLLRDHUP;
        if interest.read {
            flags |= sys::EPOLLIN;
        }
        if interest.write {
            flags |= sys::EPOLLOUT;
        }
        let mut ev = sys::epoll_event {
            events: flags,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(sys::last_error());
        }
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = sys::last_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for raw in &self.buf[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let flags = raw.events;
            let token = raw.data;
            let hangup = flags & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            events.push(Event {
                token,
                readable: flags & sys::EPOLLIN != 0 || hangup,
                writable: flags & sys::EPOLLOUT != 0 || flags & sys::EPOLLERR != 0,
            });
        }
        Ok(events.len())
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[derive(Default)]
struct PollFallback {
    fds: HashMap<RawFd, (u64, Interest)>,
    buf: Vec<sys::pollfd>,
}

impl PollFallback {
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        self.buf.clear();
        let mut tokens = Vec::with_capacity(self.fds.len());
        for (&fd, &(token, interest)) in &self.fds {
            let mut flags = 0i16;
            if interest.read {
                flags |= sys::POLLIN;
            }
            if interest.write {
                flags |= sys::POLLOUT;
            }
            self.buf.push(sys::pollfd {
                fd,
                events: flags,
                revents: 0,
            });
            tokens.push(token);
        }
        let n = unsafe { sys::poll(self.buf.as_mut_ptr(), self.buf.len() as u64, timeout_ms) };
        if n < 0 {
            let err = sys::last_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for (pfd, &token) in self.buf.iter().zip(&tokens) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            let hangup = r & (sys::POLLERR | sys::POLLHUP) != 0;
            events.push(Event {
                token,
                readable: r & sys::POLLIN != 0 || hangup,
                writable: r & sys::POLLOUT != 0 || r & sys::POLLERR != 0,
            });
        }
        Ok(events.len())
    }
}

/// Cross-thread wake-up for a [`Poller::wait`]: a nonblocking pipe.
/// Register [`Waker::fd`] for reads under a reserved token; any
/// thread may call [`Waker::wake`]; the loop calls [`Waker::drain`]
/// when the token fires.
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        if rc < 0 {
            return Err(sys::last_error());
        }
        Ok(Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd to register with the poller (read interest).
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Nonblocking, safe from any thread. A full pipe means a wake is
    /// already pending, which is all a wake needs to guarantee.
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe { sys::write(self.write_fd, &byte, 1) };
    }

    /// Drain pending wake bytes so level-triggered polling settles. A
    /// short read already emptied the pipe, so the usual drain is one
    /// `read(2)`, not a second one to be told `EAGAIN`; a byte written
    /// after it leaves the fd readable for the next wait.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                break;
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// Waker is a pair of fds; writes from any thread are atomic.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    fn backends() -> Vec<BackendKind> {
        if cfg!(target_os = "linux") {
            vec![BackendKind::Epoll, BackendKind::Poll]
        } else {
            vec![BackendKind::Poll]
        }
    }

    #[test]
    fn waker_wakes_and_drains() {
        for kind in backends() {
            let mut poller = Poller::with_backend(kind).unwrap();
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poller.register(waker.fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            // No wake: times out empty.
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{kind:?}");

            let w = waker.clone();
            let t = std::thread::spawn(move || w.wake());
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            t.join().unwrap();
            assert_eq!(n, 1, "{kind:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            waker.drain();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert_eq!(n, 0, "{kind:?}: drained waker must go quiet");
        }
    }

    #[test]
    fn tcp_read_and_write_readiness() {
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        for kind in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (sock, _) = listener.accept().unwrap();
            sock.set_nonblocking(true).unwrap();

            let mut poller = Poller::with_backend(kind).unwrap();
            poller
                .register(sock.as_raw_fd(), 3, Interest::BOTH)
                .unwrap();

            let mut events = Vec::new();
            // Idle socket: writable (empty send buffer), not readable.
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 3 && e.writable));
            assert!(!events.iter().any(|e| e.readable), "{kind:?}");

            peer.write_all(b"ping").unwrap();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                poller
                    .wait(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if events.iter().any(|e| e.token == 3 && e.readable) {
                    break;
                }
                assert!(Instant::now() < deadline, "{kind:?}: no readable event");
            }
            let mut buf = [0u8; 8];
            let n = (&sock).read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"ping");

            poller.deregister(sock.as_raw_fd()).unwrap();
            drop(peer);
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert_eq!(n, 0, "{kind:?}: deregistered fd must not report");
        }
    }
}
