//! Level-triggered fd readiness over `epoll(7)`: registrations live in
//! the kernel and a wait costs O(ready).

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

pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::epoll_event>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(sys::last_error());
        }
        Ok(Poller {
            epfd,
            buf: vec![sys::epoll_event { events: 0, data: 0 }; 1024],
        })
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, Interest::default())
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

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
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

    #[test]
    fn waker_wakes_and_drains() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // No wake: times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let w = waker.clone();
        let t = std::thread::spawn(move || w.wake());
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained waker must go quiet");
    }

    #[test]
    fn tcp_read_and_write_readiness() {
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(sock.as_raw_fd(), 3, Interest::BOTH)
            .unwrap();

        let mut events = Vec::new();
        // Idle socket: writable (empty send buffer), not readable.
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        assert!(!events.iter().any(|e| e.readable));

        peer.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "no readable event");
        }
        let mut buf = [0u8; 8];
        let n = (&sock).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        poller.deregister(sock.as_raw_fd()).unwrap();
        drop(peer);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd must not report");
    }
}
