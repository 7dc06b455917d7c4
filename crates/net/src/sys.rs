//! Raw `extern "C"` bindings for the syscalls the poller needs.
//!
//! `std` links libc on every unix target, so declaring the symbols
//! here costs nothing and keeps the workspace dependency-free. The
//! constants are the Linux ABI values (x86_64 and aarch64 agree on
//! all of them).

#![allow(non_camel_case_types)]

pub type RawFd = std::os::unix::io::RawFd;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

pub const EPOLL_CLOEXEC: i32 = 0o2000000;
pub const O_NONBLOCK: i32 = 0o4000;
pub const O_CLOEXEC: i32 = 0o2000000;

pub const RLIMIT_NOFILE: i32 = 7;

/// `struct epoll_event`. The x86 kernel ABI packs it to 12 bytes;
/// every other architecture uses natural alignment.
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub data: u64,
}

#[repr(C)]
pub struct rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

extern "C" {
    pub fn epoll_create1(flags: i32) -> i32;
    pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
    pub fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32) -> i32;
    pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
    pub fn close(fd: i32) -> i32;
    pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    pub fn getrlimit(resource: i32, rlim: *mut rlimit) -> i32;
    pub fn setrlimit(resource: i32, rlim: *const rlimit) -> i32;
}

/// The last OS error as `io::Error` (reads `errno` via std).
pub fn last_error() -> std::io::Error {
    std::io::Error::last_os_error()
}
