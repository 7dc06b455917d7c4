//! `RLIMIT_NOFILE` helpers.
//!
//! The standing-crowd test raises the soft limit toward the hard cap
//! before opening thousands of sockets; the fd-exhaustion test lowers
//! it to force `EMFILE` deterministically.

use std::io;

use crate::sys;

/// Current `(soft, hard)` fd limits.
pub fn nofile() -> io::Result<(u64, u64)> {
    let mut lim = sys::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    let rc = unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) };
    if rc < 0 {
        return Err(sys::last_error());
    }
    Ok((lim.rlim_cur, lim.rlim_max))
}

/// Sets the soft fd limit (hard limit unchanged; `soft` is clamped to
/// it). Returns the soft limit actually installed.
pub fn set_nofile_soft(soft: u64) -> io::Result<u64> {
    let (_, hard) = nofile()?;
    let lim = sys::rlimit {
        rlim_cur: soft.min(hard),
        rlim_max: hard,
    };
    let rc = unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &lim) };
    if rc < 0 {
        return Err(sys::last_error());
    }
    Ok(lim.rlim_cur)
}

/// Raises the soft fd limit to at least `min` when the hard limit
/// allows; never lowers it. Returns the (possibly unchanged) soft
/// limit in force afterwards.
pub fn raise_nofile(min: u64) -> io::Result<u64> {
    let (soft, _) = nofile()?;
    if soft >= min {
        return Ok(soft);
    }
    set_nofile_soft(min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_the_soft_limit() {
        let (soft, hard) = nofile().unwrap();
        assert!(soft > 0 && hard >= soft);
        // Re-installing the current value must succeed and not lower
        // anything (this test shares its process with others).
        assert_eq!(set_nofile_soft(soft).unwrap(), soft.min(hard));
        assert!(raise_nofile(soft).unwrap() >= soft);
    }
}
