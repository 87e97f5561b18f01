//! Process accounting from `/proc/self` (Linux): peak resident set,
//! CPU time and minor page faults, with no dependency beyond `std`.

use std::fs;

/// Peak resident set size (`VmHWM`) in bytes, `None` where `/proc` is
/// unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets `VmHWM` to the current resident set, so the next
/// [`peak_rss_bytes`] covers only what runs after this call. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU time and fault counters of this process (all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl Usage {
    /// Reads `/proc/self/stat`; all zero where it is unavailable.
    pub fn now() -> Usage {
        fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Element-wise sum.
    pub fn plus(self, other: Usage) -> Usage {
        Usage {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            minor_faults: self.minor_faults + other.minor_faults,
        }
    }

    /// The counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }
}

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 for user space.
const TICKS_PER_S: f64 = 100.0;

fn parse_stat(stat: &str) -> Option<Usage> {
    // Field 2 (comm) may hold spaces; everything after its closing
    // parenthesis is space-separated, starting at field 3 (state).
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(Usage {
        minor_faults: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_S,
        sys_s: field(15)? as f64 / TICKS_PER_S,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_read_past_a_spaced_command_name() {
        let line = "42 (a b) R 1 2 3 4 5 6 777 8 9 10 250 31 0 0 20 0 3 0 1 2 3";
        let u = parse_stat(line).unwrap();
        assert_eq!(u.minor_faults, 777);
        assert_eq!(u.user_s, 2.5);
        assert_eq!(u.sys_s, 0.31);
    }
}
