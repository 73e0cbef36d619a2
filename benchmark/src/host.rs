//! Process and host facts: memory readings and the fingerprint each
//! result record is stamped with.

use std::path::Path;

/// One `kB` field of `/proc/self/status`, in MiB (0 off Linux).
fn status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The process's current resident set (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The filesystem type `dir` lives on: the longest mount point in
/// `/proc/mounts` that prefixes its canonical path.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else { return "unknown".to_string() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// The commit the benchmark was built from, when run inside a git
/// checkout; `unknown` otherwise (e.g. in an exported source tree).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_and_host_facts_read() {
        if Path::new("/proc/self/status").exists() {
            let rss = rss_mb();
            assert!(rss > 0.0);
            assert!(peak_rss_mb() >= rss);
            assert_ne!(fs_type(Path::new(".")), "unknown");
        }
        assert!(nproc() >= 1);
        assert!(!kernel().is_empty());
    }
}
