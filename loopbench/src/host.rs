//! The run record's host fingerprint, and the process's peak RSS.

use sider_json::Json;
use std::path::Path;

/// Host fingerprint: every number a run reports depends on these.
pub fn fingerprint(data_dir: &Path) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|t| t.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("available_parallelism", Json::from(parallelism)),
        ("cpu", Json::from(cpu)),
        ("kernel", Json::from(kernel)),
        ("data_dir_fs", Json::from(filesystem_of(data_dir))),
    ])
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    info.lines()
        .filter_map(|line| {
            // Fields: id parent major:minor root mount-point options ...
            // optional fields, then "-", fs type, source, super options.
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), (*fstype).to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The commit under test: `git rev-parse HEAD` where the working
/// directory is the root of a git checkout, else `"unknown"`. Git is kept
/// from searching the directories above it.
pub fn commit() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
