//! Host-side readings from `/proc` and the metadata printed beside every
//! result, so a noisy run can be explained rather than guessed at.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use llc_dag::{fnv1a64, Fold};
use llc_sharing::json::Value;

use crate::stat;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of process `pid` (`"self"` for this one),
/// threads that already exited included.
pub fn cpu_s(pid: &str) -> Option<f64> {
    let line = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// One numeric `Key:` line of `/proc/<pid>/status` (kB for sizes).
fn status_field(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb / 1024.0)
}

/// Live thread count of `pid`.
pub fn threads(pid: &str) -> Option<f64> {
    status_field(pid, "Threads")
}

/// Total steal ticks of all CPUs since boot (`/proc/stat`, 8th value).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Converts a steal-tick delta to seconds.
pub fn ticks_to_s(ticks: u64) -> f64 {
    ticks as f64 / TICKS_PER_S
}

/// Times a fixed compute-and-memory loop owned by the benchmark, in
/// milliseconds. Nothing in the program under test changes it, so it
/// tracks only the host's speed at that moment.
pub fn ref_ms() -> f64 {
    const SLOTS: usize = 1 << 16; // 512 KiB of u64: beyond L1, within L2/LLC
    let mut table: Vec<u64> = (0..SLOTS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let start = Instant::now();
    let mut x = 1u64;
    for _ in 0..1 << 20 {
        let slot = (x as usize) & (SLOTS - 1);
        x = x.rotate_left(7) ^ table[slot];
        table[slot] = x.wrapping_add(1);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The available hardware parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// First line of a command's standard output, if it runs.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(str::to_string)
}

/// Digest over the program's sources (`crates/**/*.{rs,toml}`
/// and the root manifests), naming the code measured even in a checkout
/// without git metadata.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    let mut dirs = vec![root.join("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut fold = Fold::new(0);
    for f in &files {
        let name = f.strip_prefix(root).unwrap_or(f).to_string_lossy();
        let bytes = std::fs::read(f).unwrap_or_default();
        fold.str(&name).u64(fnv1a64(&bytes));
    }
    fold.finish()
}

/// Host metadata for the result record: commit, toolchain, core count,
/// CPU model, steal ticks over the run and the reference-loop timings.
pub fn metadata(root: &Path, steal: u64, ref_ms: &[f64]) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let text = |v: Option<String>| v.map_or(Value::Null, Value::Str);
    Value::object(vec![
        (
            "git_sha",
            text(command_line("git", &["rev-parse", "HEAD"], root)),
        ),
        (
            "source_digest",
            Value::Str(format!("{:016x}", source_digest(root))),
        ),
        ("rustc", text(command_line("rustc", &["-V"], root))),
        ("nproc", Value::Num(nproc() as f64)),
        ("cpu_model", Value::Str(cpu_model)),
        ("steal_ticks", Value::Num(steal as f64)),
        ("ref_ms", Value::Num(stat::median(ref_ms))),
        ("ref_ms_samples", Value::Num(ref_ms.len() as f64)),
    ])
}
