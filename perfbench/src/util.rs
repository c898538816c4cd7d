//! Small measurement helpers: order statistics, the deterministic shuffle,
//! process memory and CPU clocks, and host provenance.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// SplitMix64: the benchmark's one source of seeded randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `splitmix64` from `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Tracing overhead from alternating passes: the median over pass pairs of
/// a traced pass's seconds over the untraced pass just before it, minus 1.
/// Pairing neighbours keeps host drift over the run out of the ratio.
pub fn tracing_overhead(plain_s: &[f64], traced_s: &[f64]) -> f64 {
    let ratios: Vec<f64> = plain_s
        .iter()
        .zip(traced_s)
        .map(|(plain, traced)| traced / plain)
        .collect();
    median(&ratios) - 1.0
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The high-water mark, in kB, of the current window up to the last
/// reference-kernel run (see [`reference_kernel`]).
static HWM_BEFORE_KERNEL_KB: AtomicU64 = AtomicU64::new(0);

/// The process's resident-memory high-water mark in MiB since the last
/// [`reset_peak_rss`] (`VmHWM`), leaving out the reference kernel's own
/// table; 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = proc_status_kb("VmHWM:").unwrap_or(0);
    hwm_kb.max(HWM_BEFORE_KERNEL_KB.load(Ordering::Relaxed)) as f64 / 1024.0
}

/// Hands heap memory that earlier work freed back to the system (glibc
/// `malloc_trim`), so that what follows allocates as a fresh process would
/// rather than from what earlier work left in the allocator's arenas.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only returns free heap pages to the kernel; it
    // is thread-safe and touches no memory the program still holds.
    unsafe { malloc_trim(0) };
}

/// Resets `VmHWM` to the current resident set (Linux `clear_refs` mode 5).
/// Where that is unsupported `VmHWM` stays the peak since the process
/// started.
fn clear_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Starts a new memory high-water window: trims the heap ([`trim_heap`])
/// and resets the high-water mark, so that [`peak_rss_mb`] then reads the
/// peak since this call.
pub fn reset_peak_rss() {
    trim_heap();
    HWM_BEFORE_KERNEL_KB.store(0, Ordering::Relaxed);
    clear_hwm();
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed so far by every thread of this process.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on), and the clock id
    // is a constant the kernel accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Nominal seconds of one [`reference_kernel`] call: the time metrics are
/// reported as if the host ran the kernel in exactly this long.
pub const REFERENCE_KERNEL_S: f64 = 0.04;

/// Seconds of each reference-kernel call.
static KERNEL_SECONDS: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());

/// Runs the benchmark's fixed reference kernel once, records its seconds
/// and returns them. The kernel is none of the program's code, so no change
/// to the program changes its time. It has two parts: an LCG scattering
/// updates into a freshly allocated 32 MiB table (page faults and cache
/// misses past L2, like the program's larger circuits) and a levelized
/// simulation of a fixed 6144-gate netlist (branchy, table-driven work like
/// the program's simulators). The table is returned to the system at once
/// and left out of [`peak_rss_mb`].
pub fn reference_kernel() -> f64 {
    let hwm_kb = proc_status_kb("VmHWM:").unwrap_or(0);
    HWM_BEFORE_KERNEL_KB.fetch_max(hwm_kb, Ordering::Relaxed);
    let started = Instant::now();
    let mut table = vec![0u64; 1 << 22];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..500_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 42) as usize;
        table[i] = table[i].wrapping_add(x) ^ (x >> 13);
    }
    std::hint::black_box(&table);
    drop(table);
    std::hint::black_box(gate_kernel());
    let seconds = secs(started);
    clear_hwm();
    KERNEL_SECONDS
        .lock()
        .expect("kernel log lock poisoned")
        .push(seconds);
    seconds
}

/// Median seconds of the reference-kernel calls so far.
pub fn reference_kernel_median_s() -> f64 {
    median(&KERNEL_SECONDS.lock().expect("kernel log lock poisoned"))
}

/// Gates of the reference netlist the kernel simulates.
const KERNEL_GATES: usize = 6144;
/// Primary inputs of the reference netlist.
const KERNEL_INPUTS: usize = 64;

/// A fixed pseudo-random netlist: `(op, a, b)` per gate, operands drawn
/// mostly from the previous few hundred nets.
fn kernel_netlist() -> &'static [(u8, u32, u32)] {
    static NETLIST: std::sync::OnceLock<Vec<(u8, u32, u32)>> = std::sync::OnceLock::new();
    NETLIST.get_or_init(|| {
        let mut state = 0x5eed;
        (0..KERNEL_GATES)
            .map(|g| {
                let nets = (KERNEL_INPUTS + g) as u64;
                let op = (splitmix64(&mut state) % 5) as u8;
                let mut pick = || (nets - 1 - splitmix64(&mut state) % nets.min(512)) as u32;
                let a = pick();
                (op, a, pick())
            })
            .collect()
    })
}

/// Simulates the reference netlist for a fixed number of cycles, counting
/// toggles: branchy, table-driven work like the program's simulators.
fn gate_kernel() -> u64 {
    let netlist = kernel_netlist();
    let mut values = vec![false; KERNEL_INPUTS + KERNEL_GATES];
    let mut x = 0x9e37_79b9u64;
    let mut toggles = 0u64;
    for _ in 0..96 {
        for input in values.iter_mut().take(KERNEL_INPUTS) {
            *input = splitmix64(&mut x) & 1 == 1;
        }
        for (g, &(op, a, b)) in netlist.iter().enumerate() {
            let (a, b) = (values[a as usize], values[b as usize]);
            let out = match op {
                0 => a & b,
                1 => a | b,
                2 => a ^ b,
                3 => !(a & b),
                _ => !a,
            };
            let net = KERNEL_INPUTS + g;
            toggles += u64::from(values[net] != out);
            values[net] = out;
        }
    }
    toggles
}

/// Escapes `s` as the body of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the CPU-0 cache at `level` (e.g. `"2"`, `"3"`) as sysfs prints it
/// (`2048K`), or `unknown`.
fn cache_size(level: &str) -> String {
    let Ok(entries) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return "unknown".to_string();
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |file: &str| {
            std::fs::read_to_string(dir.join(file))
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
        };
        if read("level") == level && read("type") != "Instruction" {
            return read("size");
        }
    }
    "unknown".to_string()
}

/// The revision of the measured sources: an FNV-1a hash over the Rust
/// sources and manifests of the repository's crates and of the benchmark
/// (`src-<hash>`), preceded inside a git checkout by `git describe --always
/// --dirty`, so that uncommitted changes show.
fn source_revision() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_sources(std::path::Path::new(dir), &mut files);
    }
    files.push("perfbench/Cargo.toml".into());
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        for byte in file
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(file).unwrap_or_default())
        {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    match command_line("git", &["describe", "--always", "--dirty"]) {
        Some(rev) => format!("{rev}+src-{hash:016x}"),
        None => format!("src-{hash:016x}"),
    }
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            out.push(path);
        }
    }
}

/// Logical CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One JSON object describing the host and build the result came from.
pub fn provenance_json(workload: &str, seed: u64, trace: bool, smoke: bool) -> String {
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"smoke\":{smoke},\
         \"host_cpus\":{},\"cpu_model\":\"{}\",\"l2_cache\":\"{}\",\"l3_cache\":\"{}\",\
         \"rustc\":\"{}\",\"revision\":\"{}\"}}}}",
        json_escape(workload),
        host_cpus(),
        json_escape(&cpu_model()),
        json_escape(&cache_size("2")),
        json_escape(&cache_size("3")),
        json_escape(&rustc),
        json_escape(&source_revision()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), 50.0);
        assert_eq!(percentile(&hundred, 0.9), 90.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn clocks_advance() {
        let cpu = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_seconds() > cpu);
        assert!(peak_rss_mb() > 0.0);
    }
}
