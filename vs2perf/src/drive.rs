//! Drives one `vs2d` subprocess over JSONL: a writer (the calling
//! thread) sends job lines, closed loop or on a fixed arrival schedule,
//! and one reader thread timestamps every result line. Two threads in
//! all, so the generator never takes more than a 2-core host's cores.
//!
//! `vs2d` holds result lines in an 8 KiB `BufWriter` until it fills or
//! stdin closes. The benchmark measures that as it is, and times around
//! it:
//!
//! * the measured window runs from reading the answer to the last
//!   warm-up line to reading the answer to the last measured line, both
//!   released by a full buffer, never by end of input;
//! * after the measured lines the writer keeps sending cool-down lines
//!   (at the same rate, or as fast as `vs2d` takes them) until every
//!   measured answer has come back, so no measured latency includes the
//!   end-of-input flush;
//! * set-up is timed on separate short-lived processes whose stdin is
//!   closed after one document per dataset, where end of input is what
//!   releases the answers (see [`setup_once`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Minimum spacing of the reader's CPU samples, seconds.
pub const CPU_SAMPLE_S: f64 = 0.05;

/// How to start `vs2d`.
#[derive(Debug, Clone)]
pub struct Daemon {
    /// Path of the `vs2d` binary.
    pub binary: PathBuf,
    /// `--workers` value.
    pub workers: usize,
    /// Further flags.
    pub flags: Vec<String>,
}

impl Daemon {
    fn spawn(&self, stderr: Stdio) -> std::io::Result<Child> {
        Command::new(&self.binary)
            // Fixed at glibc's default starting value, which also turns
            // off glibc's dynamic mmap threshold. Left dynamic, the
            // threshold lands in one of two states depending on thread
            // timing, and `vs2d`'s peak RSS (65 vs 99 MB on cold-mixed)
            // and throughput (about 7%) follow it from run to run.
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .arg("--workers")
            .arg(self.workers.to_string())
            .args(&self.flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
    }
}

/// One set-up measurement: spawns `vs2d`, sends `lines` (one document
/// per dataset of the workload), closes stdin and returns the seconds
/// from spawning until the last answer was read — every model learned
/// and one document answered per dataset. Fails unless every line is
/// answered `ok` and `vs2d` exits 0.
pub fn setup_once(daemon: &Daemon, lines: &[&str]) -> Result<f64, String> {
    let started = Instant::now();
    let mut child = daemon
        .spawn(Stdio::null())
        .map_err(|e| format!("cannot start {}: {e}", daemon.binary.display()))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let written = lines.iter().try_for_each(|line| {
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
    });
    drop(stdin);
    if let Err(e) = written {
        let _ = child.wait();
        return Err(format!("set-up write: {e}"));
    }
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut answers = Vec::new();
    let mut last = started.elapsed();
    let mut buf = String::new();
    // Read to the end before judging, so vs2d can always finish and be
    // waited for.
    while out.read_line(&mut buf).is_ok_and(|n| n > 0) {
        last = started.elapsed();
        answers.push(std::mem::take(&mut buf));
    }
    let status = child.wait().map_err(|e| format!("set-up wait: {e}"))?;
    if let Some(bad) = answers.iter().find(|a| !a.contains(r#""status":"ok""#)) {
        return Err(format!("set-up answer not ok: {}", bad.trim_end()));
    }
    if !status.success() || answers.len() != lines.len() {
        return Err(format!(
            "set-up: {}/{} answered, vs2d {status}",
            answers.len(),
            lines.len()
        ));
    }
    Ok(last.as_secs_f64())
}

/// How the measured run sends its lines.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Leading lines outside the measurement (model learning, cache and
    /// plan-store warm-up).
    pub warmup: usize,
    /// Measured time, seconds. Closed loop: lines are measured while
    /// the writer is within this time of its first measured line.
    /// Open loop: the lines due within it are measured.
    pub seconds: f64,
    /// Arrival rate (lines per second) for open loop; `None` writes as
    /// fast as `vs2d` takes lines (closed loop).
    pub rate: Option<f64>,
    /// Measured answers after which `vs2d`'s peak RSS is read (or at the
    /// window's end, if sooner). `vs2d`'s per-thread memo tables grow
    /// with the documents seen, so a time-bound closed loop would
    /// otherwise read peak RSS after a different amount of work in
    /// every run.
    pub rss_after: usize,
}

/// Everything observed in one measured run.
#[derive(Debug, Default)]
pub struct Observed {
    /// Result lines, in the order read (newline stripped).
    pub results: Vec<String>,
    /// Read time of each result line, seconds since the writer started.
    pub read_at: Vec<f64>,
    /// Lines `vs2d` printed that are not result lines (quarantine
    /// records).
    pub records: Vec<String>,
    /// Lines sent.
    pub sent: usize,
    /// Due time of each sent line, seconds since the writer started:
    /// its scheduled arrival (open loop) or the start of its write
    /// (closed loop).
    pub due: Vec<f64>,
    /// Generator lateness per sent line, seconds: write start minus due
    /// time (open loop), or the gap since the previous write returned
    /// (closed loop).
    pub late: Vec<f64>,
    /// Lines before the measured ones.
    pub warmup: usize,
    /// Lines `warmup..end` are measured.
    pub end: usize,
    /// Window start and end, seconds since the writer started.
    pub t_start: f64,
    /// See `t_start`.
    pub t_end: f64,
    /// `vs2d` user+system CPU seconds over the window.
    pub cpu_s: f64,
    /// `(seconds since the writer started, vs2d CPU seconds)`, sampled
    /// on reads at least [`CPU_SAMPLE_S`] apart, for per-sub-window CPU.
    pub cpu_samples: Vec<(f64, f64)>,
    /// `vs2d` peak resident set (VmHWM), KiB, after
    /// [`Schedule::rss_after`] measured answers or at the window's end.
    pub hwm_kib: u64,
    /// The writer ran out of lines before the window closed, so the
    /// window's end came with end of input.
    pub pool_exhausted: bool,
    /// `vs2d` exited 0.
    pub exit_ok: bool,
    /// Most lines in flight (sent, not yet answered) seen by the writer.
    pub inflight_max: usize,
}

/// `(utime + stime)` of `pid` in clock ticks.
fn cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// VmHWM of `pid`, KiB.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Sends `lines` to a fresh `vs2d` under `schedule` and records what
/// came back; `vs2d`'s stderr goes to `stderr_path`.
pub fn run(
    daemon: &Daemon,
    lines: &[&str],
    schedule: Schedule,
    stderr_path: &Path,
) -> Result<Observed, String> {
    let warmup = schedule.warmup.max(1);
    if lines.len() <= warmup {
        return Err("no lines to measure".into());
    }
    let stderr = std::fs::File::create(stderr_path)
        .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
    let mut child = daemon
        .spawn(Stdio::from(stderr))
        .map_err(|e| format!("cannot start {}: {e}", daemon.binary.display()))?;
    let pid = child.id();
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let t0 = Instant::now();
    // Open loop knows its measured lines up front; closed loop fixes the
    // end when the writer's clock runs out.
    let end = AtomicUsize::new(match schedule.rate {
        Some(rate) => (warmup + (schedule.seconds * rate).round() as usize).min(lines.len()),
        None => usize::MAX,
    });
    let answered = AtomicUsize::new(0);

    let rss_at = warmup + schedule.rss_after;
    let (mut obs, read_result) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_results(stdout, pid, t0, warmup, rss_at, &end, &answered));
        let obs = write_lines(stdin, lines, schedule, warmup, t0, &end, &answered);
        (obs, reader.join().expect("reader thread"))
    });
    let status = child.wait().map_err(|e| format!("wait for vs2d: {e}"))?;
    let read = read_result?;
    obs.exit_ok = status.success();
    obs.warmup = warmup;
    obs.results = read.results;
    obs.read_at = read.read_at;
    obs.records = read.records;
    obs.t_start = read.t_start;
    obs.t_end = read.t_end;
    obs.end = read.end.unwrap_or(obs.end);
    obs.cpu_s = read.cpu_ticks as f64 / CLOCK_TICKS_PER_S;
    obs.cpu_samples = read.cpu_samples;
    obs.hwm_kib = read.hwm_kib;
    if read.end.is_none() {
        return Err(format!(
            "vs2d answered {} of {} lines before end of output ({status})",
            obs.results.len(),
            obs.sent
        ));
    }
    Ok(obs)
}

/// The writer half of [`run`].
fn write_lines(
    mut stdin: std::process::ChildStdin,
    lines: &[&str],
    schedule: Schedule,
    warmup: usize,
    t0: Instant,
    end: &AtomicUsize,
    answered: &AtomicUsize,
) -> Observed {
    let mut obs = Observed::default();
    let mut measure_from: Option<Instant> = None;
    let mut last_write_end = t0;
    let mut buf = Vec::new();
    for (k, line) in lines.iter().enumerate() {
        let measured_end = end.load(Ordering::Acquire);
        if k >= measured_end && answered.load(Ordering::Acquire) >= measured_end {
            break; // every measured answer is back: stop the cool-down
        }
        let (due, late) = match schedule.rate {
            Some(rate) => {
                let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                (due, Instant::now().saturating_duration_since(due))
            }
            None => {
                let now = Instant::now();
                if k == warmup {
                    measure_from = Some(now);
                }
                if let Some(from) = measure_from {
                    if measured_end == usize::MAX
                        && now.duration_since(from).as_secs_f64() >= schedule.seconds
                    {
                        end.store(k, Ordering::Release);
                    }
                }
                (now, now.duration_since(last_write_end))
            }
        };
        buf.clear();
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if stdin.write_all(&buf).is_err() {
            break; // vs2d went away; the reader reports what is missing
        }
        last_write_end = Instant::now();
        obs.inflight_max = obs
            .inflight_max
            .max(k + 1 - answered.load(Ordering::Acquire).min(k + 1));
        obs.due.push(due.duration_since(t0).as_secs_f64());
        obs.late.push(late.as_secs_f64());
        obs.sent += 1;
    }
    if end.load(Ordering::Acquire) > obs.sent {
        // Ran out of lines inside the window: everything sent is
        // measured, and the last answers come with end of input.
        obs.pool_exhausted = true;
        end.store(obs.sent, Ordering::Release);
    }
    obs.end = end.load(Ordering::Acquire);
    drop(stdin);
    obs
}

struct ReadOutcome {
    results: Vec<String>,
    read_at: Vec<f64>,
    records: Vec<String>,
    t_start: f64,
    t_end: f64,
    /// Result count at the window's end; `None` if it never closed.
    end: Option<usize>,
    cpu_ticks: u64,
    cpu_samples: Vec<(f64, f64)>,
    hwm_kib: u64,
}

/// The reader half of [`run`].
fn read_results(
    stdout: std::process::ChildStdout,
    pid: u32,
    t0: Instant,
    warmup: usize,
    rss_at: usize,
    end: &AtomicUsize,
    answered: &AtomicUsize,
) -> Result<ReadOutcome, String> {
    let mut out = BufReader::with_capacity(1 << 20, stdout);
    let mut o = ReadOutcome {
        results: Vec::new(),
        read_at: Vec::new(),
        records: Vec::new(),
        t_start: 0.0,
        t_end: 0.0,
        end: None,
        cpu_ticks: 0,
        cpu_samples: Vec::new(),
        hwm_kib: 0,
    };
    let mut start_ticks = 0;
    let mut buf = String::new();
    loop {
        buf.clear();
        match out.read_line(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                // Keep draining, so vs2d never blocks on a full pipe and
                // the writer can finish.
                let _ = std::io::copy(&mut out, &mut std::io::sink());
                return Err(format!("reading vs2d output: {e}"));
            }
        }
        let t = t0.elapsed().as_secs_f64();
        let line = buf.trim_end_matches('\n');
        if line.starts_with(r#"{"record":"#) {
            o.records.push(line.to_string());
            continue;
        }
        o.results.push(line.to_string());
        o.read_at.push(t);
        let count = o.results.len();
        answered.store(count, Ordering::Release);
        if o.cpu_samples
            .last()
            .is_none_or(|&(at, _)| t - at >= CPU_SAMPLE_S)
        {
            if let Some(ticks) = cpu_ticks(pid) {
                o.cpu_samples.push((t, ticks as f64 / CLOCK_TICKS_PER_S));
            }
        }
        if count == warmup {
            o.t_start = t;
            start_ticks = cpu_ticks(pid).unwrap_or(0);
        }
        if o.hwm_kib == 0 && count >= rss_at {
            o.hwm_kib = vm_hwm_kib(pid).unwrap_or(0);
        }
        if o.end.is_none() && count >= end.load(Ordering::Acquire) {
            o.t_end = t;
            o.end = Some(count);
            o.cpu_ticks = cpu_ticks(pid).unwrap_or(0).saturating_sub(start_ticks);
            if o.hwm_kib == 0 {
                o.hwm_kib = vm_hwm_kib(pid).unwrap_or(0);
            }
        }
    }
    // Drain anything after end of output (nothing, for a live pipe).
    let _ = out.read_to_string(&mut buf);
    Ok(o)
}

/// The output-buffer hold, observed directly: sends one line, waits
/// `wait`, then closes stdin. Returns whether the answer came back
/// before end of input, and the seconds from the write to the answer.
pub fn hold_probe(daemon: &Daemon, line: &str, wait: Duration) -> Result<(bool, f64), String> {
    let mut child = daemon
        .spawn(Stdio::null())
        .map_err(|e| format!("cannot start {}: {e}", daemon.binary.display()))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let sent = Instant::now();
    stdin
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("hold probe write: {e}"))?;
    let (answered_at, closed_at) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut buf = String::new();
            let n = out.read_line(&mut buf).unwrap_or(0);
            let at = sent.elapsed();
            let _ = out.read_to_string(&mut buf);
            (n > 0).then_some(at)
        });
        std::thread::sleep(wait);
        let closed_at = sent.elapsed();
        drop(stdin);
        (reader.join().expect("probe reader"), closed_at)
    });
    let _ = child.wait();
    let answered_at = answered_at.ok_or("hold probe: no answer")?;
    Ok((answered_at < closed_at, answered_at.as_secs_f64()))
}
