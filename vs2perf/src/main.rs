//! `vs2perf` — the repository's benchmark.
//!
//! ```text
//! vs2perf run --workload NAME --seed N --seconds S --trace 0|1 --vs2d PATH [--out DIR]
//! vs2perf gen --workload NAME --seed N --docs K --out FILE
//! ```
//!
//! `run` generates the workload's inline-document job lines from the
//! seed, measures set-up on short-lived `vs2d` processes, drives one
//! `vs2d` (`--workers` = available cores) for the measured run, checks
//! every answer and prints the end-to-end metrics. With `--trace 1` it
//! then runs the traced in-process passes over the same documents and
//! prints the per-layer metrics instead. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. A full
//! report (validity, input digest, reconciliation, both metric sets
//! where measured) goes to `--out` (default `.bench_out`).
//!
//! `gen` writes a workload's first `K` job lines to a file and prints
//! the file's digest.

mod alloc;
mod drive;
mod gen;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use vs2_eval::{evaluate_end_to_end, ExtractionItem, PrCounts};
use vs2_serve::{JobResult, JobStatus};

use crate::gen::Workload;
use crate::stats::{fnv1a64, median, p50, percentile};

/// Set-up measurements per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// A run is invalid when the generator's p99 lateness exceeds this.
const LATE_BOUND_MS: f64 = 5.0;

/// Equal sub-windows the measured window is split into (by read time);
/// throughput and CPU per document are medians over them, so a host
/// hiccup in one sub-window does not move the run's figure.
const SUB_WINDOWS: usize = 5;

/// Consecutive measured answers per latency window: the fewest for
/// which the percentile rule reports a true p99. Latency percentiles
/// are medians over these windows, for the same reason.
const LATENCY_WINDOW: usize = 1000;

/// Cool-down lines available after the measured ones.
const COOLDOWN_LINES: usize = 600;

/// Traced documents at most, from the start of the measured ones.
const TRACE_DOCS: usize = 4000;

/// Warm-up lines per workload: every model learned, per-thread caches
/// warm, and (templated) every family's plan cached.
fn warmup_lines(w: Workload) -> usize {
    match w {
        Workload::ColdMixed => 150,
        Workload::Templated => 200,
        Workload::InteractiveRouted => gen::INTERACTIVE_RATE as usize,
    }
}

/// Measured answers per measured second after which peak RSS is read:
/// below the seed's throughput on every workload, so every run reads it
/// after the same amount of work.
fn rss_rate(w: Workload) -> f64 {
    match w {
        Workload::ColdMixed => 800.0,
        Workload::Templated => 2000.0,
        Workload::InteractiveRouted => gen::INTERACTIVE_RATE,
    }
}

/// Generous closed-loop capacity (documents per second) that sizes the
/// pre-generated pool; open loop sends exactly `rate * seconds` lines.
fn pool_rate(w: Workload) -> f64 {
    match w {
        Workload::ColdMixed => 1400.0,
        Workload::Templated => 4200.0,
        Workload::InteractiveRouted => gen::INTERACTIVE_RATE,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    vs2d: PathBuf,
    out: PathBuf,
    docs: usize,
}

fn parse_seed(raw: &str) -> Result<u64, String> {
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    }
    .map_err(|e| format!("--seed {raw}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::ColdMixed,
        seed: 1,
        seconds: 10.0,
        trace: false,
        vs2d: PathBuf::from(".bench_build/release/vs2d"),
        out: PathBuf::from(".bench_out"),
        docs: 100,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => a.seed = parse_seed(&value()?)?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value()? == "1",
            "--vs2d" => a.vs2d = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            "--docs" => a.docs = value()?.parse().map_err(|e| format!("--docs: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    Ok(a)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("", &[][..]),
    };
    let parsed = parse_args(rest);
    let result = match (cmd, parsed) {
        ("run", Ok(a)) => run(&a),
        ("gen", Ok(a)) => gen_file(&a),
        (_, Err(e)) => Err(e),
        _ => Err("usage: vs2perf run|gen --workload NAME --seed N ...".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vs2perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// `vs2perf gen`: writes the first `--docs` lines and prints the digest.
fn gen_file(a: &Args) -> Result<bool, String> {
    let jobs = gen::jobs(a.workload, a.seed, a.docs, cores());
    let mut bytes = Vec::new();
    for j in &jobs {
        bytes.extend_from_slice(j.line.as_bytes());
        bytes.push(b'\n');
    }
    std::fs::write(&a.out, &bytes).map_err(|e| format!("{}: {e}", a.out.display()))?;
    println!("{:016x}  {}", fnv1a64(&bytes), a.out.display());
    Ok(true)
}

/// F1 of the `ok` answers among `lines` against the generator's truth.
fn f1_of(answers: &[JobResult], jobs: &[gen::Job]) -> PrCounts {
    let mut counts = PrCounts::default();
    for (r, job) in answers.iter().zip(jobs) {
        if r.status != JobStatus::Ok {
            continue;
        }
        let preds: Vec<ExtractionItem> = r
            .extractions
            .iter()
            .map(|e| ExtractionItem::new(e.entity.clone(), e.span_bbox, e.text.clone()))
            .collect();
        counts.add(&evaluate_end_to_end(&preds, &job.truth));
    }
    counts
}

/// Parses `vs2d`'s result lines and checks that each of the `sent`
/// lines was answered exactly once and in order (`seq` and the default
/// `job-<n>` id both match the line's position). Returns the answers up
/// to the first bad one; every failed check is added to `problems`.
fn check_answers(results: &[String], sent: usize, problems: &mut Vec<String>) -> Vec<JobResult> {
    if results.len() != sent {
        problems.push(format!("{sent} lines sent, {} answered", results.len()));
    }
    let mut answers = Vec::with_capacity(results.len());
    for (i, line) in results.iter().enumerate() {
        match serde_json::from_str::<JobResult>(line) {
            Ok(r) if r.seq == i as u64 && r.job_id == format!("job-{i}") => answers.push(r),
            Ok(r) => {
                problems.push(format!("answer {i} carries seq {} ({})", r.seq, r.job_id));
                break;
            }
            Err(e) => {
                problems.push(format!("answer {i} does not parse: {e}"));
                break;
            }
        }
    }
    answers
}

/// `vs2d` CPU seconds at time `t`, interpolated between samples.
fn cpu_at(samples: &[(f64, f64)], t: f64) -> f64 {
    let i = samples.partition_point(|&(at, _)| at < t);
    match (
        i.checked_sub(1).map(|j| samples[j]),
        samples.get(i).copied(),
    ) {
        (Some((ta, ca)), Some((tb, cb))) if tb > ta => ca + (cb - ca) * (t - ta) / (tb - ta),
        (_, Some((_, c))) | (Some((_, c)), None) => c,
        (None, None) => 0.0,
    }
}

/// Medians over sub-windows of the measured window: docs/s and CPU ms
/// per document over [`SUB_WINDOWS`] time windows, latency p50 and p99
/// (ms, of `ok` answers) over [`LATENCY_WINDOW`]-answer windows.
fn windowed(obs: &drive::Observed, answers: &[JobResult], m: std::ops::Range<usize>) -> [f64; 4] {
    let step = (obs.t_end - obs.t_start) / SUB_WINDOWS as f64;
    let mut cols: [Vec<f64>; 4] = Default::default();
    let lat: Vec<f64> = m
        .clone()
        .filter(|&i| answers[i].status == JobStatus::Ok)
        .map(|i| (obs.read_at[i] - obs.due[i]) * 1e3)
        .collect();
    // A short tail window joins the one before it.
    let windows = (lat.len() / LATENCY_WINDOW).max(1);
    for k in 0..windows {
        let hi = if k + 1 == windows {
            lat.len()
        } else {
            (k + 1) * LATENCY_WINDOW
        };
        let w = &lat[k * LATENCY_WINDOW..hi];
        cols[2].push(percentile(w, 50.0).map_or(0.0, |p| p.value));
        cols[3].push(percentile(w, 99.0).map_or(0.0, |p| p.value));
    }
    for j in 0..SUB_WINDOWS {
        let lo = obs.t_start + j as f64 * step;
        let hi = if j + 1 == SUB_WINDOWS {
            f64::INFINITY
        } else {
            lo + step
        };
        let inside: Vec<usize> = m
            .clone()
            .filter(|&i| obs.read_at[i] >= lo && obs.read_at[i] < hi)
            .collect();
        let ok = inside
            .iter()
            .filter(|&&i| answers[i].status == JobStatus::Ok)
            .count();
        let cpu_s = cpu_at(&obs.cpu_samples, lo + step) - cpu_at(&obs.cpu_samples, lo);
        cols[0].push(ok as f64 / step);
        cols[1].push(cpu_s * 1e3 / inside.len().max(1) as f64);
    }
    cols.map(|c| median(&c))
}

/// JSON number with all its digits (shortest round-trip form).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Unit of each per-layer metric, by name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("us_p50") || name.ends_with("us_p99") {
        "us"
    } else if name.ends_with("_ms") || name.ends_with("ms_p50") || name.ends_with("ms_p99") {
        "ms"
    } else if name.ends_with("bytes_per_doc") {
        "B/doc"
    } else if name.ends_with("allocs_per_doc") {
        "allocs/doc"
    } else if name.ends_with("_share") || name.ends_with("_ratio") || name.ends_with("_rate") {
        "ratio"
    } else if name.ends_with("_per_doc") {
        "count/doc"
    } else {
        "count"
    }
}

fn run(a: &Args) -> Result<bool, String> {
    let w = a.workload;
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    if !a.vs2d.is_file() {
        return Err(format!("no vs2d binary at {}", a.vs2d.display()));
    }
    let workers = cores();
    let daemon = drive::Daemon {
        binary: a.vs2d.clone(),
        workers,
        flags: w.flags().iter().map(|s| s.to_string()).collect(),
    };
    let warmup = warmup_lines(w);
    let pool = warmup + (pool_rate(w) * a.seconds).ceil() as usize + COOLDOWN_LINES;

    // Inputs: generated up front on every core, before vs2d starts.
    let t = std::time::Instant::now();
    let jobs = gen::jobs(w, a.seed, pool, workers);
    let gen_s = t.elapsed().as_secs_f64();
    let lines: Vec<&str> = jobs.iter().map(|j| j.line.as_str()).collect();

    // Set-up: one document per dataset on fresh processes.
    let firsts: Vec<&str> = w
        .datasets()
        .iter()
        .map(|ds| {
            let i = jobs
                .iter()
                .position(|j| j.dataset == *ds)
                .expect("dataset in pool");
            lines[i]
        })
        .collect();
    let setups = (0..SETUP_REPEATS)
        .map(|_| drive::setup_once(&daemon, &firsts))
        .collect::<Result<Vec<_>, _>>()?;

    let schedule = drive::Schedule {
        warmup,
        seconds: a.seconds,
        rate: w.open_rate(),
        rss_after: (rss_rate(w) * a.seconds) as usize,
    };
    let tag = format!("{}-seed{}-trace{}", w.name(), a.seed, u8::from(a.trace));
    let stderr_path = a.out.join(format!("{tag}.vs2d.stderr"));
    let obs = drive::run(&daemon, &lines, schedule, &stderr_path)?;
    let sent_bytes: Vec<u8> = lines[..obs.sent]
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
        .collect();
    let digest = fnv1a64(&sent_bytes);

    // Output checks: one answer per line, in order, each a result line.
    let mut problems: Vec<String> = Vec::new();
    if !obs.exit_ok {
        problems.push("vs2d exited non-zero".into());
    }
    let answers = check_answers(&obs.results, obs.sent, &mut problems);
    let not_ok = answers.iter().filter(|r| r.status != JobStatus::Ok).count();
    let failed = not_ok + obs.sent.saturating_sub(answers.len()) + obs.records.len();

    // End-to-end metrics over the measured lines.
    let m = obs.warmup..obs.end.min(answers.len());
    let measured = &answers[m.clone()];
    let ok_measured = measured
        .iter()
        .filter(|r| r.status == JobStatus::Ok)
        .count();
    let window = obs.t_end - obs.t_start;
    let latency_ms: Vec<f64> = m
        .clone()
        .filter(|&i| answers[i].status == JobStatus::Ok)
        .map(|i| (obs.read_at[i] - obs.due[i]) * 1e3)
        .collect();
    let lat_p50 = percentile(&latency_ms, 50.0);
    let lat_p99 = percentile(&latency_ms, 99.0);
    let counts = f1_of(measured, &jobs[m.clone()]);
    let f1 = counts.f1();
    if ok_measured == 0 || !f1.is_finite() || lat_p99.is_none() {
        problems.push(format!(
            "{ok_measured} measured ok answers: no F1 or latency"
        ));
    }
    let late_ms: Vec<f64> = obs.late[m.clone()].iter().map(|s| s * 1e3).collect();
    let late_p99 = percentile(&late_ms, 99.0).map_or(0.0, |p| p.value);
    let [docs_per_s, cpu_ms_per_doc, lat_p50_w, lat_p99_w] = windowed(&obs, &answers, m.clone());
    let e2e = vec![
        Metric {
            name: "docs_per_s",
            unit: "1/s",
            value: docs_per_s,
        },
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: lat_p50_w,
        },
        Metric {
            name: "latency_p99_ms",
            unit: "ms",
            value: lat_p99_w,
        },
        Metric {
            name: "cpu_ms_per_doc",
            unit: "ms",
            value: cpu_ms_per_doc,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: obs.hwm_kib as f64 / 1024.0,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setups),
        },
        Metric {
            name: "f1",
            unit: "ratio",
            value: f1,
        },
    ];

    let mut report = String::new();
    let _ = writeln!(report, "{{");
    let _ = writeln!(
        report,
        r#"  "workload": "{}", "seed": {}, "seconds": {},"#,
        w.name(),
        a.seed,
        a.seconds
    );
    let _ = writeln!(
        report,
        r#"  "host": {{"nproc": {workers}, "vs2d_workers": {workers}, "vs2d_flags": "{}"}},"#,
        w.flags().join(" ")
    );
    let _ = writeln!(
        report,
        r#"  "input": {{"pool_lines": {pool}, "sent_lines": {}, "sent_bytes": {}, "fnv1a64": "{digest:016x}", "generate_s": {}}},"#,
        obs.sent,
        sent_bytes.len(),
        num(gen_s)
    );
    let valid = !obs.pool_exhausted && late_p99 <= LATE_BOUND_MS;
    let _ = writeln!(
        report,
        r#"  "validity": {{"valid": {valid}, "gen_late_ms_p99": {}, "late_bound_ms": {LATE_BOUND_MS}, "pool_exhausted": {}, "inflight_max": {}, "warmup_lines": {}, "measured_lines": {}, "window_s": {}, "latency_percentiles": [{}, {}], "latency_samples": {}}},"#,
        num(late_p99),
        obs.pool_exhausted,
        obs.inflight_max,
        obs.warmup,
        measured.len(),
        num(window),
        lat_p50.map_or(0.0, |p| p.p),
        lat_p99.map_or(0.0, |p| p.p),
        latency_ms.len(),
    );
    let _ = writeln!(
        report,
        r#"  "whole_window": {{"docs_per_s": {}, "cpu_ms_per_doc": {}, "latency_p50_ms": {}, "latency_p99_ms": {}}},"#,
        num(ok_measured as f64 / window),
        num(obs.cpu_s * 1e3 / measured.len().max(1) as f64),
        num(lat_p50.map_or(0.0, |p| p.value)),
        num(lat_p99.map_or(0.0, |p| p.value)),
    );
    let _ = writeln!(
        report,
        r#"  "setup_s": [{}],"#,
        setups
            .iter()
            .map(|s| num(*s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(report, r#"  "end_to_end": {},"#, metrics_json(&e2e));
    if !valid {
        eprintln!(
            "vs2perf: run marked invalid (generator p99 lateness {late_p99:.3} ms, bound {LATE_BOUND_MS} ms; pool exhausted: {})",
            obs.pool_exhausted
        );
    }

    let mut printed = e2e;
    if a.trace {
        let traced_end = obs.warmup + TRACE_DOCS.min(measured.len());
        let answered_ok: Vec<bool> = answers.iter().map(|r| r.status == JobStatus::Ok).collect();
        let input = trace::TraceInput {
            workload: w,
            lines: &lines,
            answers: &obs.results,
            answered_ok: &answered_ok,
            warmup: obs.warmup,
            end: traced_end,
            workers,
        };
        let t = trace::run(&input)?;
        if !t.mismatches.is_empty() || !t.serve.mismatches.is_empty() {
            problems.push(format!(
                "traced bytes differ from vs2d at {} positions (first {:?}); service bytes at {}",
                t.mismatches.len(),
                t.mismatches.first(),
                t.serve.mismatches.len()
            ));
        }
        let spans_path = a.out.join(format!("{tag}.spans.jsonl"));
        trace::write_spans(&t.spans, &spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        let probe = drive::hold_probe(&daemon, firsts[0], std::time::Duration::from_millis(500))?;
        let mut layers = trace::layer_metrics(&t);
        let in_bytes = measured.len().max(1) as f64;
        let vs2d_lat_p50 = lat_p50.map_or(0.0, |p| p.value);
        layers.extend([
            (
                "vs2d.in_bytes_per_doc",
                lines[m.clone()].iter().map(|l| l.len() + 1).sum::<usize>() as f64 / in_bytes,
            ),
            (
                "vs2d.out_bytes_per_doc",
                obs.results[m.clone()]
                    .iter()
                    .map(|l| l.len() + 1)
                    .sum::<usize>() as f64
                    / in_bytes,
            ),
            (
                "gap.vs2d_minus_serve_ms_p50",
                vs2d_lat_p50 - p50(&t.serve.sojourn_ms),
            ),
            ("gen.late_ms_p99", late_p99),
            ("error_rate", failed as f64 / obs.sent.max(1) as f64),
        ]);
        let recon = reconcile(&t, &obs, &layers, vs2d_lat_p50, probe);
        for line in &recon {
            eprintln!("{line}");
        }
        let _ = writeln!(
            report,
            r#"  "reconciliation": [{}],"#,
            recon
                .iter()
                .map(|l| format!("{l:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(report, r#"  "spans_file": "{}","#, spans_path.display());
        printed = layers
            .into_iter()
            .map(|(name, value)| Metric {
                name,
                unit: layer_unit(name),
                value,
            })
            .collect();
        let _ = writeln!(report, r#"  "per_layer": {},"#, metrics_json(&printed));
    }
    let correct = problems.is_empty();
    for p in &problems {
        eprintln!("vs2perf: check failed: {p}");
    }
    let _ = writeln!(
        report,
        r#"  "checks": {{"correct": {correct}, "problems": [{}]}}"#,
        problems
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(report, "}}");
    let report_path = a.out.join(format!("{tag}.json"));
    std::fs::write(&report_path, &report).map_err(|e| format!("{}: {e}", report_path.display()))?;
    eprintln!("vs2perf: report written to {}", report_path.display());

    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {}}}"#,
        obs.sent,
        metrics_json(&printed)
    );
    Ok(correct)
}

/// The reconciliation report: `vs2d` → `serve` → `pipeline` → stage
/// self times, both gaps, the per-dataset pipeline/service gap and the
/// output-buffer hold, one line each.
fn reconcile(
    t: &trace::TraceOutput,
    obs: &drive::Observed,
    layers: &[(&'static str, f64)],
    vs2d_lat_p50: f64,
    probe: (bool, f64),
) -> Vec<String> {
    let get = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let st = trace::span_stats(&t.spans);
    let mut out = vec![
        format!("vs2d      latency p50 {vs2d_lat_p50:.3} ms (due time to result line read)"),
        format!(
            "serve     sojourn p50 {:.3} ms | job p50 {:.1} us p99 {:.1} us | dwell p50 {:.1} us",
            p50(&t.serve.sojourn_ms),
            get("serve.job_us_p50"),
            get("serve.job_us_p99"),
            get("serve.dwell_us_p50"),
        ),
        format!(
            "pipeline  untraced p50 {:.1} us | traced p50 {:.1} us | overhead ratio {:.4}",
            p50(&t.untraced_us),
            get("pipeline.us_p50"),
            get("trace.overhead_ratio"),
        ),
    ];
    let mut stages = String::from("stages    self us/doc (mean):");
    let mut names: Vec<_> = st.keys().copied().collect();
    names.sort_unstable();
    for name in names {
        let s = &st[name];
        let _ = write!(stages, " {name} {:.1};", stats::mean(&s.self_us));
    }
    out.push(stages);
    out.push(format!(
        "gaps      serve - pipeline {:.1} us (p50s) | vs2d - serve {:.3} ms (p50s)",
        get("gap.serve_minus_pipeline_us_p50"),
        get("gap.vs2d_minus_serve_ms_p50"),
    ));
    let mut datasets: Vec<_> = t.untraced_datasets.clone();
    datasets.sort_by_key(|d| d.name());
    datasets.dedup();
    for ds in datasets {
        let pipe: Vec<f64> = t
            .untraced_datasets
            .iter()
            .zip(&t.untraced_us)
            .filter(|(d, _)| **d == ds)
            .map(|(_, v)| *v)
            .collect();
        let serve: Vec<f64> = t
            .serve
            .datasets
            .iter()
            .zip(&t.serve.job_us)
            .filter(|(d, _)| **d == ds)
            .map(|(_, v)| *v)
            .collect();
        let (pp, sp) = (median(&pipe), median(&serve));
        out.push(format!(
            "dataset   {}: pipeline p50 {pp:.1} us, service job p50 {sp:.1} us, gap {:.1} us over {} docs",
            ds.name(),
            sp - pp,
            pipe.len()
        ));
    }
    // Output-buffer bursts: result lines read within 50 us of the
    // previous one arrived in the same flush of vs2d's stdout buffer.
    let m = obs.warmup..obs.end.min(obs.read_at.len());
    let bursts = 1 + obs.read_at[m.clone()]
        .windows(2)
        .filter(|w| w[1] - w[0] > 50e-6)
        .count();
    let bytes: usize = obs.results[m.clone()].iter().map(|l| l.len() + 1).sum();
    out.push(format!(
        "buffer    measured answers came in {bursts} read bursts: {:.2} lines and {:.0} bytes per burst",
        m.len() as f64 / bursts as f64,
        bytes as f64 / bursts as f64,
    ));
    out.push(format!(
        "hold      one answer, stdin held open 500 ms: {} before end of input, read {:.3} s after the write",
        if probe.0 { "released" } else { "not released" },
        probe.1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(seq: usize) -> String {
        format!(r#"{{"seq":{seq},"job_id":"job-{seq}","status":"ok","extractions":[]}}"#)
    }

    #[test]
    fn in_order_answers_pass() {
        let mut problems = Vec::new();
        let lines: Vec<String> = (0..3).map(answer).collect();
        assert_eq!(check_answers(&lines, 3, &mut problems).len(), 3);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn missing_reordered_duplicated_or_garbled_answers_fail() {
        let cases: [(Vec<String>, usize); 4] = [
            (vec![answer(0), answer(1)], 3),
            (vec![answer(0), answer(2), answer(1)], 3),
            (vec![answer(0), answer(0), answer(1)], 3),
            (vec![answer(0), "{not json".into(), answer(2)], 3),
        ];
        for (lines, sent) in cases {
            let mut problems = Vec::new();
            check_answers(&lines, sent, &mut problems);
            assert!(!problems.is_empty(), "{lines:?} passed");
        }
    }

    #[test]
    fn cpu_is_interpolated_between_samples() {
        let samples = [(1.0, 10.0), (2.0, 12.0)];
        assert_eq!(cpu_at(&samples, 1.5), 11.0);
        assert_eq!(cpu_at(&samples, 0.5), 10.0);
        assert_eq!(cpu_at(&samples, 3.0), 12.0);
        assert_eq!(cpu_at(&[], 1.0), 0.0);
    }
}
