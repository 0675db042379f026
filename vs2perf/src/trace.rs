//! The traced in-process run: the same documents and flags as the
//! `vs2d` run, with the benchmark's own spans around calls into each
//! layer's public functions.
//!
//! Each traced document goes to one of four arms (see [`Arm`]):
//!
//! * untraced: the call sequence a service worker runs for these flags,
//!   timed as a whole;
//! * traced: a `doc` root span with children `vs2d.parse`
//!   (`serde_json::from_str::<JobSpec>` of the wire line), `pipeline`
//!   (the same sequence, with children `context` = `DocContext::build`,
//!   one route span = `plan` (`planned_blocks_ctx`), `triage.route`
//!   (`routed_blocks_ctx`) or `segment.full` (`logical_blocks_ctx`), and
//!   `extract` = `extract_on_blocks_ctx`) and `vs2d.serialize` (the
//!   `JobResult` line);
//! * select: a `probe` root span with `probe.triage` (`triage_doc`),
//!   `probe.context`, `probe.segment` (`logical_blocks_ctx`) and
//!   `probe.select` (`candidates_on_blocks_ctx`);
//! * extract: a `probe` root span with `probe.context`, `probe.segment`
//!   and `probe.extract` (`extract_on_blocks_ctx`).
//!
//! The untraced and traced arms' results are compared byte for byte with
//! `vs2d`'s lines. Spans are kept in memory and written out when the run
//! ends; self time is total time minus the children's. A last pass drives
//! an in-process `ExtractService` with the same flags and worker count
//! over every traced document, for the `serve` layer.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vs2_core::plan::{PlanConfig, PlanCounters, PlanStore};
use vs2_core::triage::{TriageConfig, TriageDecision};
use vs2_core::{DocContext, Extraction, LogicalBlock, Vs2Pipeline};
use vs2_serve::{
    default_config_for, AdmitConfig, EngineConfig, ExtractService, JobOutcome, JobResult, JobSpec,
    JobStatus, Lane, ModelCache, ServiceOptions, DEFAULT_DOC_SEED,
};
use vs2_synth::dataset::DatasetId;

use crate::alloc;
use crate::gen::Workload;
use crate::stats::{mean, median, p50, percentile};

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the parent span, [`ROOT`] for none.
    pub parent: u32,
    /// Stream position of the document.
    pub doc: u32,
    /// Allocations made inside the span, children included.
    pub allocs: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread.
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    doc: u32,
}

impl Recorder {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            doc: 0,
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let a0 = alloc::allocs();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            doc: self.doc,
            allocs: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.allocs = alloc::allocs() - a0;
        out
    }
}

/// Per-name span summary.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Inclusive durations, microseconds, one per span.
    pub us: Vec<f64>,
    /// Self durations (inclusive minus children), microseconds.
    pub self_us: Vec<f64>,
    /// Allocations per span.
    pub allocs: Vec<f64>,
}

/// Summarises spans by name.
pub fn span_stats(spans: &[Span]) -> HashMap<&'static str, SpanStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.ns();
        }
    }
    let mut out: HashMap<&'static str, SpanStats> = HashMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.us.push(s.ns() as f64 / 1e3);
        e.self_us.push(s.ns().saturating_sub(child) as f64 / 1e3);
        e.allocs.push(s.allocs as f64);
    }
    out
}

/// Writes spans as JSONL: name, start, end, parent, document.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            f,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"doc":{},"allocs":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.doc, s.allocs
        )?;
    }
    f.flush()
}

/// The learned pipelines and plan stores one pass runs on.
struct Layers {
    workload: Workload,
    cache: ModelCache,
    pipelines: HashMap<DatasetId, Vs2Pipeline>,
    plans: HashMap<DatasetId, Arc<PlanStore>>,
    plan_cfg: PlanConfig,
    triage_cfg: TriageConfig,
}

impl Layers {
    fn new(workload: Workload) -> Self {
        let cache = ModelCache::new();
        let mut pipelines = HashMap::new();
        let mut plans = HashMap::new();
        for ds in workload.datasets() {
            let config = default_config_for(ds);
            pipelines.insert(ds, cache.pipeline_for(ds, DEFAULT_DOC_SEED, config));
            if workload.plan_cache() {
                plans.insert(ds, cache.plan_store_for(ds, DEFAULT_DOC_SEED, &config));
            }
        }
        Self {
            workload,
            cache,
            pipelines,
            plans,
            plan_cfg: PlanConfig::default(),
            triage_cfg: TriageConfig::default(),
        }
    }

    fn plan_counters(&self) -> PlanCounters {
        self.cache.plan_counters()
    }

    /// The segmentation route a service worker takes for these flags.
    fn route(&self, ctx: &DocContext<'_>, ds: DatasetId) -> Vec<LogicalBlock> {
        let seg = &self.pipelines[&ds].config.segment;
        let plans = self.plans.get(&ds);
        if self.workload.triage() {
            let plans = plans.map(|s| (&self.plan_cfg, &**s));
            vs2_core::routed_blocks_ctx(ctx, seg, &self.triage_cfg, plans).0
        } else if let Some(store) = plans {
            vs2_core::planned_blocks_ctx(ctx, seg, &self.plan_cfg, store).0
        } else {
            vs2_core::logical_blocks_ctx(ctx, seg)
        }
    }

    /// The untraced service sequence: context, route, extract.
    fn extract(&self, spec: &JobSpec) -> Vec<Extraction> {
        let doc = spec.document_arc();
        let ctx = DocContext::build(&doc);
        let blocks = self.route(&ctx, spec.dataset);
        self.pipelines[&spec.dataset].extract_on_blocks_ctx(&ctx, &blocks)
    }
}

/// The wire line `vs2d` prints for an `ok` answer at stream position
/// `seq`.
pub fn result_line(seq: usize, extractions: Vec<Extraction>) -> String {
    let result = JobResult {
        seq: seq as u64,
        job_id: format!("job-{seq}"),
        status: JobStatus::Ok,
        extractions,
        error: None,
        latency_us: None,
    };
    serde_json::to_string(&result).expect("result serialises")
}

/// Input of the traced run: wire lines by stream position, and which of
/// them to trace.
pub struct TraceInput<'a> {
    /// Workload.
    pub workload: Workload,
    /// Every wire line of the stream.
    pub lines: &'a [&'a str],
    /// `vs2d`'s result lines, by stream position.
    pub answers: &'a [String],
    /// Whether `vs2d` answered each position `ok`. Only those answers
    /// are compared: a line `vs2d` shed or degraded under load has no
    /// in-process counterpart to match.
    pub answered_ok: &'a [bool],
    /// Lines before the traced ones (run untimed first).
    pub warmup: usize,
    /// Traced stream positions `warmup..end`.
    pub end: usize,
    /// Worker threads of the in-process service.
    pub workers: usize,
}

impl TraceInput<'_> {
    /// `true` when `vs2d` answered position `i` `ok` with other bytes.
    fn differs(&self, i: usize, bytes: &str) -> bool {
        self.answered_ok.get(i) == Some(&true) && self.answers[i] != bytes
    }
}

/// What the traced run measured.
pub struct TraceOutput {
    /// Every span of the traced arms.
    pub spans: Vec<Span>,
    /// Per-document untraced service-sequence time, microseconds.
    pub untraced_us: Vec<f64>,
    /// Dataset of each `untraced_us` sample.
    pub untraced_datasets: Vec<DatasetId>,
    /// `triage_doc` decision per document of the select arm.
    pub decisions: Vec<TriageDecision>,
    /// Plan-store counters over the untraced and traced arms.
    pub plan: PlanCounters,
    /// Logical blocks per document (`probe.segment`, select arm).
    pub blocks: Vec<f64>,
    /// Candidates per document (`probe.select`).
    pub candidates: Vec<f64>,
    /// Positions whose serialised service-sequence result differed from
    /// `vs2d`'s line.
    pub mismatches: Vec<usize>,
    /// Cold `ModelCache::pipeline_for` over the workload's datasets,
    /// milliseconds, median of repeats.
    pub learn_ms: f64,
    /// The in-process service pass.
    pub serve: ServeOutput,
}

/// Which arm of the traced run a document goes to. Each document is run
/// through the layers once: a second pass over the same document finds
/// its data in the CPU caches and the per-thread memo tables and ran
/// about three times faster in trials, which no served document does.
/// Arms take whole rounds of the workload's pattern, so each arm sees
/// every dataset in the workload's proportions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// The service sequence, timed as a whole without spans.
    Untraced,
    /// The service sequence under spans, plus parse and serialize.
    Traced,
    /// `triage_doc`, then context, segmentation and select.
    Select,
    /// Context, segmentation and extraction (select plus assign).
    Extract,
}

fn arm(w: Workload, i: usize) -> Arm {
    match (i / w.pattern().len()) % 4 {
        0 => Arm::Untraced,
        1 => Arm::Traced,
        2 => Arm::Select,
        _ => Arm::Extract,
    }
}

/// Runs the four arms, then the service pass.
pub fn run(input: &TraceInput<'_>) -> Result<TraceOutput, String> {
    let w = input.workload;
    let parse = |i: usize| -> Result<JobSpec, String> {
        serde_json::from_str::<JobSpec>(input.lines[i]).map_err(|e| format!("line {i}: {e}"))
    };
    let learn_ms = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                let _ = Layers::new(w);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    let layers = Layers::new(w);
    for i in 0..input.warmup {
        layers.extract(&parse(i)?);
    }
    let plan_before = layers.plan_counters();
    let route_name = if w.triage() {
        "triage.route"
    } else if w.plan_cache() {
        "plan"
    } else {
        "segment.full"
    };

    let mut rec = Recorder::new();
    // Room for every span up front: a growing span vector would
    // reallocate inside some span and be counted against it.
    rec.spans.reserve((input.end - input.warmup) * 8);
    let mut out = TraceOutput {
        spans: Vec::new(),
        untraced_us: Vec::new(),
        untraced_datasets: Vec::new(),
        decisions: Vec::new(),
        plan: PlanCounters::default(),
        blocks: Vec::new(),
        candidates: Vec::new(),
        mismatches: Vec::new(),
        learn_ms,
        serve: ServeOutput::default(),
    };
    for i in input.warmup..input.end {
        rec.doc = i as u32;
        let line = input.lines[i];
        let bytes = match arm(w, i) {
            Arm::Untraced => {
                let spec = parse(i)?;
                let t = Instant::now();
                let ex = layers.extract(&spec);
                out.untraced_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.untraced_datasets.push(spec.dataset);
                Some(result_line(i, ex))
            }
            Arm::Traced => Some(rec.span("doc", |r| -> Result<_, String> {
                let spec = r.span("vs2d.parse", |_| serde_json::from_str::<JobSpec>(line));
                let spec = spec.map_err(|e| format!("line {i}: {e}"))?;
                let ds = spec.dataset;
                let doc = spec.document_arc();
                let pipeline = &layers.pipelines[&ds];
                let ex = r.span("pipeline", |r| {
                    let ctx = r.span("context", |_| DocContext::build(&doc));
                    let blocks = r.span(route_name, |_| layers.route(&ctx, ds));
                    r.span("extract", |_| pipeline.extract_on_blocks_ctx(&ctx, &blocks))
                });
                Ok(r.span("vs2d.serialize", |_| result_line(i, ex)))
            })?),
            probe_arm => {
                let spec = parse(i)?;
                let doc = spec.document_arc();
                let pipeline = &layers.pipelines[&spec.dataset];
                let seg = &pipeline.config.segment;
                rec.span("probe", |r| {
                    if probe_arm == Arm::Select {
                        let decision = r.span("probe.triage", |_| {
                            vs2_core::triage_doc(&doc, seg, &layers.triage_cfg)
                        });
                        out.decisions.push(decision);
                    }
                    let ctx = r.span("probe.context", |_| DocContext::build(&doc));
                    let blocks =
                        r.span("probe.segment", |_| vs2_core::logical_blocks_ctx(&ctx, seg));
                    if probe_arm == Arm::Select {
                        let cands = r.span("probe.select", |_| {
                            pipeline.candidates_on_blocks_ctx(&ctx, &blocks)
                        });
                        out.blocks.push(blocks.len() as f64);
                        out.candidates
                            .push(cands.values().map(Vec::len).sum::<usize>() as f64);
                    } else {
                        r.span("probe.extract", |_| {
                            pipeline.extract_on_blocks_ctx(&ctx, &blocks)
                        });
                    }
                });
                None
            }
        };
        if bytes.is_some_and(|b| input.differs(i, &b)) {
            out.mismatches.push(i);
        }
    }
    let after = layers.plan_counters();
    out.plan = PlanCounters {
        hits: after.hits - plan_before.hits,
        misses: after.misses - plan_before.misses,
        validation_rejects: after.validation_rejects - plan_before.validation_rejects,
        inserts: after.inserts - plan_before.inserts,
        evictions: after.evictions - plan_before.evictions,
        bypasses: after.bypasses - plan_before.bypasses,
        uncacheable: after.uncacheable - plan_before.uncacheable,
    };
    out.spans = std::mem::take(&mut rec.spans);
    drop(layers);
    out.serve = serve(input)?;
    Ok(out)
}

/// The in-process service pass.
#[derive(Debug, Default)]
pub struct ServeOutput {
    /// Processing latency of each job's deciding attempt, microseconds.
    pub job_us: Vec<f64>,
    /// Queue dwell per job, microseconds.
    pub dwell_us: Vec<f64>,
    /// Due time to `wait_result` return per job, milliseconds.
    pub sojourn_ms: Vec<f64>,
    /// Dataset per job.
    pub datasets: Vec<DatasetId>,
    /// Submissions that blocked on a full queue.
    pub queue_stalls: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Jobs answered by the degradation fallback.
    pub degraded: u64,
    /// Retry dispatches.
    pub retried: u64,
    /// Jobs whose `ok` answer differed from `vs2d`'s line.
    pub mismatches: Vec<usize>,
}

/// Drives an in-process `ExtractService` with the workload's flags over
/// the traced documents: closed loop, or at the workload's rate.
fn serve(input: &TraceInput<'_>) -> Result<ServeOutput, String> {
    let w = input.workload;
    let engine = EngineConfig {
        workers: input.workers,
        admit: w.admit().then(|| AdmitConfig::for_queue(32, 0x5EED)),
        ..EngineConfig::default()
    };
    let options = ServiceOptions {
        plan_cache: w.plan_cache(),
        naive_segment: false,
        triage: w.triage(),
    };
    let service = ExtractService::with_options(engine, DEFAULT_DOC_SEED, None, options, None);
    let specs: Vec<JobSpec> = (0..input.end)
        .map(|i| serde_json::from_str(input.lines[i]).map_err(|e| format!("line {i}: {e}")))
        .collect::<Result<_, String>>()?;
    let mut out = ServeOutput {
        datasets: specs[input.warmup..].iter().map(|s| s.dataset).collect(),
        ..ServeOutput::default()
    };
    let mut specs = specs.into_iter();
    for _ in 0..input.warmup {
        let seq = service.submit_spec(specs.next().expect("warm-up spec"), Lane::Interactive);
        service.wait_result(seq);
    }
    let before = service.stats();
    let mut outcomes = Vec::with_capacity(input.end - input.warmup);
    let (tx, rx) = std::sync::mpsc::channel::<(u64, Instant)>();
    std::thread::scope(|s| {
        let service = &service;
        s.spawn(move || {
            let t0 = Instant::now();
            for (k, spec) in specs.enumerate() {
                let due = match w.open_rate() {
                    Some(rate) => {
                        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    }
                    None => Instant::now(),
                };
                let seq = service.submit_spec(spec, Lane::Interactive);
                if tx.send((seq, due)).is_err() {
                    break;
                }
            }
        });
        for (seq, due) in rx.iter() {
            let done = service.wait_result(seq);
            out.sojourn_ms.push(due.elapsed().as_secs_f64() * 1e3);
            out.job_us.push(done.latency.as_secs_f64() * 1e6);
            out.dwell_us.push(done.dwell.as_secs_f64() * 1e6);
            outcomes.push(done.outcome);
        }
    });
    // Compared after the pass, so the waiting loop keeps pace with the
    // workers.
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let pos = input.warmup + k;
        if let JobOutcome::Ok(ex) = outcome {
            if input.differs(pos, &result_line(pos, ex)) {
                out.mismatches.push(pos);
            }
        }
    }
    let after = service.stats();
    out.queue_stalls = after.queue_stalls - before.queue_stalls;
    out.shed = after.shed - before.shed;
    out.degraded = after.degraded - before.degraded;
    out.retried = after.retried - before.retried;
    service.shutdown();
    Ok(out)
}

/// Per-layer metrics derived from a traced run, in `BENCHMARK.json`
/// names, plus the rows of the reconciliation report.
pub fn layer_metrics(t: &TraceOutput) -> Vec<(&'static str, f64)> {
    let st = span_stats(&t.spans);
    let empty = SpanStats::default();
    let get = |name: &str| st.get(name).unwrap_or(&empty);
    let pct = |v: &[f64], p: f64| percentile(v, p).map_or(0.0, |x| x.value);
    let n = t.decisions.len().max(1) as f64;
    let share = |d: TriageDecision| t.decisions.iter().filter(|&&x| x == d).count() as f64 / n;
    let lookups = t.plan.hits + t.plan.misses + t.plan.validation_rejects;
    let route = ["plan", "triage.route", "segment.full"]
        .into_iter()
        .find(|name| st.contains_key(name))
        .unwrap_or("plan");
    vec![
        ("vs2d.parse_us_p50", p50(&get("vs2d.parse").us)),
        ("vs2d.serialize_us_p50", p50(&get("vs2d.serialize").us)),
        ("serve.job_us_p50", p50(&t.serve.job_us)),
        ("serve.job_us_p99", pct(&t.serve.job_us, 99.0)),
        ("serve.dwell_us_p50", p50(&t.serve.dwell_us)),
        ("serve.dwell_us_p99", pct(&t.serve.dwell_us, 99.0)),
        ("serve.queue_stalls", t.serve.queue_stalls as f64),
        ("serve.shed", t.serve.shed as f64),
        ("serve.degraded", t.serve.degraded as f64),
        ("serve.retried", t.serve.retried as f64),
        ("serve.learn_ms", t.learn_ms),
        ("context.build_us_p50", p50(&get("context").us)),
        ("triage.us_p50", p50(&get("probe.triage").us)),
        ("triage.full_share", share(TriageDecision::FullVs2)),
        ("triage.cheap_share", share(TriageDecision::CheapPath)),
        ("triage.replay_share", share(TriageDecision::PlanReplay)),
        (
            "plan.us_p50",
            if route == "plan" {
                p50(&get("plan").us)
            } else {
                0.0
            },
        ),
        (
            "plan.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                t.plan.hits as f64 / lookups as f64
            },
        ),
        ("plan.inserts", t.plan.inserts as f64),
        ("plan.evictions", t.plan.evictions as f64),
        ("plan.rejects", t.plan.validation_rejects as f64),
        ("plan.bypasses", t.plan.bypasses as f64),
        ("segment.us_p50", p50(&get("probe.segment").us)),
        ("segment.us_p99", pct(&get("probe.segment").us, 99.0)),
        ("segment.blocks_per_doc", mean(&t.blocks)),
        ("select.us_p50", p50(&get("probe.select").us)),
        ("select.us_p99", pct(&get("probe.select").us, 99.0)),
        ("select.candidates_per_doc", mean(&t.candidates)),
        (
            "assign.us_p50",
            p50(&get("probe.extract").us) - p50(&get("probe.select").us),
        ),
        ("pipeline.us_p50", p50(&get("pipeline").us)),
        ("context.allocs_per_doc", mean(&get("context").allocs)),
        ("segment.allocs_per_doc", mean(&get("probe.segment").allocs)),
        ("select.allocs_per_doc", mean(&get("probe.select").allocs)),
        ("pipeline.allocs_per_doc", mean(&get("pipeline").allocs)),
        (
            "gap.serve_minus_pipeline_us_p50",
            p50(&t.serve.job_us) - p50(&t.untraced_us),
        ),
        (
            "trace.overhead_ratio",
            p50(&get("pipeline").us) / p50(&t.untraced_us).max(f64::MIN_POSITIVE),
        ),
    ]
}
