//! Workloads and their inputs: inline-document JSONL job lines, made
//! from a seed, plus the generator's ground truth for F1.
//!
//! Document `i` of a workload's stream belongs to dataset
//! `pattern[i % pattern.len()]` and is that dataset's `k`-th document,
//! `k` counting the dataset's earlier occurrences in the stream. So
//! every document of a stream is distinct, and the same seed always
//! gives the same bytes.

use std::sync::Arc;

use vs2_eval::ExtractionItem;
use vs2_serve::{JobDocCache, JobSource, JobSpec};
use vs2_synth::dataset::{generate_one, DatasetConfig, DatasetId};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// D1, D2 and D3 interleaved, every document unique, closed loop,
    /// `--plan-cache`.
    ColdMixed,
    /// The Templated and D4 families interleaved, closed loop,
    /// `--plan-cache`.
    Templated,
    /// The 12:2:1:1 D4:D1:D2:D3 blend, open loop at
    /// [`INTERACTIVE_RATE`], `--triage --admit`.
    InteractiveRouted,
}

/// The 16-document serving blend of the triage experiments: twelve D4
/// invoices, two D1 forms, one D2 poster and one D3 flyer.
const BLEND: [DatasetId; 16] = [
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D1,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D2,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D1,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D3,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D4,
    DatasetId::D4,
];

/// Fixed arrival rate of `interactive-routed`, documents per second:
/// about a third of this blend's closed-loop capacity through `vs2d` on
/// a 2-core host when the benchmark was defined (1,400 to 1,800 docs/s).
/// At half capacity (700 docs/s) the latency of a 10 s run swung with
/// the shared host's load: the p99's quartile spread over ten seeds
/// reached 0.85 of its median, and some runs shed lines. At this rate it
/// stayed at 0.16–0.45. Set once; never derived from the host a run
/// happens on.
pub const INTERACTIVE_RATE: f64 = 500.0;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdMixed,
        Workload::Templated,
        Workload::InteractiveRouted,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMixed => "cold-mixed",
            Workload::Templated => "templated",
            Workload::InteractiveRouted => "interactive-routed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset interleaving pattern.
    pub fn pattern(self) -> &'static [DatasetId] {
        match self {
            Workload::ColdMixed => &[DatasetId::D1, DatasetId::D2, DatasetId::D3],
            Workload::Templated => &[DatasetId::Templated, DatasetId::D4],
            Workload::InteractiveRouted => &BLEND,
        }
    }

    /// The datasets of the workload, each once, in first-use order.
    pub fn datasets(self) -> Vec<DatasetId> {
        let mut out: Vec<DatasetId> = Vec::new();
        for &d in self.pattern() {
            if !out.contains(&d) {
                out.push(d);
            }
        }
        out
    }

    /// `vs2d` flags besides `--workers`.
    pub fn flags(self) -> &'static [&'static str] {
        match self {
            Workload::ColdMixed | Workload::Templated => &["--plan-cache"],
            Workload::InteractiveRouted => &["--triage", "--admit"],
        }
    }

    /// `true` when `vs2d` runs with the plan cache.
    pub fn plan_cache(self) -> bool {
        self.flags().contains(&"--plan-cache")
    }

    /// `true` when `vs2d` runs with triage routing.
    pub fn triage(self) -> bool {
        self.flags().contains(&"--triage")
    }

    /// `true` when `vs2d` runs with admission control.
    pub fn admit(self) -> bool {
        self.flags().contains(&"--admit")
    }

    /// Arrival rate for open-loop workloads; `None` for closed loop
    /// (the whole stream is piped as fast as `vs2d` takes it).
    pub fn open_rate(self) -> Option<f64> {
        match self {
            Workload::InteractiveRouted => Some(INTERACTIVE_RATE),
            _ => None,
        }
    }

    /// Dataset and per-dataset document index of stream position `i`.
    pub fn slot(self, i: usize) -> (DatasetId, usize) {
        let pattern = self.pattern();
        let (round, pos) = (i / pattern.len(), i % pattern.len());
        let ds = pattern[pos];
        let per_round = pattern.iter().filter(|&&d| d == ds).count();
        let before = pattern[..pos].iter().filter(|&&d| d == ds).count();
        (ds, round * per_round + before)
    }
}

/// One generated job: its wire line (no trailing newline) and the
/// generator's ground truth.
pub struct Job {
    /// Dataset, which selects the served model.
    pub dataset: DatasetId,
    /// The JSONL job spec with the document inline.
    pub line: String,
    /// Ground-truth entity annotations.
    pub truth: Vec<ExtractionItem>,
}

/// Generates stream position `i` of `workload` under `seed`.
pub fn job(workload: Workload, seed: u64, i: usize) -> Job {
    let (dataset, doc_index) = workload.slot(i);
    let ad = generate_one(dataset, doc_index, DatasetConfig::new(1, seed));
    let truth = ad
        .annotations
        .iter()
        .map(|a| ExtractionItem::new(a.entity.clone(), a.bbox, a.text.clone()))
        .collect();
    let spec = JobSpec {
        job_id: None,
        dataset,
        source: JobSource::Inline(Arc::new(ad.doc)),
        client: None,
        lane: None,
        doc_cache: JobDocCache::default(),
    };
    Job {
        dataset,
        line: serde_json::to_string(&spec).expect("job spec serialises"),
        truth,
    }
}

/// Generates stream positions `0..n` on `threads` threads, in order.
pub fn jobs(workload: Workload, seed: u64, n: usize, threads: usize) -> Vec<Job> {
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t * chunk..((t + 1) * chunk).min(n))
                        .map(|i| job(workload, seed, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fnv1a64;

    fn digest(jobs: &[Job]) -> u64 {
        let mut bytes = Vec::new();
        for j in jobs {
            bytes.extend_from_slice(j.line.as_bytes());
            bytes.push(b'\n');
        }
        fnv1a64(&bytes)
    }

    #[test]
    fn same_seed_gives_identical_bytes_at_any_thread_count() {
        for w in Workload::ALL {
            let a = jobs(w, 7, 20, 1);
            let b = jobs(w, 7, 20, 3);
            assert_eq!(digest(&a), digest(&b), "{}", w.name());
            let c = jobs(w, 8, 20, 2);
            assert_ne!(digest(&a), digest(&c), "{}", w.name());
        }
    }

    #[test]
    fn lines_are_inline_document_jobs() {
        for w in Workload::ALL {
            for j in jobs(w, 3, 16, 2) {
                let spec: JobSpec = serde_json::from_str(&j.line).unwrap();
                assert_eq!(spec.dataset, j.dataset);
                assert!(matches!(spec.source, JobSource::Inline(_)));
                assert!(!j.line.contains("doc_index"));
            }
        }
    }

    #[test]
    fn streams_follow_the_pattern_and_never_repeat_a_document() {
        for w in Workload::ALL {
            let n = w.pattern().len() * 4;
            let mut seen = std::collections::HashSet::new();
            for i in 0..n {
                let (ds, k) = w.slot(i);
                assert_eq!(ds, w.pattern()[i % w.pattern().len()]);
                assert!(seen.insert((ds.name(), k)), "{} repeats {i}", w.name());
            }
        }
        // The blend is 12:2:1:1 D4:D1:D2:D3.
        let count = |d| BLEND.iter().filter(|&&x| x == d).count();
        assert_eq!(
            [DatasetId::D4, DatasetId::D1, DatasetId::D2, DatasetId::D3].map(count),
            [12, 2, 1, 1]
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
