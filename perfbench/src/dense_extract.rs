//! `dense-extract`: the Example 2.1 contact spanner with every mapping
//! enumerated — Algorithm 1 builds the DAG, Algorithm 2 walks it — through
//! `SpannerServer::evaluate_batch_report`. Matches are everywhere, so the
//! per-position step, DAG pushes and enumeration dominate and the byte
//! scanner barely runs. Document sizes are heavy-tailed, from 1 kB to
//! 256 kB, so the paper's linearity (E1) and constant-delay (E2) claims can
//! be read as ratios between the largest and the smallest documents.

use std::hint::black_box;
use std::time::Instant;

use spanners::baselines::naive_enumerate;
use spanners::core::DagView;
use spanners::runtime::{BatchOptions, SpannerServer};
use spanners::workloads::{contact_directory, contact_pattern, corpus_bytes};
use spanners::{CountCache, Document, Evaluator, SpannerError};

use crate::harness::{
    closed_loop, compile_eager, median_of, mix, record_setup, time_rounds, Config, StageTimes,
};
use crate::metrics::{Gate, Outcome};
use crate::slp_probes;
use crate::stats::median;
use crate::trace::Tracer;

/// The fixed size spectrum: (target bytes, documents). The seed picks the
/// contents and never the shape, so every seed weighs the same.
const SPECTRUM: [(usize, usize); 9] = [
    (256 << 10, 1),
    (128 << 10, 1),
    (64 << 10, 2),
    (32 << 10, 3),
    (16 << 10, 5),
    (8 << 10, 8),
    (4 << 10, 12),
    (2 << 10, 20),
    (1 << 10, 32),
];

/// Average bytes of one `Name xcontacty, ` directory entry.
const ENTRY_BYTES: usize = 20;

/// Documents compared mapping by mapping against the naive baseline, taken
/// from the smallest: it backtracks over every run of the eVA, one stack
/// frame per document byte.
const NAIVE_SAMPLE: usize = 4;
const NAIVE_MAX_BYTES: usize = 1536;

/// The paper's claims as ratios: building the DAG costs the same per byte on
/// a 256 kB document as on a 1 kB one (E1), and each output costs the same
/// on both (E2). "Near 1" allows for cache effects either way.
const RATIO_GATE: (f64, f64) = (0.4, 2.5);

/// Enumerates every mapping of one DAG (Algorithm 2), returning how many.
fn enumerate_all(_: usize, dag: DagView<'_>) -> u64 {
    dag.iter().count() as u64
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, SpannerError> {
    let mut out = Outcome::default();

    let t = Instant::now();
    // Costliest first: workers take documents in order.
    let mut corpus = Vec::new();
    let mut expected = Vec::new();
    let mut bucket_of = Vec::new();
    for (b, &(bytes, docs)) in SPECTRUM.iter().enumerate() {
        // Smoke runs keep the sizes, so the ratio gates see the same
        // spectrum, with one document per size.
        for i in 0..cfg.scaled(docs, 1) {
            let (doc, entries) = contact_directory(
                mix(cfg.seed, (b * 256 + i) as u64),
                (bytes / ENTRY_BYTES).max(1),
            );
            corpus.push(doc);
            expected.push(entries as u64);
            bucket_of.push(b);
        }
    }
    if cfg.inject_wrong {
        expected[0] += 1;
    }
    let bytes = corpus_bytes(&corpus) as u64;
    out.set("bench.gen_s", t.elapsed().as_secs_f64());

    let opts = BatchOptions::threads(cfg.nproc);
    out.threads = format!("evaluate_batch_report at BatchOptions::threads({})", cfg.nproc);
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setups() {
        let mut times = StageTimes::default();
        let compiled = compile_eager(tracer, contact_pattern(), &mut times)?;
        let ((server, first), d) = tracer.span(
            "runtime.server.warm",
            0,
            || {
                let s = SpannerServer::with_options(compiled.spanner, opts);
                s.warm(&corpus[..corpus.len().min(4)]);
                let first = s.evaluate_batch_report(&corpus, enumerate_all);
                (s, first)
            },
            |_| bytes,
        );
        times.warm_ms = d.as_secs_f64() * 1e3;
        let counts: Vec<u64> = first?.into_results().into_iter().map(|r| r.unwrap_or(0)).collect();
        out.check(counts == expected, "first batch enumerates one mapping per directory entry");
        setups.push(times);
        kept = Some((server, compiled.eva));
    }
    let (server, eva) = kept.expect("at least one set-up ran");
    record_setup(&mut out, &setups, cfg.trace);

    let docs = corpus.len() as u64;
    let mut wrong = 0u64;
    let mut errored = 0u64;
    let mut request = |tracer: &Tracer, seq: u64| {
        let (report, d) = tracer.span(
            "runtime.server.evaluate_batch_report",
            seq,
            || server.evaluate_batch_report(&corpus, enumerate_all),
            |_| bytes,
        );
        match report {
            Ok(report) => {
                for (r, &want) in report.results.iter().zip(&expected) {
                    match r {
                        Ok(n) if *n == want => {}
                        Ok(_) => wrong += 1,
                        Err(_) => errored += 1,
                    }
                }
            }
            Err(_) => errored += docs,
        }
        d
    };
    let untraced = Tracer::new(false);
    if cfg.trace {
        let reference = closed_loop(cfg.seconds * 0.3, docs, bytes, |s| request(&untraced, s));
        let traced = closed_loop(cfg.seconds, docs, bytes, |s| request(tracer, s));
        out.set("bench.trace_overhead_pct", (reference.mbps() / traced.mbps() - 1.0) * 100.0);
        traced.record(&mut out, "evaluate_batch_report");
        out.attempted = (reference.requests + traced.requests) * docs;
    } else {
        let measured = closed_loop(cfg.seconds, docs, bytes, |s| request(&untraced, s));
        measured.record(&mut out, "evaluate_batch_report");
        out.attempted = measured.requests * docs;
    }
    out.check(wrong == 0, format!("{wrong} documents enumerated a wrong number of mappings"));
    out.failed += errored;
    out.attempted += cfg.setups() as u64 * docs;

    // Mapping-for-mapping comparison with the naive baseline.
    let sample: Vec<Document> = corpus
        .iter()
        .rev()
        .filter(|d| d.len() <= NAIVE_MAX_BYTES)
        .take(NAIVE_SAMPLE)
        .cloned()
        .collect();
    out.check(!sample.is_empty(), "the corpus holds documents small enough for the naive baseline");
    let served = server.evaluate_batch_report(&sample, |_, dag| {
        let mut ms = dag.collect_mappings();
        ms.sort();
        ms
    })?;
    for (i, (doc, got)) in sample.iter().zip(served.results).enumerate() {
        let (want, _) = naive_enumerate(&eva, doc);
        out.check(
            got.as_ref().is_ok_and(|g| *g == want),
            format!("sampled document {i} ({} bytes) matches the naive baseline", doc.len()),
        );
    }
    out.attempted += sample.len() as u64;

    if cfg.trace {
        probe_layers(cfg, tracer, &server, &corpus, &bucket_of, &mut out);
        slp_probes::probe(cfg, tracer, &mut out)?;
    }
    Ok(out)
}

/// Build and enumeration cost of one probe round, summed per size bucket.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    bytes: f64,
    build_ns: f64,
    enum_ns: f64,
    outputs: f64,
    cells: f64,
}

impl Cost {
    fn add(&mut self, other: &Cost) {
        self.bytes += other.bytes;
        self.build_ns += other.build_ns;
        self.enum_ns += other.enum_ns;
        self.outputs += other.outputs;
        self.cells += other.cells;
    }
}

/// Single-threaded probes of DAG building, enumeration, counting and the
/// batch runtime's own overhead.
fn probe_layers(
    cfg: &Config,
    tracer: &Tracer,
    server: &SpannerServer,
    corpus: &[Document],
    bucket_of: &[usize],
    out: &mut Outcome,
) {
    let rounds = cfg.scaled(5, 2) as u64;
    let spanner = server.spanner();
    let mut evaluator = Evaluator::new();
    let largest = 0;
    let smallest = SPECTRUM.len() - 1;
    let mut per_round: Vec<[Cost; 3]> = Vec::new();
    for round in 0..rounds {
        // [whole corpus, largest bucket, smallest bucket]
        let mut costs = [Cost::default(); 3];
        for (doc, &b) in corpus.iter().zip(bucket_of) {
            let ev = &mut evaluator;
            let (view, build) = tracer.span(
                "core.spanner.evaluate_with",
                round,
                move || spanner.evaluate_with(ev, doc),
                |_| doc.len() as u64,
            );
            let cells = view.num_cells() as f64;
            let (n, walk) =
                tracer.span("core.enumerate.iter", round, || view.iter().count(), |n| *n as u64);
            let c = Cost {
                bytes: doc.len() as f64,
                build_ns: build.as_nanos() as f64,
                enum_ns: walk.as_nanos() as f64,
                outputs: n as f64,
                cells,
            };
            costs[0].add(&c);
            if b == largest {
                costs[1].add(&c);
            }
            if b == smallest {
                costs[2].add(&c);
            }
        }
        per_round.push(costs);
    }
    let med = |f: &dyn Fn(&[Cost; 3]) -> f64| median(&per_round.iter().map(f).collect::<Vec<_>>());
    let linearity = med(&|c| (c[1].build_ns / c[1].bytes) / (c[2].build_ns / c[2].bytes));
    let delay = med(&|c| (c[1].enum_ns / c[1].outputs) / (c[2].enum_ns / c[2].outputs));
    out.set("core.enumerate.build_ns_per_byte", med(&|c| c[0].build_ns / c[0].bytes));
    out.set("core.enumerate.ns_per_output", med(&|c| c[0].enum_ns / c[0].outputs));
    out.set("core.enumerate.cells_per_kb", per_round[0][0].cells / (per_round[0][0].bytes / 1e3));
    out.set("core.enumerate.outputs", per_round[0][0].outputs);
    out.set("core.enumerate.linearity_ratio", linearity);
    out.set("core.enumerate.delay_ratio", delay);
    let (lo, hi) = RATIO_GATE;
    out.gates.push(Gate { metric: "core.enumerate.linearity_ratio", value: linearity, lo, hi });
    out.gates.push(Gate { metric: "core.enumerate.delay_ratio", value: delay, lo, hi });
    let engine_ns = med(&|c| c[0].build_ns + c[0].enum_ns);

    let mut cache: CountCache<u64> = CountCache::new();
    let total: usize = corpus.iter().map(Document::len).sum();
    let count_ns = time_rounds(
        tracer,
        "core.spanner.count_with",
        rounds as usize,
        corpus,
        |d| d.len() as u64,
        |d| spanner.count_with(&mut cache, d).ok(),
    );
    out.set("core.count.ns_per_byte.dense", count_ns / total as f64);

    let single = SpannerServer::with_options(spanner.clone(), BatchOptions::threads(1));
    let _ = single.evaluate_batch_report(corpus, enumerate_all);
    let batch_ns = median_of(rounds as usize, |round| {
        let (r, d) = tracer.span(
            "runtime.server.evaluate_batch_report",
            round,
            || single.evaluate_batch_report(corpus, enumerate_all),
            |_| total as u64,
        );
        black_box(r.is_ok());
        d.as_nanos() as f64
    });
    out.set("runtime.batch.overhead_pct", (batch_ns / engine_ns - 1.0) * 100.0);
    out.set("runtime.pool.engines_created", server.engines_created().0 as f64);
}
