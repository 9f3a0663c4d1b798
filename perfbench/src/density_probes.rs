//! Single-threaded probes of the byte scanner and the Algorithm 3 counter
//! on long documents where matches are rare: `sparse_match_text` at 0, 10,
//! 100 and 1000 digits per 10 000 bytes, counted by the digit-run spanner.
//!
//! They run on `dense-extract`'s traced run, after the SLP probes that
//! compile the same spanner. A closed-loop `sparse-count` workload of their
//! own was dropped from the benchmark:
//! scanning at gigabytes per second is bound by memory throughput, which on
//! a shared host swings by a third from run to run, beyond any regression
//! bound it could be given.

use std::time::Instant;

use spanners::workloads::sparse_match_text;
use spanners::{CompiledSpanner, CountCache, Document};

use crate::harness::{interesting_positions, mix, scan_mask, time_rounds, Config};
use crate::metrics::Outcome;
use crate::reference::digit_run_count;
use crate::trace::Tracer;

/// Match densities, in digits per 10 000 bytes, and the metric of each.
const DENSITIES: [(usize, &str); 4] = [
    (0, "core.count.ns_per_byte.d0000"),
    (10, "core.count.ns_per_byte.d0010"),
    (100, "core.count.ns_per_byte.d0100"),
    (1000, "core.count.ns_per_byte.d1000"),
];

/// Documents per density, of `DOC_BYTES` each.
const DOCS_PER_DENSITY: usize = 2;
const DOC_BYTES: usize = 512 << 10;

/// Measures the counter per density and the scanner over all densities;
/// checks every count against the closed form first.
pub fn probe(cfg: &Config, tracer: &Tracer, spanner: &CompiledSpanner, out: &mut Outcome) {
    let len = cfg.scaled(DOC_BYTES, 16 << 10);
    let t = Instant::now();
    let buckets: Vec<Vec<Document>> = (0..DENSITIES.len())
        .map(|k| {
            (0..DOCS_PER_DENSITY)
                .map(|i| sparse_match_text(mix(cfg.seed, (k * 64 + i) as u64), len, DENSITIES[k].0))
                .collect()
        })
        .collect();
    let gen_s = out.metrics.get("bench.gen_s").copied().unwrap_or(0.0);
    out.set("bench.gen_s", gen_s + t.elapsed().as_secs_f64());

    let mut cache: CountCache<u64> = CountCache::new();
    let all: Vec<&Document> = buckets.iter().flatten().collect();
    let agree = all
        .iter()
        .all(|d| spanner.count_with(&mut cache, d).ok() == Some(digit_run_count(d.bytes())));
    out.check(agree, "count_with on sparse documents equals the digit-run closed form");
    out.attempted += all.len() as u64;

    let rounds = cfg.scaled(5, 2);
    let mut count_ns_total = 0.0;
    for (docs, &(_, metric)) in buckets.iter().zip(&DENSITIES) {
        let bytes: usize = docs.iter().map(Document::len).sum();
        let ns = time_rounds(
            tracer,
            "core.spanner.count_with",
            rounds,
            docs,
            |d| d.len() as u64,
            |d| spanner.count_with(&mut cache, d).ok(),
        );
        count_ns_total += ns;
        out.set(metric, ns / bytes as f64);
    }

    let det = spanner.eager_automaton().expect("the digit-run spanner compiles eagerly");
    let mask = scan_mask(det, b'a');
    let total: usize = all.iter().map(|d| d.len()).sum();
    let scan = time_rounds(
        tracer,
        "core.byteclass.find_next_interesting",
        rounds,
        &all,
        |d| d.len() as u64,
        |d| interesting_positions(d.bytes(), &mask),
    );
    out.set("core.byteclass.scan_gbps", total as f64 / scan);
    out.set("core.count.scan_share", scan / count_ns_total);
}
