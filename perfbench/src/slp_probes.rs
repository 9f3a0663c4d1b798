//! Single-threaded probes of grammar-aware counting: the digit-run spanner
//! over SLP-compressed, highly repetitive logs, composed through a warm
//! `SlpEvaluator` and, as E16's baseline, counted after decompression.
//!
//! They run on `dense-extract`'s traced run. A closed-loop `slp-count`
//! workload through `BatchSpanner::count_slp_batch` was dropped from the
//! benchmark: each call builds its pools and grammar memos afresh, and that
//! allocation-bound work swung by up to 0.3 of its median between runs on a
//! shared host, beyond the largest regression bound a metric may have.

use std::hint::black_box;
use std::time::Instant;

use spanners::regex::compile;
use spanners::runtime::{BatchOptions, BatchSpanner};
use spanners::workloads::{digit_runs_pattern, repetitive_log_corpus, SlpBuilder};
use spanners::{CountCache, Slp, SlpEvaluator, SpannerError};

use crate::density_probes;
use crate::harness::{mix, time_rounds, Config};
use crate::metrics::{Gate, Outcome};
use crate::reference::digit_run_count;
use crate::trace::Tracer;

/// E16's expectation: on a corpus compressible 20× or more, warm
/// grammar-aware counting beats decompress-then-count at least 5×.
const VS_DECOMPRESS_GATE: (f64, f64) = (5.0, 1e9);

/// Checks grammar-aware counting against the closed form, then measures
/// it; also runs the scanner and per-density counter probes, which share
/// the digit-run spanner.
pub fn probe(cfg: &Config, tracer: &Tracer, out: &mut Outcome) -> Result<(), SpannerError> {
    let docs = cfg.scaled(32, 8);
    let lines = cfg.scaled(2000, 1000);
    // Generation and grammar building are the benchmark's own cost.
    let t = Instant::now();
    let raw = repetitive_log_corpus(mix(cfg.seed, 0x51), docs, lines);
    let slps = SlpBuilder::new().build_corpus(&raw)?;
    let gen_s = out.metrics.get("bench.gen_s").copied().unwrap_or(0.0);
    out.set("bench.gen_s", gen_s + t.elapsed().as_secs_f64());
    let symbols: usize = slps.iter().map(|s| s.sequence().len()).sum();
    out.notes.push(format!(
        "SLP probe: {docs} documents, {} raw bytes, {symbols} sequence symbols over {} shared rules",
        slps.iter().map(Slp::len).sum::<u64>(),
        slps.first().map_or(0, |s| s.rules().num_rules())
    ));

    let spanner = compile(digit_runs_pattern())?;
    let expected: Vec<u64> = raw.iter().map(|d| digit_run_count(d.bytes())).collect();
    let pooled = spanner.count_slp_batch(&slps, &BatchOptions::threads(cfg.nproc))?;
    out.check(pooled == expected, "count_slp_batch equals the digit-run closed form");
    let mut cache: CountCache<u64> = CountCache::new();
    let bytes: Result<Vec<u64>, SpannerError> =
        slps.iter().map(|s| spanner.count_with(&mut cache, &s.decompress())).collect();
    out.check(bytes? == expected, "count_with on the decompressed documents agrees");
    out.attempted += 2 * slps.len() as u64;

    let rounds = cfg.scaled(5, 2);
    let mut evaluator = SlpEvaluator::new();
    for slp in &slps {
        black_box(spanner.count_slp_with(&mut evaluator, slp).ok());
    }
    let grammar_ns = time_rounds(
        tracer,
        "core.spanner.count_slp_with",
        rounds,
        &slps,
        |s| s.sequence().len() as u64,
        |s| spanner.count_slp_with(&mut evaluator, s).ok(),
    );
    out.set("core.slp.ns_per_symbol", grammar_ns / symbols as f64);

    let decompress_ns =
        time_rounds(tracer, "core.slp.decompress+count_with", rounds, &slps, Slp::len, |s| {
            spanner.count_with(&mut cache, &s.decompress()).ok()
        });
    let ratio = decompress_ns / grammar_ns;
    out.set("core.slp.vs_decompress_ratio", ratio);
    let (lo, hi) = VS_DECOMPRESS_GATE;
    out.gates.push(Gate { metric: "core.slp.vs_decompress_ratio", value: ratio, lo, hi });

    density_probes::probe(cfg, tracer, &spanner, out);
    Ok(())
}
