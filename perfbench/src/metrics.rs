//! The metric catalogue and the per-run outcome every workload returns.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every [`END_TO_END`] metric, a
//! traced run every [`PER_LAYER`] metric, each by name with its unit. A
//! test checks the tables against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (name, unit): what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mbps", "MB/s"),
    ("sustained_docs_s", "docs/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), named `<layer>.<quantity>`, then three
/// end-to-end figures reported without a regression bound: the failure
/// fraction, and the request latency median and tail, whose spread between
/// runs on a shared host exceeds any bound a regression check may use.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("regex.compile_ms", "ms"),
    ("automata.eva_ms", "ms"),
    ("core.spanner.from_eva_ms", "ms"),
    ("runtime.server.warm_ms", "ms"),
    ("core.byteclass.scan_gbps", "GB/s"),
    ("core.count.ns_per_byte.d0000", "ns/B"),
    ("core.count.ns_per_byte.d0010", "ns/B"),
    ("core.count.ns_per_byte.d0100", "ns/B"),
    ("core.count.ns_per_byte.d1000", "ns/B"),
    ("core.count.scan_share", "ratio"),
    ("core.count.ns_per_byte.dense", "ns/B"),
    ("core.enumerate.build_ns_per_byte", "ns/B"),
    ("core.enumerate.ns_per_output", "ns"),
    ("core.enumerate.cells_per_kb", "cells/kB"),
    ("core.enumerate.outputs", "count"),
    ("core.enumerate.linearity_ratio", "ratio"),
    ("core.enumerate.delay_ratio", "ratio"),
    ("runtime.batch.overhead_pct", "%"),
    ("runtime.pool.engines_created", "count"),
    ("runtime.streaming.submit_us_p99", "us"),
    ("runtime.streaming.docs_per_batch", "docs"),
    ("runtime.streaming.backlog_max", "docs"),
    ("runtime.streaming.delta_states", "count"),
    ("runtime.streaming.promotions", "count"),
    ("runtime.multi.shared_pass_ns_per_byte", "ns/B"),
    ("runtime.multi.demux_share", "ratio"),
    ("runtime.admission.admitted", "count"),
    ("runtime.admission.rejected", "count"),
    ("core.limits.governor_sheds", "count"),
    ("bench.generator_lag_ms_p99", "ms"),
    ("core.slp.ns_per_symbol", "ns"),
    ("core.slp.vs_decompress_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.gen_s", "s"),
    ("failed_frac", "ratio"),
    ("ticket_p50_ms", "ms"),
    ("ticket_p99_ms", "ms"),
];

/// A paper claim checked as a number: `lo <= value <= hi`.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The per-layer metric the gate reads.
    pub metric: &'static str,
    /// Measured value.
    pub value: f64,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Gate {
    /// Whether the value lies within the gate.
    pub fn passed(&self) -> bool {
        self.value.is_finite() && self.lo <= self.value && self.value <= self.hi
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (documents or tickets).
    pub attempted: u64,
    /// Operations refused, expired, errored or answered wrongly.
    pub failed: u64,
    /// Of `failed`, the operations whose output disagreed with the
    /// reference (or reference checks that failed outright).
    pub wrong: u64,
    /// Measured metrics by name (values in the catalogue's units).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Paper-claim gates evaluated by this run.
    pub gates: Vec<Gate>,
    /// Human-readable lines: sample counts, tail levels, check results.
    pub notes: Vec<String>,
    /// Worker and thread counts the workload used.
    pub threads: String,
}

impl Outcome {
    /// Records a metric (must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a failed reference check (counts as one wrong operation).
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("check ok: {what}"));
        } else {
            self.failed += 1;
            self.wrong += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Whether every output matched its reference and every gate passed.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.gates.iter().all(Gate::passed)
    }

    /// The metrics a run with tracing `trace` prints: the whole catalogue,
    /// with layers this workload leaves untouched reported as 0.
    pub fn printed(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table.iter().map(|&(n, u)| (n, u, self.metrics.get(n).copied().unwrap_or(0.0))).collect()
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.printed(trace).into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value));
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number for `v` with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal for `s`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
