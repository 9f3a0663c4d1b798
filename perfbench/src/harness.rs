//! Pieces every workload shares: the run configuration, the set-up chain
//! that compiles a pattern layer by layer, and the closed request loop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use spanners::automata::{determinize, sequentialize, trim, va_to_eva, CompileOptions};
use spanners::core::byteclass::{find_next_interesting, InterestMask};
use spanners::core::DetSeva;
use spanners::regex::{parse, regex_to_va};
use spanners::{CompiledSpanner, EnginePolicy, Eva, SpannerError};

use crate::metrics::Outcome;
use crate::stats::{median, Tail};
use crate::trace::Tracer;

/// One benchmark run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// How long the timed part of the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and few repetitions, for the benchmark's own tests.
    pub smoke: bool,
    /// Corrupt one expected output, to prove the checks can fail.
    pub inject_wrong: bool,
    /// Threads the machine offers (`nproc`); every workload sizes its
    /// load to this.
    pub nproc: usize,
}

impl Config {
    /// How many times a run repeats its set-up; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            2
        } else {
            9
        }
    }

    /// Scales a production input size down in smoke mode.
    pub fn scaled(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Wall time of each set-up stage, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Pattern parse and regex-to-VA translation.
    pub regex_ms: f64,
    /// VA to deterministic eVA (sequentialize, translate, determinize, trim).
    pub eva_ms: f64,
    /// eVA to compiled spanner.
    pub from_eva_ms: f64,
    /// Server start and warm-up, up to the first timed request.
    pub warm_ms: f64,
}

impl StageTimes {
    /// Total set-up time in seconds.
    pub fn total_s(&self) -> f64 {
        (self.regex_ms + self.eva_ms + self.from_eva_ms + self.warm_ms) / 1e3
    }
}

/// Records the median of each stage over the repeated set-ups: `setup_s`
/// always, the per-stage metrics on traced runs.
pub fn record_setup(out: &mut Outcome, runs: &[StageTimes], trace: bool) {
    let pick = |f: fn(&StageTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", pick(StageTimes::total_s));
    if trace {
        out.set("regex.compile_ms", pick(|s| s.regex_ms));
        out.set("automata.eva_ms", pick(|s| s.eva_ms));
        out.set("core.spanner.from_eva_ms", pick(|s| s.from_eva_ms));
        out.set("runtime.server.warm_ms", pick(|s| s.warm_ms));
    }
    out.notes.push(format!(
        "setup: median of {} set-ups, {:.4} s",
        runs.len(),
        pick(StageTimes::total_s)
    ));
}

/// A pattern compiled through the public pipeline, stage by stage.
#[derive(Debug)]
pub struct Compiled {
    /// The eager spanner under test.
    pub spanner: CompiledSpanner,
    /// The (possibly nondeterministic) eVA the spanner was determinized
    /// from — the input of the naive baseline.
    pub eva: Eva,
}

/// Compiles `pattern` to an eager spanner, timing each layer: `regex`
/// (parse, regex to VA), `automata` (to a deterministic trimmed eVA) and
/// `core.spanner` (eVA to compiled spanner).
pub fn compile_eager(
    tracer: &Tracer,
    pattern: &str,
    times: &mut StageTimes,
) -> Result<Compiled, SpannerError> {
    let (va, d) = tracer.span(
        "regex.compile",
        0,
        || -> Result<_, SpannerError> { regex_to_va(&parse(pattern)?) },
        |_| pattern.len() as u64,
    );
    times.regex_ms = d.as_secs_f64() * 1e3;
    let va = va?;
    let (evas, d) = tracer.span(
        "automata.eva",
        0,
        || -> Result<_, SpannerError> {
            let opts = CompileOptions::default();
            let eva = if va.is_sequential() {
                va_to_eva(&va)?
            } else {
                va_to_eva(&sequentialize(&va, opts)?)?
            };
            let det = trim(&determinize(&eva, opts.max_states)?)?;
            Ok((eva, det))
        },
        |_| 0,
    );
    times.eva_ms = d.as_secs_f64() * 1e3;
    let (eva, det) = evas?;
    let (spanner, d) = tracer.span(
        "core.spanner.from_eva",
        0,
        || CompiledSpanner::from_eva_with(&det, EnginePolicy::Eager),
        |_| det.num_states() as u64,
    );
    times.from_eva_ms = d.as_secs_f64() * 1e3;
    Ok(Compiled { spanner: spanner?, eva })
}

/// One window of a closed loop.
#[derive(Debug, Default)]
struct Window {
    secs: f64,
    latencies_ms: Vec<f64>,
}

/// What a closed request loop measured, window by window.
#[derive(Debug)]
pub struct ClosedLoop {
    windows: Vec<Window>,
    docs: u64,
    bytes: u64,
    /// Requests issued.
    pub requests: u64,
}

/// Issues `request` back to back for `seconds` (a closed loop with one
/// client: the next request goes out when the previous one returned).
/// Each request processes `docs` documents totalling `bytes` bytes.
///
/// The loop is cut into windows of about a second. Throughput and the
/// median latency are taken per window and reported as the median over
/// windows, so contention from outside the process that comes and goes
/// moves a few windows, not the result.
pub fn closed_loop(
    seconds: f64,
    docs: u64,
    bytes: u64,
    mut request: impl FnMut(u64) -> Duration,
) -> ClosedLoop {
    let count = (seconds as usize).max(5);
    let length = Duration::from_secs_f64(seconds / count as f64);
    let mut out = ClosedLoop { windows: Vec::with_capacity(count), docs, bytes, requests: 0 };
    for _ in 0..count {
        let start = Instant::now();
        let mut w = Window::default();
        while start.elapsed() < length || w.latencies_ms.is_empty() {
            w.latencies_ms.push(request(out.requests).as_secs_f64() * 1e3);
            out.requests += 1;
        }
        w.secs = start.elapsed().as_secs_f64();
        out.windows.push(w);
    }
    out
}

impl ClosedLoop {
    fn per_window(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    /// Median window throughput, in MB/s.
    pub fn mbps(&self) -> f64 {
        self.per_window(|w| (w.latencies_ms.len() as u64 * self.bytes) as f64 / w.secs / 1e6)
    }

    /// Records what the closed loop measured: throughput, documents per
    /// second and the median latency per window (each the median over
    /// windows), and the latency tail over every request.
    pub fn record(&self, out: &mut Outcome, what: &str) {
        out.set("throughput_mbps", self.mbps());
        out.set(
            "sustained_docs_s",
            self.per_window(|w| (w.latencies_ms.len() as u64 * self.docs) as f64 / w.secs),
        );
        out.set("ticket_p50_ms", self.per_window(|w| median(&w.latencies_ms)));
        let all: Vec<f64> = self.windows.iter().flat_map(|w| w.latencies_ms.clone()).collect();
        let tail = Tail::of(&all);
        out.set("ticket_p99_ms", tail.tail);
        out.notes.push(tail.describe(&format!("{what} latency per request"), "ms"));
        let mbps: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                format!("{:.1}", (w.latencies_ms.len() as u64 * self.bytes) as f64 / w.secs / 1e6)
            })
            .collect();
        out.notes.push(format!(
            "{} requests of {} documents; MB/s per window: {}",
            self.requests,
            self.docs,
            mbps.join(" ")
        ));
    }
}

/// Runs `probe` `rounds` times and returns the median of its results.
pub fn median_of(rounds: usize, mut probe: impl FnMut(u64) -> f64) -> f64 {
    let values: Vec<f64> = (0..rounds as u64).map(&mut probe).collect();
    median(&values)
}

/// The median over `rounds` of the summed time of `call` over `items`, in
/// nanoseconds, with one `name` span per call carrying `work(item)`.
pub fn time_rounds<I, T>(
    tracer: &Tracer,
    name: &'static str,
    rounds: usize,
    items: &[I],
    work: impl Fn(&I) -> u64,
    mut call: impl FnMut(&I) -> T,
) -> f64 {
    median_of(rounds, |round| {
        items
            .iter()
            .map(|item| {
                let (out, d) = tracer.span(name, round, || call(item), |_| work(item));
                black_box(out);
                d.as_nanos() as f64
            })
            .sum()
    })
}

/// Derives an independent sub-seed (splitmix64 finalizer).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The interest mask of the state the skip-scan sweep rests in between
/// matches: the state one `noise` byte past the initial state. The initial
/// state itself offers marker transitions before every byte, so its own
/// `skip_mask` skips nothing.
pub fn scan_mask(det: &DetSeva, noise: u8) -> InterestMask {
    let q = det.step_letter(det.initial(), noise).unwrap_or(det.initial());
    let mut mask = InterestMask::default();
    det.partition().interest_mask_into(&det.skip_mask(q), &mut mask);
    mask
}

/// Interesting positions of `bytes` under `mask`, found by the byte scanner
/// alone.
pub fn interesting_positions(bytes: &[u8], mask: &InterestMask) -> u64 {
    let mut hits = 0u64;
    let mut pos = 0;
    while let Some(i) = find_next_interesting(bytes, pos, mask) {
        hits += 1;
        pos = i + 1;
    }
    hits
}
