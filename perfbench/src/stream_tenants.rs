//! `stream-tenants`: an open loop of seeded Poisson arrivals into a governed
//! multi-tenant streaming server. Thirty-two token-anchored keyword tenants
//! share two union automata (shards); every document is evaluated once per
//! shard and demultiplexed per tenant. The tenants whose keywords occur
//! slide phase by phase through the document stream, so the lazy caches
//! keep interning subset states past their frozen snapshots and re-freezing
//! promotes new generations while the load runs.
//!
//! This is the only workload that exercises the ingress queue, linger and
//! micro-batching, shard fan-out and demultiplexing, admission, the memory
//! governor and the lazy cache's write path.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spanners::automata::va_to_eva;
use spanners::regex::{parse, regex_to_va};
use spanners::runtime::{
    AdmissionController, BreakerPolicy, Governance, MultiSpanner, MultiStreamingServer,
    MultiTicket, StreamingOptions, StreamingStats, TenantQuota, TenantQuotas,
};
use spanners::workloads::rng::StdRng;
use spanners::workloads::{keyword_token_pattern, tenant_corpus, tenant_keyword_workload};
use spanners::{Document, Eva, Mapping, MemoryGovernor, SpannerError};

use crate::harness::{mix, record_setup, Config, StageTimes};
use crate::metrics::Outcome;
use crate::reference::TokenOracle;
use crate::stats::{median, quantile, Tail};
use crate::trace::Tracer;

/// Tenants, and keywords in each tenant's dictionary.
const TENANTS: usize = 32;
const KEYWORDS_PER_TENANT: usize = 3;

/// Offered rates in documents per second, lowest first, with each step's
/// share of the measured time. Latency is reported at the middle rate,
/// about a tenth of what two workers serve, so queueing does not amplify
/// contention from outside the process into the result; the last rate is
/// above capacity, so its completion rate measures capacity.
const RATES: [f64; 3] = [100.0, 200.0, 4000.0];
const STEP_SHARE: [f64; 3] = [0.1, 0.5, 0.4];
const MIDDLE: usize = 1;

/// The middle step's latency is taken per quarter of the step and reported
/// as the median over quarters (see `Step::latency_ms`).
const QUARTERS: usize = 4;

/// The latency limit a step's tail must meet to count as sustained.
const TAIL_LIMIT_MS: f64 = 100.0;

/// Words per document, as (words, documents in every 64): heavy-tailed,
/// from about 250 bytes to about 8 kB.
const WORD_SPECTRUM: [(usize, usize); 6] =
    [(40, 24), (80, 16), (160, 12), (320, 6), (640, 4), (1280, 2)];

/// Documents generated; the arrival process cycles through them in order.
const POOL_DOCS: usize = 4096;
/// Phases over the pool; each draws keywords from `PHASE_TENANTS`
/// consecutive tenants, the window sliding by two tenants per phase.
const PHASES: usize = 16;
const PHASE_TENANTS: usize = 8;

/// Documents pushed through each fresh server before timing starts.
const WARM_DOCS: usize = 64;

/// Every `SAMPLE_EVERY`-th ticket is kept and compared mapping by mapping
/// with `MultiSpanner::evaluate` after the run.
const SAMPLE_EVERY: u64 = 61;

/// Most arrivals sent back to back before outstanding tickets are polled
/// again, so a generator running behind schedule still observes
/// completions promptly.
const MAX_BURST: usize = 8;

/// How often the generator polls outstanding tickets (at least).
const POLL: Duration = Duration::from_micros(200);

/// The generated inputs.
struct Inputs {
    /// Tenant ids and keyword dictionaries.
    tenants: Vec<(String, Vec<String>)>,
    docs: Vec<Document>,
    /// The tenant each document is submitted on behalf of.
    owner: Vec<usize>,
    /// Expected mapping count per document per tenant.
    expected: Vec<Vec<u32>>,
}

fn generate(cfg: &Config) -> Result<Inputs, SpannerError> {
    let workload = tenant_keyword_workload(mix(cfg.seed, 0x7E), TENANTS, KEYWORDS_PER_TENANT)?;
    let pool = cfg.scaled(POOL_DOCS, 256);
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 0x5B));
    let mut docs = Vec::with_capacity(pool);
    let mut owner = Vec::with_capacity(pool);
    let windows: Vec<Vec<_>> = (0..PHASES)
        .map(|p| (0..PHASE_TENANTS).map(|k| workload[(2 * p + k) % TENANTS].clone()).collect())
        .collect();
    let mut cycle: Vec<usize> =
        WORD_SPECTRUM.iter().flat_map(|&(words, n)| std::iter::repeat_n(words, n)).collect();
    for i in 0..pool {
        if i % cycle.len() == 0 {
            // Seeded shuffle of the size cycle: the shape is fixed, the
            // order is not.
            for j in (1..cycle.len()).rev() {
                cycle.swap(j, rng.gen_range(0..j + 1));
            }
        }
        let words = cycle[i % cycle.len()];
        let words = if cfg.smoke { words / 4 + 1 } else { words };
        let phase = i * PHASES / pool;
        let window = &windows[phase];
        docs.push(tenant_corpus(mix(cfg.seed, i as u64), window, 1, words).remove(0));
        owner.push((2 * phase + rng.gen_range(0..PHASE_TENANTS)) % TENANTS);
    }
    let tenants: Vec<(String, Vec<String>)> =
        workload.into_iter().map(|t| (t.id, t.keywords)).collect();
    let dictionaries: Vec<Vec<String>> = tenants.iter().map(|(_, k)| k.clone()).collect();
    let oracle = TokenOracle::new(&dictionaries);
    let mut expected: Vec<Vec<u32>> = docs.iter().map(|d| oracle.counts(d.bytes())).collect();
    if cfg.inject_wrong {
        expected[0][owner[0]] += 1;
    }
    Ok(Inputs { tenants, docs, owner, expected })
}

/// Compiles every tenant (regex, then eVA), the shared shards, and starts
/// a governed server, warming it with the first documents of the stream.
fn set_up(
    cfg: &Config,
    tracer: &Tracer,
    inputs: &Inputs,
    times: &mut StageTimes,
) -> Result<(MultiStreamingServer, Arc<AdmissionController>, Arc<MemoryGovernor>), SpannerError> {
    let mut vas = Vec::with_capacity(inputs.tenants.len());
    let (r, d) = tracer.span(
        "regex.compile",
        0,
        || -> Result<(), SpannerError> {
            for (_, keywords) in &inputs.tenants {
                let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
                vas.push(regex_to_va(&parse(&keyword_token_pattern(&refs))?)?);
            }
            Ok(())
        },
        |_| inputs.tenants.len() as u64,
    );
    r?;
    times.regex_ms = d.as_secs_f64() * 1e3;
    let (evas, d) = tracer.span(
        "automata.va_to_eva",
        0,
        || vas.iter().map(va_to_eva).collect::<Result<Vec<Eva>, _>>(),
        |_| vas.len() as u64,
    );
    times.eva_ms = d.as_secs_f64() * 1e3;
    let evas = evas?;
    let (multi, d) = tracer.span(
        "runtime.multi.compile",
        0,
        || {
            let refs: Vec<(&str, &Eva)> =
                inputs.tenants.iter().map(|(id, _)| id.as_str()).zip(&evas).collect();
            MultiSpanner::compile(&refs)
        },
        |_| evas.len() as u64,
    );
    times.from_eva_ms = d.as_secs_f64() * 1e3;
    let multi = multi?;

    let (started, d) = tracer.span(
        "runtime.multi.start_governed",
        0,
        || -> Result<_, SpannerError> {
            let shards = multi.num_shards();
            let opts = StreamingOptions::workers((cfg.nproc / shards).max(1));
            let quota = TenantQuota::unlimited()
                .with_max_in_flight_docs(1 << 16)
                .with_max_queued_bytes(1 << 30);
            let admission = Arc::new(AdmissionController::new(
                TenantQuotas::uniform(quota),
                Some(BreakerPolicy::default()),
            ));
            let governor = Arc::new(MemoryGovernor::new(1 << 30));
            let governance = Governance::none()
                .with_admission(Arc::clone(&admission))
                .with_governor(Arc::clone(&governor));
            let server = MultiStreamingServer::start_governed(multi, opts, governance)?;
            let warm = cfg.scaled(WARM_DOCS, 8).min(inputs.docs.len());
            let tickets = inputs.docs[..warm]
                .iter()
                .zip(&inputs.owner)
                .map(|(doc, &t)| server.submit_for(&inputs.tenants[t].0, doc, None))
                .collect::<Result<Vec<_>, _>>()?;
            for t in tickets {
                t.wait();
            }
            Ok((server, admission, governor))
        },
        |_| 0,
    );
    times.warm_ms = d.as_secs_f64() * 1e3;
    started
}

/// One fixed-rate step of the open loop.
#[derive(Debug, Default)]
struct Step {
    rate: f64,
    secs: f64,
    sent: u64,
    /// Latency from each ticket's scheduled send to its observed completion.
    latencies_ms: Vec<f64>,
    /// Each latency's scheduled send, in seconds into the step.
    scheduled_s: Vec<f64>,
    /// How late each send left against its schedule.
    lag_ms: Vec<f64>,
    /// Time blocked in `submit_for`.
    submit_us: Vec<f64>,
    /// (seconds into the step, tickets submitted but unresolved).
    backlog: Vec<(f64, usize)>,
    /// Bytes submitted.
    bytes_sent: u64,
    /// Arrivals scheduled within the step but never sent (the generator
    /// was held back by the full ingress queue); not operations.
    dropped: u64,
    /// Documents the server finished between the step's start and end.
    done_in_step: u64,
    /// (seconds into the step, documents the server had finished).
    served: Vec<(f64, u64)>,
    failed: u64,
    wrong: u64,
}

impl Step {
    fn tail(&self) -> Tail {
        Tail::of(&self.latencies_ms)
    }

    /// The latency summary of each quarter of the step, by scheduled send.
    fn quarters(&self) -> Vec<Tail> {
        let mut parts = vec![Vec::new(); QUARTERS];
        for (&t, &l) in self.scheduled_s.iter().zip(&self.latencies_ms) {
            parts[((t / self.secs * QUARTERS as f64) as usize).min(QUARTERS - 1)].push(l);
        }
        parts.iter().map(|p| Tail::of(p)).collect()
    }

    /// Median and tail latency: each the median over the step's quarters,
    /// so contention from outside the process that hits one quarter moves
    /// one quarter, not the result.
    fn latency_ms(&self) -> (f64, f64) {
        let q = self.quarters();
        (
            median(&q.iter().map(|q| q.p50).collect::<Vec<_>>()),
            median(&q.iter().map(|q| q.tail).collect::<Vec<_>>()),
        )
    }

    /// Whether unresolved tickets grew over the step: the mean backlog of
    /// its last third against its first third.
    fn backlog_grew(&self) -> bool {
        let third = self.secs / 3.0;
        let mean = |lo: f64, hi: f64| {
            let v: Vec<f64> = self
                .backlog
                .iter()
                .filter(|(t, _)| *t >= lo && *t < hi)
                .map(|&(_, b)| b as f64)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        mean(2.0 * third, self.secs) > 2.0 * mean(0.0, third) + 8.0
    }

    fn sustained(&self) -> bool {
        self.failed == 0 && self.latency_ms().1 <= TAIL_LIMIT_MS && !self.backlog_grew()
    }

    fn completion_rate(&self) -> f64 {
        self.done_in_step as f64 / self.secs
    }

    /// Document MB the server finished per second, at the step's mean
    /// document size: the median over windows of about a second, so
    /// contention from outside the process that comes and goes moves a few
    /// windows, not the result.
    fn completion_mbps(&self) -> f64 {
        let windows = (self.secs as usize).max(3);
        let length = self.secs / windows as f64;
        let served_at = |t: f64| {
            self.served.iter().take_while(|(at, _)| *at <= t).last().map_or(0, |&(_, n)| n)
        };
        let rates: Vec<f64> = (0..windows)
            .map(|k| {
                let (a, b) = (k as f64 * length, (k + 1) as f64 * length);
                (served_at(b) - served_at(a)) as f64 / length
            })
            .collect();
        median(&rates) * (self.bytes_sent as f64 / self.sent.max(1) as f64) / 1e6
    }
}

/// An outstanding ticket.
struct Pending {
    ticket: MultiTicket,
    seq: u64,
    doc: usize,
    scheduled: Instant,
}

/// The load generator's state across steps.
struct Generator<'a> {
    server: &'a MultiStreamingServer,
    inputs: &'a Inputs,
    rng: StdRng,
    next_doc: usize,
    seq: u64,
    /// Tickets kept for the mapping-by-mapping check.
    sampled: Vec<(usize, Vec<Vec<Mapping>>)>,
}

impl Generator<'_> {
    /// A seeded exponential inter-arrival gap at `rate` per second.
    fn gap(&mut self, rate: f64) -> Duration {
        let u = (self.rng.gen_range(1u64..(1 << 53)) as f64) / (1u64 << 53) as f64;
        Duration::from_secs_f64(-u.ln() / rate)
    }

    /// Offers `rate` documents per second for `secs`, then waits for the
    /// step's tickets. One thread both sends and observes completions, by
    /// polling every outstanding ticket, so a slow document never hides a
    /// finished one behind it.
    fn step(&mut self, tracer: &Tracer, rate: f64, secs: f64) -> Step {
        let mut st = Step { rate, secs, ..Step::default() };
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let give_up = end + Duration::from_secs(60);
        let mut next_at = start + self.gap(rate);
        let mut outstanding: Vec<Pending> = Vec::new();
        let served_before = self.served();
        let mut served_at_end = None;
        let mut next_poll = start;
        loop {
            let mut now = Instant::now();
            let mut burst = 0;
            // Arrivals still unsent when the step ends are dropped: past
            // capacity the blocking submit holds the generator back, and the
            // step must not outlast its share of the run.
            while next_at <= now && now < end && burst < MAX_BURST {
                burst += 1;
                let doc = self.next_doc % self.inputs.docs.len();
                self.next_doc += 1;
                let tenant = &self.inputs.tenants[self.inputs.owner[doc]].0;
                let body = &self.inputs.docs[doc];
                st.lag_ms.push(now.saturating_duration_since(next_at).as_secs_f64() * 1e3);
                let (submitted, d) = tracer.span(
                    "runtime.multi.submit_for",
                    self.seq,
                    || self.server.submit_for(tenant, body, None),
                    |_| body.len() as u64,
                );
                st.submit_us.push(d.as_secs_f64() * 1e6);
                st.sent += 1;
                st.bytes_sent += body.len() as u64;
                match submitted {
                    Ok(ticket) => {
                        outstanding.push(Pending { ticket, seq: self.seq, doc, scheduled: next_at })
                    }
                    Err(_) => st.failed += 1,
                }
                self.seq += 1;
                next_at += self.gap(rate);
                now = Instant::now();
            }
            if now >= next_poll || now >= end {
                let mut i = 0;
                while i < outstanding.len() {
                    if !outstanding[i].ticket.is_done() {
                        i += 1;
                        continue;
                    }
                    let p = outstanding.swap_remove(i);
                    let done = Instant::now();
                    st.latencies_ms.push(done.duration_since(p.scheduled).as_secs_f64() * 1e3);
                    st.scheduled_s.push(p.scheduled.duration_since(start).as_secs_f64());
                    let bytes = self.inputs.docs[p.doc].len() as u64;
                    tracer.record("runtime.multi.ticket", p.seq, p.scheduled, done, bytes);
                    self.resolve(&mut st, p);
                }
                let at = now.duration_since(start).as_secs_f64();
                st.backlog.push((at, outstanding.len()));
                st.served.push((at, self.served() - served_before));
                // A scan costs about half a microsecond per ticket; past
                // capacity thousands are outstanding, and scanning them
                // back to back would take a core from the server.
                next_poll = now + POLL.max(Duration::from_nanos(500 * outstanding.len() as u64));
            }
            if now >= end && served_at_end.is_none() {
                served_at_end = Some(self.served());
            }
            if now >= end && outstanding.is_empty() {
                break;
            }
            if now >= give_up {
                st.failed += outstanding.len() as u64;
                break;
            }
            let wake = if now < end { next_at.min(next_poll) } else { next_poll };
            if let Some(nap) = wake.checked_duration_since(Instant::now()) {
                std::thread::sleep(nap);
            }
        }
        while next_at < end {
            st.dropped += 1;
            next_at += self.gap(rate);
        }
        st.done_in_step = served_at_end.unwrap_or_else(|| self.served()) - served_before;
        st
    }

    /// Documents every shard has finished (the server's own count).
    fn served(&self) -> u64 {
        self.server.stats().iter().map(|s| s.completed + s.failed).min().unwrap_or(0)
    }

    /// Checks one finished ticket against the token oracle.
    fn resolve(&mut self, st: &mut Step, p: Pending) {
        let results = p.ticket.wait();
        if results.iter().any(Result::is_err) {
            st.failed += 1;
            return;
        }
        let per_tenant: Vec<Vec<Mapping>> =
            results.into_iter().map(|r| r.unwrap_or_default()).collect();
        let counts_ok = per_tenant
            .iter()
            .zip(&self.inputs.expected[p.doc])
            .all(|(got, &want)| got.len() == want as usize);
        if !counts_ok {
            st.failed += 1;
            st.wrong += 1;
        }
        if p.seq.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push((p.doc, per_tenant));
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &Tracer) -> Result<Outcome, SpannerError> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let inputs = generate(cfg)?;
    out.set("bench.gen_s", t.elapsed().as_secs_f64());
    let total_bytes: usize = inputs.docs.iter().map(Document::len).sum();
    out.notes.push(format!(
        "{} tenants, {} documents ({total_bytes} bytes) in {PHASES} phases",
        inputs.tenants.len(),
        inputs.docs.len()
    ));

    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setups() {
        let mut times = StageTimes::default();
        let started = set_up(cfg, tracer, &inputs, &mut times)?;
        setups.push(times);
        if let Some((old, _, _)) = kept.replace(started) {
            old.drain();
        }
    }
    let (server, admission, governor) = kept.expect("at least one set-up ran");
    record_setup(&mut out, &setups, cfg.trace);
    let shards = server.multi().num_shards();
    let workers = (cfg.nproc / shards).max(1);
    out.threads = format!(
        "{shards} shards x {workers} streaming worker(s); 1 generator thread; rates {RATES:?} docs/s"
    );

    let mut generator = Generator {
        server: &server,
        inputs: &inputs,
        rng: StdRng::seed_from_u64(mix(cfg.seed, 0xA1)),
        next_doc: cfg.scaled(WARM_DOCS, 8),
        seq: 0,
        sampled: Vec::new(),
    };
    let untraced = Tracer::new(false);
    let reference = cfg
        .trace
        .then(|| generator.step(&untraced, RATES[MIDDLE], cfg.seconds * STEP_SHARE[MIDDLE] * 0.5));
    let steps: Vec<Step> = RATES
        .iter()
        .zip(STEP_SHARE)
        .map(|(&rate, share)| generator.step(tracer, rate, cfg.seconds * share))
        .collect();
    let sampled = std::mem::take(&mut generator.sampled);

    for (k, s) in steps.iter().enumerate() {
        let tail = s.tail();
        out.notes.push(format!(
            "step {k}: offered {} docs/s for {:.2} s ({} sent, {} unsent), completed {:.1} docs/s, \
             {}, backlog max {}{}, {}",
            s.rate,
            s.secs,
            s.sent,
            s.dropped,
            s.completion_rate(),
            tail.describe("ticket latency", "ms"),
            s.backlog.iter().map(|b| b.1).max().unwrap_or(0),
            if s.backlog_grew() { " (growing)" } else { "" },
            if s.sustained() { "sustained" } else { "not sustained" }
        ));
        out.attempted += s.sent;
        out.failed += s.failed;
        out.wrong += s.wrong;
    }
    if let Some(r) = &reference {
        out.attempted += r.sent;
        out.failed += r.failed;
        out.wrong += r.wrong;
    }
    out.check(
        steps.iter().all(|s| s.wrong == 0),
        "every ticket's per-tenant counts match the token oracle",
    );

    // Mapping-for-mapping check of the sampled tickets.
    let multi = server.multi();
    let mismatched =
        sampled.iter().filter(|(doc, got)| multi.evaluate(&inputs.docs[*doc]) != *got).count();
    out.check(
        mismatched == 0,
        format!(
            "{} sampled tickets equal MultiSpanner::evaluate ({mismatched} differ)",
            sampled.len()
        ),
    );

    let middle = &steps[MIDDLE];
    let (p50, tail) = middle.latency_ms();
    out.set("ticket_p50_ms", p50);
    out.set("ticket_p99_ms", tail);
    for (k, q) in middle.quarters().iter().enumerate() {
        out.notes.push(q.describe(&format!("middle step, quarter {k}"), "ms"));
    }
    if !cfg.trace {
        let over = steps.last().expect("at least one step");
        out.set("throughput_mbps", over.completion_mbps());
        let sustained =
            steps.iter().rev().find(|s| s.sustained()).map_or(0.0, Step::completion_rate);
        out.set("sustained_docs_s", sustained);
    } else {
        out.set("runtime.streaming.submit_us_p99", quantile(&middle.submit_us, 0.99));
        out.set(
            "runtime.streaming.backlog_max",
            middle.backlog.iter().map(|b| b.1).max().unwrap_or(0) as f64,
        );
        out.set("bench.generator_lag_ms_p99", quantile(&middle.lag_ms, 0.99));
        if let Some(r) = &reference {
            out.set("bench.trace_overhead_pct", (p50 / r.latency_ms().0 - 1.0) * 100.0);
        }
        let adm = admission.stats();
        out.set("runtime.admission.admitted", adm.admitted as f64);
        out.set("runtime.admission.rejected", (adm.quota_denials + adm.breaker_denials) as f64);
        let gov = governor.stats();
        out.set("core.limits.governor_sheds", (gov.deltas_shed + gov.memos_shed) as f64);
        probe_shared_pass(cfg, tracer, server.multi(), &inputs.docs, &mut out);
    }

    let stats: Vec<StreamingStats> = server.drain();
    let sum = |f: fn(&StreamingStats) -> u64| stats.iter().map(f).sum::<u64>();
    let batches = sum(|s| s.batches);
    if cfg.trace {
        out.set(
            "runtime.streaming.docs_per_batch",
            sum(|s| s.completed) as f64 / batches.max(1) as f64,
        );
        out.set("runtime.streaming.delta_states", sum(|s| s.delta_states) as f64);
        out.set("runtime.streaming.promotions", sum(|s| s.promotions) as f64);
        out.set("runtime.pool.engines_created", sum(|s| s.engines_created as u64) as f64);
    }
    out.notes.push(format!(
        "streaming: {batches} batches, {} delta states, {} promotions, generation {:?}",
        sum(|s| s.delta_states),
        sum(|s| s.promotions),
        stats.iter().map(|s| s.generation).collect::<Vec<_>>()
    ));
    Ok(out)
}

/// Single-threaded probe of the shared pass: `MultiSpanner::evaluate` per
/// byte, and the share of it spent outside the bare shard evaluations
/// (demultiplexing, renaming and sorting per tenant).
fn probe_shared_pass(
    cfg: &Config,
    tracer: &Tracer,
    multi: &MultiSpanner,
    docs: &[Document],
    out: &mut Outcome,
) {
    let sample: Vec<&Document> =
        docs.iter().step_by(docs.len().div_ceil(cfg.scaled(128, 16))).collect();
    let bytes: usize = sample.iter().map(|d| d.len()).sum();
    let rounds = cfg.scaled(3, 1) as u64;
    let mut shared = Vec::new();
    let mut bare = Vec::new();
    for round in 0..rounds {
        let mut ns = 0.0;
        for doc in &sample {
            let (r, d) = tracer.span(
                "runtime.multi.evaluate",
                round,
                || multi.evaluate(doc),
                |_| doc.len() as u64,
            );
            black_box(r);
            ns += d.as_nanos() as f64;
        }
        shared.push(ns);
        let mut ns = 0.0;
        for doc in &sample {
            for s in 0..multi.num_shards() {
                let (n, d) = tracer.span(
                    "core.spanner.evaluate+iter",
                    round,
                    || multi.shard_spanner(s).evaluate(doc).iter().count(),
                    |_| doc.len() as u64,
                );
                black_box(n);
                ns += d.as_nanos() as f64;
            }
        }
        bare.push(ns);
    }
    let shared = median(&shared);
    out.set("runtime.multi.shared_pass_ns_per_byte", shared / bytes as f64);
    out.set("runtime.multi.demux_share", (shared - median(&bare)) / shared);
}
