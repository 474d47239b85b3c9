//! `vida-perfbench` — the repository benchmark: one workload per process,
//! end-to-end metrics with tracing off (`--trace 0`) or per-layer metrics
//! with a traced run (`--trace 1`), printed as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-hbp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload keeps the defaults users get: mmap'd inputs, cost model
//! and plan optimizer on, and a resident `Engine` whose pool has one
//! worker per core. Each layer is measured from outside, by timing calls
//! into its public functions and reading the counters the engine already
//! returns (`ExecStats`, `CacheManager::stats`, `global_metrics`).
//!
//! `exec.build_ms` is `ExecStats::codegen`: the whole pipeline build
//! (revalidation, plan optimization, column binding, raw parsing on a
//! cache miss, kernel compilation). It is not the `codegen` span, which
//! covers kernel compilation only and reads several times smaller.

mod inputs;
mod oracle;
mod serve;
mod spans;

use inputs::{derive_seed, Inputs};
use serve::{nanos, send_batch, ClientTally};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vida_core::exec::output;
use vida_core::server::ServerStats;
use vida_core::{
    chrome_trace_json, global_metrics, lower, parse, rewrite, CacheManager, CacheStats, CostModel,
    Engine, ExecStats, JitOptions, QueryServer, QueryTrace, ServerConfig, Session, Value,
};
use vida_workload::{generate, generate_append_replay, generate_scan_heavy, WorkloadConfig};

/// Set-ups per `--trace 0` run: one per timed segment, and more until
/// they have taken `SETUP_SECONDS` in all; `setup_s` is their median.
const SEGMENTS: u32 = 3;
const SETUP_SECONDS: f64 = 6.0;
/// Latency samples a timed phase collects at least, so that ten lie above
/// the 90th percentile.
const MIN_SAMPLES: usize = 100;
/// Traced queries written to the Chrome trace file.
const TRACE_FILE_QUERIES: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    WarmHbp,
    RawScan,
    AppendReplay,
}

/// One workload: input size, cache budget, and query batch shape.
struct Workload {
    kind: Kind,
    name: &'static str,
    /// Rows in each input file.
    rows: usize,
    /// Cache budget, bytes.
    budget: usize,
    /// Run the batch once during set-up, so the timed phase starts warm.
    warm_up: bool,
    /// Queries taken per query shape (text with its constants removed).
    per_shape: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::WarmHbp,
        name: "warm-hbp",
        rows: 200_000,
        budget: 64 << 20,
        warm_up: true,
        per_shape: 8,
    },
    Workload {
        kind: Kind::RawScan,
        name: "raw-scan",
        rows: 200_000,
        budget: 4 << 20,
        warm_up: false,
        per_shape: 4,
    },
    Workload {
        kind: Kind::AppendReplay,
        name: "append-replay",
        rows: 200_000,
        budget: 64 << 20,
        warm_up: true,
        per_shape: 4,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} expects a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload '{name}'"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .ok_or("--seconds expects a positive number")?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// The batch of query texts a workload cycles through: a sample of a
/// 4096-query stream that the workload crate generates from the seed.
///
/// Per query shape (the text without its constants), the batch takes
/// the queries at `per_shape` evenly spaced ranks of the shape's
/// constants, and interleaves the shapes in a fixed order. A shape
/// without constants is one text, repeated `per_shape` times. The
/// generators draw their shapes with equal weights, so the batch keeps
/// their shares; each seed draws the same spread of selectivities and
/// result sizes and the same cache access pattern, only with other
/// constants, so a run's cost does not hinge on a few unlucky draws.
fn batch(w: &Workload, seed: u64) -> Vec<String> {
    let config = WorkloadConfig {
        seed: derive_seed(seed, 3),
        queries: 4096,
        locality: 0.8,
        key_space: w.rows as i64,
        hot_keys: (w.rows / 10) as i64,
    };
    let pool = match w.kind {
        Kind::WarmHbp => generate(&config),
        Kind::RawScan => generate_scan_heavy(&config),
        Kind::AppendReplay => generate_append_replay(&config),
    };
    // The append-replay stream opens with two fixed folds that must run
    // first after each append (they resume cached fold partials).
    let lead = if w.kind == Kind::AppendReplay { 2 } else { 0 };
    let mut shapes: BTreeMap<String, Vec<(Vec<i64>, &str)>> = BTreeMap::new();
    for q in &pool[lead..] {
        let shape: String = q.text.chars().filter(|c| !c.is_ascii_digit()).collect();
        let constants = q
            .text
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect();
        shapes.entry(shape).or_default().push((constants, &q.text));
    }
    let mut batch: Vec<String> = pool[..lead].iter().map(|q| q.text.clone()).collect();
    let k = w.per_shape;
    let picks: Vec<Vec<&str>> = shapes
        .into_values()
        .map(|mut members| {
            members.sort();
            (0..k)
                .map(|i| members[(2 * i + 1) * members.len() / (2 * k)].1)
                .collect()
        })
        .collect();
    for i in 0..k {
        batch.extend(picks.iter().map(|p| p[i].to_string()));
    }
    batch
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything set-up builds; the timed phase runs on it.
struct Stack {
    engine: Arc<Engine>,
    cache: Arc<CacheManager>,
    open: Duration,
    /// Warm-up queries run, and those that returned an error.
    warm_up_attempted: u64,
    warm_up_failed: u64,
}

/// Open the inputs, build the engine, and run the warm-up pass.
fn set_up(w: &Workload, inputs: &Inputs, batch: &[String]) -> Fallible<Stack> {
    let (catalog, open) = inputs.open_catalog()?;
    let cache = Arc::new(CacheManager::new(w.budget));
    let engine = Arc::new(Engine::new(
        Arc::new(catalog),
        JitOptions {
            cache: Some(Arc::clone(&cache)),
            cost_model: Some(Arc::new(CostModel::new())),
            threads: nproc(),
            ..JitOptions::default()
        },
    ));
    let mut warm_up_failed = 0;
    if w.warm_up {
        let mut session = engine.session();
        for text in batch {
            if let Err(e) = run_query(&mut session, text) {
                eprintln!("perfbench: warm-up query failed ({e}): {text}");
                warm_up_failed += 1;
            }
        }
    }
    Ok(Stack {
        engine,
        cache,
        open,
        warm_up_attempted: if w.warm_up { batch.len() as u64 } else { 0 },
        warm_up_failed,
    })
}

/// One query on a session, timed from text to result value.
struct Outcome {
    value: Value,
    stats: ExecStats,
    parse_ns: u64,
    lower_ns: u64,
    execute_ns: u64,
    total_ns: u64,
}

fn run_query(session: &mut Session<'_>, text: &str) -> vida_core::Result<Outcome> {
    let t0 = Instant::now();
    let expr = parse(text)?;
    let t1 = Instant::now();
    let plan = rewrite(&lower(&expr)?);
    let t2 = Instant::now();
    let (value, stats) = session.execute_with_stats(&plan)?;
    let t3 = Instant::now();
    Ok(Outcome {
        value,
        stats,
        parse_ns: nanos(t1 - t0),
        lower_ns: nanos(t2 - t1),
        execute_ns: nanos(t3 - t2),
        total_ns: nanos(t3 - t0),
    })
}

/// Engine-side tallies of one timed phase.
#[derive(Default)]
struct Phase {
    latency_ns: Vec<u64>,
    /// Summed query latency: the phase's engine time.
    busy_ns: u64,
    /// Queries per second of engine time in each complete pass over the
    /// batch (each append round).
    pass_qps: Vec<f64>,
    parse_ns: u64,
    lower_ns: u64,
    exec: ExecStats,
    failed: u64,
    /// Append rounds run, and how many of them both scanned tail rows
    /// and resumed a fold partial.
    rounds: u64,
    incremental_rounds: u64,
    /// Traced phases: self time per stage, execute time outside any
    /// top-level span, and the first traces for the Chrome trace file.
    self_ns: BTreeMap<&'static str, u64>,
    unattributed_ns: u64,
    traces: Vec<(u64, QueryTrace)>,
    counters: Counters,
    /// Answers still to be checked against the reference.
    seen: Seen,
}

impl Phase {
    fn queries(&self) -> f64 {
        self.latency_ns.len().max(1) as f64
    }

    /// Median over the complete passes of queries per second of engine
    /// time; the median keeps a burst of host noise in one pass out.
    fn qps(&self) -> f64 {
        if self.pass_qps.is_empty() {
            self.latency_ns.len() as f64 / (self.busy_ns.max(1) as f64 / 1e9)
        } else {
            median(self.pass_qps.clone())
        }
    }
}

/// First result per distinct query (per append round), for the repeat
/// check in the loop and the oracle check after it.
#[derive(Default)]
struct Seen {
    results: HashMap<String, Value>,
}

impl Seen {
    /// Record a result; false when it differs from an earlier answer to
    /// the same query on the same data.
    fn record(&mut self, text: &str, value: Value) -> bool {
        match self.results.get(text) {
            Some(first) => *first == value,
            None => {
                self.results.insert(text.to_string(), value);
                true
            }
        }
    }

    /// Compare every recorded result with the reference; returns the
    /// number of mismatches and empties the record.
    fn check(&mut self, engine: &Engine) -> u64 {
        let answers: Vec<(String, Value)> = self.results.drain().collect();
        oracle::check(&answers, engine.catalog().as_ref(), nproc())
    }
}

/// Cache and pool counters, read at one instant or as the change over a
/// phase.
#[derive(Default, Clone, Copy)]
struct Counters {
    cache: CacheStats,
    busy_ns: u64,
    idle_ns: u64,
    thread_spawns: u64,
    multiplexed_claims: u64,
}

impl Counters {
    fn read(cache: &CacheManager) -> Counters {
        let m = global_metrics().snapshot();
        Counters {
            cache: cache.stats(),
            busy_ns: m.worker_busy_ns,
            idle_ns: m.worker_idle_ns,
            thread_spawns: m.pool_thread_spawns,
            multiplexed_claims: m.pool_multiplexed_claims,
        }
    }

    /// What changed since `before`.
    fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.cache, &before.cache);
        Counters {
            cache: CacheStats {
                hits: a.hits - b.hits,
                misses: a.misses - b.misses,
                insertions: a.insertions - b.insertions,
                evictions: a.evictions - b.evictions,
                invalidations: a.invalidations - b.invalidations,
            },
            busy_ns: self.busy_ns - before.busy_ns,
            idle_ns: self.idle_ns - before.idle_ns,
            thread_spawns: self.thread_spawns - before.thread_spawns,
            multiplexed_claims: self.multiplexed_claims - before.multiplexed_claims,
        }
    }
}

/// The two folds `generate_append_replay` puts first in every batch:
/// their answers are known exactly from the rows written.
const FIXED_SUM: &str = "for { p <- Patients } yield sum p.age";
const FIXED_COUNT: &str = "for { g <- Genetics } yield count g";

/// Closed loop on one session for `budget` of engine time (and at least
/// `min_samples` queries). A failed query adds no engine time, so the loop
/// also ends once as many queries have failed as the batch holds. On
/// `append-replay` each pass over the batch is
/// one round, preceded by an append of 1% of the rows to every input (not
/// timed). The returned `seen` holds the answers to check against the
/// reference: on `append-replay`, those of the last round, and each
/// round's fixed folds are checked against the rows written instead.
fn engine_phase(
    w: &Workload,
    stack: &Stack,
    inputs: &mut Inputs,
    batch: &[String],
    budget: Duration,
    traced: bool,
    min_samples: usize,
) -> Fallible<Phase> {
    let mut p = Phase::default();
    let mut session = stack.engine.session();
    session.options_mut().trace = traced;
    let append = w.kind == Kind::AppendReplay;
    let counters0 = Counters::read(&stack.cache);
    let epoch = Instant::now();
    let budget_ns = nanos(budget);
    let more = |p: &Phase| {
        (p.busy_ns < budget_ns || p.latency_ns.len() < min_samples) && p.failed < batch.len() as u64
    };
    while more(&p) {
        if append {
            inputs.append(w.rows / 100)?;
            p.seen = Seen::default();
        }
        let (mut tail, mut partials) = (0, 0);
        let (pass_start, mut pass_queries, mut complete) = (p.busy_ns, 0u32, true);
        for text in batch {
            if !append && !more(&p) {
                complete = false;
                break;
            }
            let offset = nanos(epoch.elapsed());
            let mut o = match run_query(&mut session, text) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: query failed ({e}): {text}");
                    p.failed += 1;
                    continue;
                }
            };
            p.latency_ns.push(o.total_ns);
            p.busy_ns += o.total_ns;
            pass_queries += 1;
            p.parse_ns += o.parse_ns;
            p.lower_ns += o.lower_ns;
            tail += o.stats.tail_rows_scanned;
            partials += o.stats.partials_reused;
            if let Some(trace) = o.stats.trace.take() {
                for (stage, ns) in spans::self_ns(&trace) {
                    *p.self_ns.entry(stage).or_insert(0) += ns;
                }
                p.unattributed_ns += o.execute_ns.saturating_sub(spans::covered_ns(&trace));
                if p.traces.len() < TRACE_FILE_QUERIES {
                    p.traces.push((offset, *trace));
                }
            }
            p.exec.accumulate(&o.stats);
            let exact = match text.as_str() {
                FIXED_SUM if append => Some(inputs.age_sum),
                FIXED_COUNT if append => Some(inputs.rows as i64),
                _ => None,
            };
            if exact.is_some_and(|want| o.value != Value::Int(want)) {
                eprintln!(
                    "perfbench: wrong result {} after an append: {text}",
                    o.value
                );
                p.failed += 1;
            }
            if !p.seen.record(text, o.value) {
                eprintln!("perfbench: repeat of a query changed its result: {text}");
                p.failed += 1;
            }
        }
        if complete {
            let secs = (p.busy_ns - pass_start).max(1) as f64 / 1e9;
            p.pass_qps.push(f64::from(pass_queries) / secs);
        }
        if append {
            p.rounds += 1;
            p.incremental_rounds += u64::from(tail > 0 && partials > 0);
        }
    }
    p.counters = Counters::read(&stack.cache).since(&counters0);
    Ok(p)
}

/// One pass over the batch through a `QueryServer` on the workload's
/// engine, from one client, and the server's counters after it.
fn serve_pass(stack: &Stack, batch: &[String]) -> (ClientTally, ServerStats) {
    let server = QueryServer::start(
        Arc::clone(&stack.engine),
        ServerConfig {
            executors: nproc(),
            ..ServerConfig::default()
        },
    );
    let tally = send_batch(&server, batch);
    server.drain();
    let stats = server.stats();
    server.shutdown();
    (tally, stats)
}

/// Whether the decoded rows of a response are `want`: bag rows in any
/// order, float rows within 1e-9 relative.
fn rows_match(rows: &[Vec<u8>], want: &Value) -> bool {
    let mut want: Vec<String> = output::to_values(want)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let mut got: Vec<String> = rows
        .iter()
        .map(|r| String::from_utf8_lossy(r).into_owned())
        .collect();
    want.sort();
    got.sort();
    want.len() == got.len()
        && want.iter().zip(&got).all(|(w, g)| {
            w == g
                || matches!((w.parse::<f64>(), g.parse::<f64>()),
                        (Ok(a), Ok(b)) if oracle::close(a, b))
        })
}

/// Quantile `q` of `sorted` latencies (ns), in ms, by the Harrell–Davis
/// estimator: a Beta-weighted mean of all order statistics. A cycled
/// batch gives every query the same number of samples, so a single order
/// statistic at `q` often falls on the edge between two queries' clusters
/// and jumps between them from run to run; this estimate moves smoothly.
/// NaN (reported as 0) when there are no samples.
fn percentile_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    // The weights vanish beyond 12 standard deviations of the Beta.
    let reach = 12.0 * (q * (1.0 - q) / n).sqrt();
    let lo = ((q - reach) * n).floor().max(0.0) as usize;
    let hi = (((q + reach) * n).ceil() as usize).min(sorted.len());
    let mut below = incomplete_beta(a, b, lo as f64 / n);
    let mut sum = below * sorted[lo.min(sorted.len() - 1)] as f64;
    for (i, &x) in sorted.iter().enumerate().take(hi).skip(lo) {
        let upto = incomplete_beta(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x as f64;
        below = upto;
    }
    sum += (1.0 - below) * sorted[hi.saturating_sub(1)] as f64;
    sum / 1e6
}

/// Regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - incomplete_beta(b, a, 1.0 - x);
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    let tiny = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < tiny { tiny } else { d };
    let mut f = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < tiny { tiny } else { d };
            c = 1.0 + num / c;
            if c.abs() < tiny {
                c = tiny;
            }
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-14 {
            break;
        }
    }
    ln_front.exp() * f / a
}

fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `VmHWM` (peak resident set) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`: on a
/// shared virtual machine, time stolen by other guests explains a slow run.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Metric name → (value, unit), printed in insertion order.
#[derive(Default)]
struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn run(args: &Args) -> Fallible<String> {
    let w = args.workload;
    let batch = batch(w, args.seed);
    let mut inputs = Inputs::create(w.name, w.rows, args.seed)?;
    let mut report = Report::default();
    let (attempted, failed) = if args.trace {
        let stack = set_up(w, &inputs, &batch)?;
        per_layer(args, &stack, &mut inputs, &batch, &mut report)?
    } else {
        end_to_end(args, &mut inputs, &batch, &mut report)?
    };
    Ok(report.json(failed == 0, attempted.max(1), failed))
}

/// The `--trace 0` run. The timed phase is split into `SEGMENTS` equal
/// parts, each on a fresh set-up (on `append-replay`, over inputs
/// truncated back to their first size), so that one engine's luck with
/// thread placement or memory layout does not set a run's figures.
fn end_to_end(
    args: &Args,
    inputs: &mut Inputs,
    batch: &[String],
    report: &mut Report,
) -> Fallible<(u64, u64)> {
    let w = args.workload;
    let segment = Duration::from_secs_f64(args.seconds) / SEGMENTS;
    let (mut setup_s, mut latency_ns, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    // Answers from every segment, for the repeat check across engines.
    let mut seen = Seen::default();
    let mut stack = None;
    let mut rss = 0.0;
    let ticks0 = cpu_ticks();
    for i in 0..SEGMENTS {
        drop(stack.take());
        if w.kind == Kind::AppendReplay {
            inputs.reset()?;
        }
        let t0 = Instant::now();
        let s = stack.insert(set_up(w, inputs, batch)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += s.warm_up_attempted;
        failed += s.warm_up_failed;
        let min_samples = if i + 1 == SEGMENTS {
            MIN_SAMPLES.saturating_sub(latency_ns.len())
        } else {
            0
        };
        let p = engine_phase(w, s, inputs, batch, segment, false, min_samples)?;
        let passes: Vec<String> = p.pass_qps.iter().map(|q| format!("{q:.2}")).collect();
        eprintln!("perfbench: queries/s per pass {}", passes.join(" "));
        qps.extend(p.pass_qps.iter().copied());
        attempted += p.latency_ns.len() as u64 + p.failed;
        failed += p.failed;
        latency_ns.extend(p.latency_ns);
        // On append-replay only the last segment's last round is still on
        // disk to check; earlier rounds are covered by the fixed folds'
        // exact check.
        if w.kind == Kind::AppendReplay {
            seen = p.seen;
        } else {
            for (text, value) in p.seen.results {
                if !seen.record(&text, value) {
                    eprintln!("perfbench: answer changed between engines: {text}");
                    failed += 1;
                }
            }
        }
        // The peak of one engine's life: later set-ups reuse memory the
        // allocator kept from earlier ones, and the check comes last.
        if i == 0 {
            rss = peak_rss_mb();
        }
    }
    let stack = stack.expect("SEGMENTS > 0");
    failed += seen.check(&stack.engine);
    drop(stack);
    // More set-ups while they are cheap, for a steadier median.
    while setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        if w.kind == Kind::AppendReplay {
            inputs.reset()?;
        }
        let t0 = Instant::now();
        let s = set_up(w, inputs, batch)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        attempted += s.warm_up_attempted;
        failed += s.warm_up_failed;
    }
    latency_ns.sort_unstable();
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", percentile_ms(&latency_ns, f64::from(d) / 10.0)))
        .collect();
    let ticks = cpu_ticks();
    let steal = (ticks.0 - ticks0.0) as f64 / (ticks.1 - ticks0.1).max(1) as f64;
    eprintln!(
        "perfbench: {} seed {}: {} batch queries, {} set-ups (median {:.4} s), \
         {} latency samples, deciles (ms) {}, host steal {:.1}%",
        w.name,
        args.seed,
        batch.len(),
        setup_s.len(),
        median(setup_s.clone()),
        latency_ns.len(),
        deciles.join(" "),
        steal * 100.0
    );
    report.put("setup_s", median(setup_s), "s");
    report.put("qps", median(qps), "queries/s");
    report.put("latency_p50_ms", percentile_ms(&latency_ns, 0.5), "ms");
    report.put("latency_p90_ms", percentile_ms(&latency_ns, 0.9), "ms");
    report.put("peak_rss_mb", rss, "MiB");
    Ok((attempted, failed))
}

/// The `--trace 1` run: the workload's untraced path for half the time
/// (layer counters), then a traced session for the other half (stage self
/// times and tracing overhead).
fn per_layer(
    args: &Args,
    stack: &Stack,
    inputs: &mut Inputs,
    batch: &[String],
    r: &mut Report,
) -> Fallible<(u64, u64)> {
    let w = args.workload;
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut attempted = stack.warm_up_attempted;
    let mut failed = stack.warm_up_failed;

    // Untraced: the workload's session loop for the layer counters, then
    // one pass through the service, checked against the loop's answers
    // (so the loop runs the whole batch at least once).
    let mut p = engine_phase(w, stack, inputs, batch, half, false, batch.len())?;
    attempted += p.latency_ns.len() as u64 + p.failed;
    failed += p.failed;
    let (served, server) = serve_pass(stack, batch);
    attempted += served.latency_ns.len() as u64 + served.failed;
    failed += served.failed;
    for (i, rows) in &served.rows {
        let text = &batch[*i];
        if !p
            .seen
            .results
            .get(text)
            .is_some_and(|v| rows_match(rows, v))
        {
            eprintln!("perfbench: served answer differs from the session's: {text}");
            failed += 1;
        }
    }
    failed += p.seen.check(&stack.engine);
    let exec = &p.exec;
    let counters = p.counters;
    let raw_bytes = inputs.raw_bytes();

    let mut t = engine_phase(w, stack, inputs, batch, half, true, 0)?;
    failed += t.failed + t.seen.check(&stack.engine);
    attempted += t.latency_ns.len() as u64 + t.failed;
    write_chrome_trace(w.name, args.seed, &t.traces);

    let q = f64::from(exec.queries.max(1));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    r.put("lang.parse_us", p.parse_ns as f64 / p.queries() / 1e3, "us");
    r.put(
        "algebra.lower_us",
        p.lower_ns as f64 / p.queries() / 1e3,
        "us",
    );
    r.put("exec.build_ms", ms(exec.codegen) / q, "ms");
    r.put("exec.drive_ms", ms(exec.execution) / q, "ms");
    r.put(
        "exec.ns_per_row",
        exec.execution.as_nanos() as f64 / exec.tuples_scanned.max(1) as f64,
        "ns/row",
    );
    r.put(
        "exec.tuples_scanned",
        exec.tuples_scanned as f64 / q,
        "1/query",
    );
    r.put(
        "exec.fallback_share",
        exec.fallback_tuples as f64 / exec.tuples_scanned.max(1) as f64,
        "share",
    );
    r.put(
        "exec.whole_query_fallbacks",
        f64::from(exec.whole_query_fallbacks),
        "count",
    );
    r.put(
        "jit.kernels_per_query",
        f64::from(exec.kernels_compiled) / q,
        "1/query",
    );
    r.put(
        "optimizer.joins_reordered",
        f64::from(exec.joins_reordered) / q,
        "1/query",
    );
    r.put(
        "optimizer.cardinality_error",
        exec.cardinality_error(),
        "ratio",
    );
    let cache = counters.cache;
    let probes = (cache.hits + cache.misses).max(1) as f64;
    r.put("cache.hit_rate", cache.hits as f64 / probes, "share");
    r.put(
        "cache.served_share",
        f64::from(exec.queries_served_from_cache) / q,
        "share",
    );
    r.put("cache.evictions", cache.evictions as f64 / q, "1/query");
    r.put("cache.insertions", cache.insertions as f64 / q, "1/query");
    r.put(
        "cache.invalidations",
        cache.invalidations as f64 / q,
        "1/query",
    );
    r.put(
        "cache.bytes_per_raw_byte",
        stack.cache.used_bytes() as f64 / raw_bytes.max(1) as f64,
        "ratio",
    );
    r.put(
        "cache.partials_reused",
        exec.partials_reused as f64 / q,
        "1/query",
    );
    r.put("formats.open_ms", ms(stack.open), "ms");
    r.put(
        "formats.raw_columns",
        f64::from(exec.raw_columns) / q,
        "1/query",
    );
    r.put(
        "formats.tail_rows_scanned",
        exec.tail_rows_scanned as f64 / q,
        "1/query",
    );
    r.put(
        "parallel.morsels_per_query",
        exec.morsels as f64 / q,
        "1/query",
    );
    r.put(
        "parallel.busy_share",
        counters.busy_ns as f64 / (counters.busy_ns + counters.idle_ns).max(1) as f64,
        "share",
    );
    r.put(
        "parallel.thread_spawns",
        counters.thread_spawns as f64,
        "count",
    );
    r.put(
        "parallel.multiplexed_claims",
        counters.multiplexed_claims as f64,
        "count",
    );
    let n = served.latency_ns.len().max(1) as f64;
    r.put(
        "server.first_byte_us",
        served.first_byte_ns as f64 / n / 1e3,
        "us",
    );
    r.put("server.stream_us", served.stream_ns as f64 / n / 1e3, "us");
    r.put("server.rejected", server.rejected as f64, "count");
    r.put(
        "server.peak_in_flight",
        server.peak_in_flight as f64,
        "count",
    );
    report_property(w, &p, &cache);
    let tq = t.queries();
    for stage in spans::STAGES {
        let ns = t.self_ns.get(stage).copied().unwrap_or(0);
        r.put(
            &format!("trace.{stage}.self_ms"),
            ns as f64 / tq / 1e6,
            "ms",
        );
    }
    r.put(
        "trace.unattributed_ms",
        t.unattributed_ns as f64 / tq / 1e6,
        "ms",
    );
    r.put("trace.overhead", p.qps() / t.qps(), "ratio");
    Ok((attempted, failed))
}

/// Print whether the run kept the property its workload exists for
/// (stderr only: the property is a claim about the workload's sizing, not
/// about the program's outputs).
fn report_property(w: &Workload, p: &Phase, cache: &CacheStats) {
    let exec = &p.exec;
    let q = f64::from(exec.queries.max(1));
    let served_share = f64::from(exec.queries_served_from_cache) / q;
    let (held, what) = match w.kind {
        Kind::WarmHbp => {
            let mean_latency_s = p.busy_ns as f64 / 1e9 / p.queries();
            let exec_share = (exec.codegen + exec.execution).as_secs_f64() / q / mean_latency_s;
            (
                served_share >= 0.9 && exec_share > 0.5,
                format!(
                    "served share {served_share:.3} >= 0.9, build+drive {exec_share:.3} of latency"
                ),
            )
        }
        Kind::RawScan => (
            cache.evictions > 0 && served_share < 0.5,
            format!(
                "{} evictions > 0, {:.3} of queries read raw columns",
                cache.evictions,
                1.0 - served_share
            ),
        ),
        Kind::AppendReplay => (
            p.rounds > 0 && p.incremental_rounds == p.rounds,
            format!(
                "{} of {} rounds scanned tail rows and resumed partials",
                p.incremental_rounds, p.rounds
            ),
        ),
    };
    let verdict = if held { "held" } else { "NOT HELD" };
    eprintln!("perfbench: {} defining property {verdict}: {what}", w.name);
}

/// Write the traced queries as Chrome trace-event JSON under `.bench_out/`.
fn write_chrome_trace(workload: &str, seed: u64, traces: &[(u64, QueryTrace)]) {
    let refs: Vec<(u64, &QueryTrace)> = traces.iter().map(|(o, t)| (*o, t)).collect();
    let path = std::path::Path::new(".bench_out").join(format!("{workload}-seed{seed}.trace.json"));
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&refs)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_numeric_integration() {
        assert!((incomplete_beta(3.2, 4.5, 0.3) - 0.268_966_467_6).abs() < 1e-8);
        assert!((incomplete_beta(2.0, 2.0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn harrell_davis_quantiles_track_order_statistics() {
        let ms: Vec<u64> = (1..=999).map(|i| i * 1_000_000).collect();
        assert!((percentile_ms(&ms, 0.5) - 500.0).abs() < 1e-6);
        assert!((percentile_ms(&ms, 0.9) - 900.0).abs() < 0.5);
        // Two equal clusters: the median sits between them, not on either.
        let two: Vec<u64> = [vec![10_000_000; 50], vec![20_000_000; 50]].concat();
        let p50 = percentile_ms(&two, 0.5);
        assert!(p50 > 12.0 && p50 < 18.0, "{p50}");
    }

    #[test]
    fn answers_match_with_float_tolerance_and_free_bag_order() {
        let bag = |xs: &[i64]| Value::bag(xs.iter().map(|&x| Value::Int(x)).collect());
        assert!(oracle::matches(&bag(&[3, 1, 2]), &bag(&[1, 2, 3])));
        assert!(!oracle::matches(&bag(&[1, 2]), &bag(&[1, 2, 2])));
        assert!(oracle::matches(
            &Value::Float(1.0 + 1e-12),
            &Value::Float(1.0)
        ));
        assert!(!oracle::matches(
            &Value::Float(1.0 + 1e-6),
            &Value::Float(1.0)
        ));
        assert!(!oracle::matches(&Value::Int(1), &Value::Float(1.0)));
    }
}
