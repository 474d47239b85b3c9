//! Overhead of per-query span tracing on a scan → select → hash-join
//! probe → fold chain.
//!
//! The PR-7 contract: with `JitOptions::trace` **off** the hooks are single
//! `Option` checks and the cost is indistinguishable from baseline; with it
//! **on** the engine additionally records ~a dozen coordinator spans, one
//! span per worker morsel, and per-kernel invocation counts, and the
//! overhead must stay under 3% on this chain. The bench prints both deltas
//! so CI history pins the budget; it does not hard-fail (shared runners
//! are too noisy for a 3% assert), but the numbers make regressions
//! visible in the log.

use std::sync::Arc;
use vida_algebra::{lower, rewrite, Plan};
use vida_bench::{case, fixtures};
use vida_exec::{run_jit_with_stats, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;

fn plan_of(q: &str) -> Plan {
    rewrite(&lower(&parse(q).expect("parses")).expect("lowers"))
}

fn overhead_pct(base: std::time::Duration, traced: std::time::Duration) -> f64 {
    100.0 * (traced.as_secs_f64() - base.as_secs_f64()) / base.as_secs_f64().max(1e-12)
}

fn main() {
    let catalog = MemoryCatalog::new();
    let patients = CsvFile::from_bytes(
        "Patients",
        fixtures::patients_csv(20_000, 7),
        b',',
        true,
        fixtures::patients_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(CsvPlugin::new(patients)));
    let genetics = JsonFile::from_bytes(
        "Genetics",
        fixtures::genetics_json(20_000, 13),
        fixtures::genetics_schema(),
    )
    .expect("fixture parses");
    catalog.register(Arc::new(JsonPlugin::new(genetics)));

    let chain =
        plan_of("for { p <- Patients, g <- Genetics, p.id = g.id, p.age > 40 } yield sum g.snp");

    let baseline = JitOptions::default();
    let traced = JitOptions::default().with_trace();

    // Same answer both ways, and the traced run actually recorded spans.
    let (v_base, _) = run_jit_with_stats(&chain, &catalog, &baseline).expect("runs");
    let (v_trace, s_trace) = run_jit_with_stats(&chain, &catalog, &traced).expect("runs");
    assert_eq!(v_base, v_trace, "tracing must not change results");
    let trace = s_trace.query_trace().expect("trace recorded");
    assert!(trace.spans().len() >= 8, "expected a full span tree");
    println!(
        "traced chain records {} spans, {} kernel invocations",
        trace.spans().len(),
        trace.kernel_invocations().iter().sum::<u64>()
    );

    for threads in [1usize, 4] {
        let base_opts = JitOptions {
            threads,
            ..baseline.clone()
        };
        let trace_opts = JitOptions {
            threads,
            ..traced.clone()
        };
        let label = if threads == 1 { "serial" } else { "4 threads" };
        let t_base = case(&format!("chain {label}: trace off"), 3, 5, || {
            run_jit_with_stats(&chain, &catalog, &base_opts).expect("runs");
        });
        let t_trace = case(&format!("chain {label}: trace on"), 3, 5, || {
            run_jit_with_stats(&chain, &catalog, &trace_opts).expect("runs");
        });
        println!(
            "tracing overhead ({label}): {:+.2}% (budget: <3% enabled, ~0% disabled)",
            overhead_pct(t_base, t_trace)
        );
    }
}
