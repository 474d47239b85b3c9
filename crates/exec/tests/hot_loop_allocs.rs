//! Allocation gate for the warm hot loop.
//!
//! A counting global allocator tallies every heap allocation (and
//! reallocation) in the process while a warm, cache-served query runs on a
//! resident engine. Each query runs over a 20k-row and a 200k-row copy of
//! the same data: fixed per-query work (planning, kernel compilation, the
//! cost-model hooks) cancels in the difference, and per-morsel buffers
//! grow with the morsel count, so what remains per extra row is the hot
//! loop's own allocation rate — which must stay at or under
//! [`MAX_ALLOCS_PER_ROW`] on scan, select, probe, and primitive folds.
//! Collection heads (`yield bag`) allocate one result element per row by
//! nature and are not gated here.
//!
//! Allocation counts are deterministic for a fixed worker count, so this
//! gate can run on shared CI hosts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vida_algebra::{lower, rewrite};
use vida_cache::CacheManager;
use vida_exec::{Engine, JitOptions, MemoryCatalog};
use vida_formats::csv::CsvFile;
use vida_formats::json::JsonFile;
use vida_formats::plugin::{CsvPlugin, JsonPlugin};
use vida_lang::parse;
use vida_optimizer::CostModel;
use vida_types::{Schema, Type, Value};

/// Counts allocations and reallocations; frees are not counted.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The gate: extra heap allocations per extra scanned row.
const MAX_ALLOCS_PER_ROW: f64 = 0.01;

const SMALL: usize = 20_000;
const LARGE: usize = 200_000;

/// Scan→select→fold shapes and a hash-join fold. The select keeps about
/// half the rows; the join matches every probe row once.
const QUERIES: [&str; 4] = [
    "for { p <- P, p.x < 50 } yield sum p.f",
    "for { p <- P, p.x < 50 } yield avg p.x",
    "for { p <- P, p.x < 50 } yield count p",
    "for { p <- P, g <- G, p.id = g.id } yield sum g.snp",
];

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("hot_loop_allocs_{name}"))
}

/// `P(id, x, f)` as CSV and `G(id, snp)` as NDJSON, `rows` rows each, on
/// disk (so the cache protocol sees real fingerprints).
fn catalog(rows: usize) -> MemoryCatalog {
    let mut csv = String::from("id,x,f\n");
    let mut json = String::new();
    for i in 0..rows {
        csv.push_str(&format!("{i},{},{}\n", i % 100, (i % 16) as f64 / 16.0));
        json.push_str(&format!(
            "{{\"id\":{i},\"snp\":{:.4}}}\n",
            (i % 8) as f64 / 8.0
        ));
    }
    let p_path = path(&format!("P{rows}.csv"));
    let g_path = path(&format!("G{rows}.json"));
    std::fs::write(&p_path, csv).unwrap();
    std::fs::write(&g_path, json).unwrap();
    let cat = MemoryCatalog::new();
    let p = CsvFile::open(
        "P",
        &p_path,
        b',',
        true,
        Schema::from_pairs([("id", Type::Int), ("x", Type::Int), ("f", Type::Float)]),
    )
    .unwrap();
    cat.register(Arc::new(CsvPlugin::new(p)));
    let g = JsonFile::open(
        "G",
        &g_path,
        Schema::from_pairs([("id", Type::Int), ("snp", Type::Float)]),
    )
    .unwrap();
    cat.register(Arc::new(JsonPlugin::new(g)));
    cat
}

/// Heap allocations of one warm run of `query` over `rows`-row inputs on
/// a resident engine with `threads` workers, plus its result.
fn warm_allocs(query: &str, rows: usize, threads: usize) -> (u64, Value) {
    let plan = rewrite(&lower(&parse(query).unwrap()).unwrap());
    let opts = JitOptions {
        threads,
        clamp_threads: false,
        ..JitOptions::with_cost_model(
            Arc::new(CacheManager::new(64 << 20)),
            Arc::new(CostModel::new()),
        )
    };
    let engine = Engine::new(Arc::new(catalog(rows)), opts);
    // Cold run reads the raw files and writes replicas; the second run
    // settles the cost model's layout choice.
    for _ in 0..2 {
        engine.execute(&plan).unwrap();
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    let (value, stats) = engine.execute_with_stats(&plan).unwrap();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(
        stats.served_from_cache,
        "{query} at {rows} rows was not cache-served: {stats:?}"
    );
    assert_eq!(stats.fallback_tuples, 0, "{query}: {stats:?}");
    (allocs, value)
}

#[test]
fn warm_hot_loop_allocations_grow_with_morsels_not_rows() {
    let mut failures = Vec::new();
    for threads in [1usize, 2] {
        for query in QUERIES {
            let (small, _) = warm_allocs(query, SMALL, threads);
            let (large, value) = warm_allocs(query, LARGE, threads);
            let per_row = large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64;
            eprintln!(
                "{query} at {threads} worker(s): {small} allocs at {SMALL} rows, \
                 {large} at {LARGE} rows, {per_row:.5} per extra row ({value})"
            );
            if per_row > MAX_ALLOCS_PER_ROW {
                failures.push(format!("{query} at {threads} worker(s): {per_row:.4}/row"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "hot loop allocates per row (gate {MAX_ALLOCS_PER_ROW}/row): {failures:?}"
    );
}
