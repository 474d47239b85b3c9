//! Exclusive (self) time per stage from a query's span buffer.

use std::collections::BTreeMap;
use vida_core::trace::Span;
use vida_core::QueryTrace;

/// Stages reported as `trace.<stage>.self_ms`, in the engine's taxonomy.
pub const STAGES: [&str; 8] = [
    "lower",
    "codegen",
    "cache_probe",
    "build_side",
    "scan",
    "probe",
    "fold",
    "replica_sync",
];

/// Self time per stage, summed over every track: on each track a span's
/// duration minus the time its direct children cover. Spans nest by stack
/// discipline per track, so a child is the next deeper span that starts
/// inside its parent.
pub fn self_ns(trace: &QueryTrace) -> BTreeMap<&'static str, u64> {
    let mut spans: Vec<&Span> = trace.spans().iter().filter(|s| s.dur_ns > 0).collect();
    spans.sort_by_key(|s| (s.worker, s.start_ns, s.depth));
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    // Open ancestors on the current track: (span index, depth).
    let mut stack: Vec<(usize, u32)> = Vec::new();
    let mut track = None;
    for (i, s) in spans.iter().enumerate() {
        if track != Some(s.worker) {
            stack.clear();
            track = Some(s.worker);
        }
        while stack
            .last()
            .is_some_and(|&(p, d)| d >= s.depth || spans[p].end_ns() <= s.start_ns)
        {
            stack.pop();
        }
        if let Some(&(p, _)) = stack.last() {
            own[p] = own[p].saturating_sub(s.dur_ns);
        }
        stack.push((i, s.depth));
    }
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.stage).or_insert(0) += ns;
    }
    out
}

/// Time the coordinator track (0) spent inside any top-level span.
pub fn covered_ns(trace: &QueryTrace) -> u64 {
    trace
        .spans()
        .iter()
        .filter(|s| s.worker == 0 && s.depth == 0)
        .map(|s| s.dur_ns)
        .sum()
}
