//! Chrome trace-event JSON export. The output loads in Perfetto and
//! `chrome://tracing`: complete (`"ph":"X"`) events with microsecond
//! timestamps, one `tid` track per worker (tid 0 = the coordinator), and
//! metadata events naming each track. Tuple/morsel counts ride in each
//! event's `args`.

use crate::json::{self, JsonWriter};
use crate::span::QueryTrace;

/// Export one or more query traces on a shared timeline. Each entry is
/// `(offset_ns, trace)`: the trace's epoch expressed as nanoseconds from
/// the timeline origin (0 for a single query; the per-query start offset
/// when exporting a whole workload).
pub fn chrome_trace_json(traces: &[(u64, &QueryTrace)]) -> String {
    let micros = |ns: u64| ns as f64 / 1000.0;
    json::object(|w| {
        w.key("traceEvents").array(|w| {
            let mut tracks: Vec<u32> = Vec::new();
            for (q, (offset_ns, trace)) in traces.iter().enumerate() {
                for span in trace.spans() {
                    if !tracks.contains(&span.worker) {
                        tracks.push(span.worker);
                    }
                    w.object(|w| {
                        w.key("name").string(span.stage);
                        w.key("cat").string("query");
                        w.key("ph").string("X");
                        w.key("ts").float(micros(offset_ns + span.start_ns), 3);
                        w.key("dur").float(micros(span.dur_ns), 3);
                        w.key("pid").int(0);
                        w.key("tid").int(span.worker);
                        w.key("args").object(|w| {
                            w.key("query").int(q);
                            w.key("depth").int(span.depth);
                            w.key("tuples").int(span.tuples);
                            w.key("morsels").int(span.morsels);
                        });
                    });
                }
            }
            tracks.sort_unstable();
            // Metadata events give each tid a human name and pin the track order.
            for (sort, &tid) in tracks.iter().enumerate() {
                let name = if tid == 0 {
                    "coordinator".to_string()
                } else {
                    format!("worker {tid}")
                };
                metadata(w, "thread_name", Some(tid), |w| w.key("name").string(&name));
                metadata(w, "thread_sort_index", Some(tid), |w| {
                    w.key("sort_index").int(sort)
                });
            }
            metadata(w, "process_name", None, |w| w.key("name").string("vida"));
        });
        w.key("displayTimeUnit").string("ms");
    })
}

/// A metadata (`"ph":"M"`) event whose `args` members `args` writes.
fn metadata(w: &mut JsonWriter, name: &str, tid: Option<u32>, args: impl FnOnce(&mut JsonWriter)) {
    w.object(|w| {
        w.key("name").string(name);
        w.key("ph").string("M");
        w.key("pid").int(0);
        if let Some(tid) = tid {
            w.key("tid").int(tid);
        }
        w.key("args").object(args);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::stage;

    #[test]
    fn export_emits_one_track_per_worker() {
        let mut coord = QueryTrace::start();
        coord.begin(stage::FOLD);
        let mut w1 = QueryTrace::with_epoch(1, coord.epoch());
        w1.begin(stage::SCAN);
        w1.end_counted(5, 1);
        coord.end();
        coord.absorb(w1);
        let json = coord.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"fold\""));
        assert!(json.contains("\"name\":\"scan\""));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"name\":\"worker 1\""));
        assert!(json.contains("\"tuples\":5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn workload_export_offsets_queries_on_one_timeline() {
        let mut q0 = QueryTrace::start();
        q0.begin(stage::SCAN);
        q0.end();
        let mut q1 = QueryTrace::start();
        q1.begin(stage::SCAN);
        q1.end();
        let json = chrome_trace_json(&[(0, &q0), (1_000_000, &q1)]);
        assert!(json.contains("\"query\":0"));
        assert!(json.contains("\"query\":1"));
    }
}
