//! Every workload and metric the benchmark reports, by name.
//! `BENCHMARK.json` at the repository root states the same lists with the
//! regression bounds; a unit test keeps the two in step.

/// A metric improves as it grows.
const HIGHER: &str = "higher";
/// A metric improves as it shrinks.
const LOWER: &str = "lower";

/// Workload names; later issues cite them.
pub const WORKLOADS: [&str; 5] = [
    "live_paper_elastic",
    "wire_get_pipelined",
    "wire_mixed_open_low",
    "wire_mixed_open_high",
    "sim_paper_phases",
];

/// End-to-end metrics: every workload reports every one of them on an
/// untraced run.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", LOWER),
    ("ops_per_s", "1/s", HIGHER),
    ("lat_p50_us", "us", LOWER),
    ("peak_rss_mb", "MiB", LOWER),
    ("hit_rate", "share", HIGHER),
];

/// Per-layer metrics: every traced run reports every one of them; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 74] = [
    // Spans recorded by the benchmark around its own calls.
    ("workload.next_op_ns", "ns", LOWER),
    ("net.client.enqueue_ns", "ns", LOWER),
    ("net.client.flush_us", "us", LOWER),
    ("net.client.recv_wait_us", "us", LOWER),
    ("net.client.verify_ns", "ns", LOWER),
    ("net.client.call_us.get", "us", LOWER),
    ("net.client.call_us.put", "us", LOWER),
    ("net.coordinator.get_us", "us", LOWER),
    ("net.coordinator.put_us", "us", LOWER),
    ("net.coordinator.put_split_ms", "ms", LOWER),
    ("net.coordinator.step_close_ms", "ms", LOWER),
    ("net.coordinator.step_close_merge_ms", "ms", LOWER),
    ("net.coordinator.splits", "count", LOWER),
    ("net.coordinator.merges", "count", LOWER),
    ("net.coordinator.nodes_spawned", "count", LOWER),
    ("core.elastic.query_ns", "ns", LOWER),
    ("core.elastic.step_close_us", "us", LOWER),
    ("core.elastic.splits", "count", LOWER),
    ("core.elastic.merges", "count", LOWER),
    ("core.elastic.evictions", "count", LOWER),
    // Read from the program's own obs snapshots.
    ("net.reactor.dispatch_us_mean", "us", LOWER),
    ("net.reactor.wakes", "count", LOWER),
    ("net.reactor.frames_per_wake", "count", HIGHER),
    ("net.server.op_us_mean.get", "us", LOWER),
    ("net.server.op_us_mean.put", "us", LOWER),
    ("core.shard.lock_wait_us_sum", "us", LOWER),
    ("net.coordinator.fanout_us_mean", "us", LOWER),
    ("net.coordinator.migrate_us_sum", "us", LOWER),
    ("net.coordinator.evict_batches", "count", LOWER),
    ("core.slab.live_slots", "count", LOWER),
    ("core.slab.occupancy", "share", HIGHER),
    // Layer probes: the workload's key stream replayed into one layer.
    ("net.protocol.encode_ns", "ns", LOWER),
    ("net.protocol.decode_ns", "ns", LOWER),
    ("core.shard.get_ns", "ns", LOWER),
    ("core.shard.put_ns", "ns", LOWER),
    ("core.shard.remove_ns", "ns", LOWER),
    ("core.shard.drain_range_ns_per_rec", "ns", LOWER),
    ("bptree.get_ns", "ns", LOWER),
    ("bptree.insert_ns", "ns", LOWER),
    ("bptree.sweep_ns_per_rec", "ns", LOWER),
    ("chash.node_for_key_ns", "ns", LOWER),
    ("core.window.note_query_ns", "ns", LOWER),
    ("core.window.end_slice_us", "us", LOWER),
    ("cloudsim.alloc_virtual_us_sum", "us", LOWER),
    ("cloudsim.migration_virtual_us_sum", "us", LOWER),
    ("spatial.linearize_ns", "ns", LOWER),
    ("shoreline.derive_us", "us", LOWER),
    // Derived and diagnostic.
    ("net.transport_us", "us", LOWER),
    ("net.transport_share", "share", LOWER),
    ("budget.residual_share", "share", LOWER),
    ("trace.overhead_share", "share", LOWER),
    ("trace.spans_recorded", "count", LOWER),
    ("loadgen.late_p99_us", "us", LOWER),
    ("loadgen.lat_p99_us", "us", LOWER),
    ("loadgen.lat_p999_us", "us", LOWER),
    ("loadgen.lat_max_us", "us", LOWER),
    ("loadgen.closed_loop_qps", "1/s", HIGHER),
    ("loadgen.segments", "count", HIGHER),
    ("loadgen.lat_samples", "count", HIGHER),
    // Outcomes that one workload owns, that are exact, or that read 0
    // when all is well — none of which an end-to-end metric may be here.
    ("loadgen.failed_share", "share", LOWER),
    ("loadgen.achieved_share", "share", HIGHER),
    ("loadgen.step_close_p50_ms", "ms", LOWER),
    ("loadgen.peak_nodes", "count", LOWER),
    ("loadgen.records_lost", "count", LOWER),
    ("loadgen.bytes_per_user_byte", "share", LOWER),
    ("loadgen.sim_speedup", "share", HIGHER),
    ("loadgen.sim_node_steps", "count", LOWER),
    // The untraced segments of the traced run, for reading a trace
    // without a second run beside it.
    ("loadgen.ops_per_s", "1/s", HIGHER),
    ("loadgen.lat_p50_us", "us", LOWER),
    ("loadgen.lat_p90_us", "us", LOWER),
    // The same as measured, before host speed is divided out, and the
    // speed itself (1 = the reference host at its base clock).
    ("loadgen.raw_ops_per_s", "1/s", HIGHER),
    ("loadgen.raw_lat_p50_us", "us", LOWER),
    ("loadgen.cpu_speed", "share", HIGHER),
    // `live_paper_elastic` on its high plateau (gated: the low plateaus).
    ("loadgen.lat_p50_high_us", "us", LOWER),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key).and_then(Value::as_str).unwrap()
    }

    #[test]
    fn benchmark_json_names_exactly_the_catalogue() {
        let m = manifest();
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let e2e = m.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, (name, unit, better)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name"), name);
            assert_eq!(field(got, "unit"), unit, "{name}");
            assert_eq!(field(got, "better"), better, "{name}");
            let bound = got.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }

        let layers = m.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name"), name);
            assert_eq!(field(got, "unit"), unit, "{name}");
            assert_eq!(field(got, "better"), better, "{name}");
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for name in WORKLOADS {
            assert!(ok(name, "_.-", 64) && seen.insert(name), "{name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
