//! The names `BENCHMARK.json` promises. The harness prints exactly these;
//! a unit test keeps the two lists equal.

/// Workload names, in the order `--check` runs them.
pub const WORKLOADS: [&str; 5] = [
    "cell_day_512",
    "paper_small",
    "trace_roundtrip",
    "sql_battery",
    "serve_closed",
];

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("wall_s", "s")];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 66] = [
    ("workload.generate_ms", "ms"),
    ("workload.jobs", "count"),
    ("workload.tasks", "count"),
    ("sim.run_cell_ms", "ms"),
    ("sim.trace_rows", "count"),
    ("sim.rows_per_s", "1/s"),
    ("sim.dispatch_ms", "ms"),
    ("sim.usage_tick_ms", "ms"),
    ("sim.events", "count"),
    ("sim.run_cell_k1_ms", "ms"),
    ("sim.run_cell_k2_ms", "ms"),
    ("sim.run_cells_parallel_ms", "ms"),
    ("sim.run_cell_2011_ms", "ms"),
    ("telemetry.sim_overhead_share", "share"),
    ("trace.write_ms", "ms"),
    ("trace.write_lossy_ms", "ms"),
    ("trace.csv_bytes", "bytes"),
    ("trace.read_lenient_ms", "ms"),
    ("trace.rows_read", "count"),
    ("trace.quarantined_lines", "count"),
    ("trace.repair_clean_ms", "ms"),
    ("trace.repair_damaged_ms", "ms"),
    ("trace.repair_actions", "count"),
    ("trace.repair_passes", "count"),
    ("trace.validate_ms", "ms"),
    ("trace.violations", "count"),
    ("core.load_trace_dir_ms", "ms"),
    ("core.tables_ms", "ms"),
    ("core.table_rows", "count"),
    ("query.q_fig8_submit_rate_ms", "ms"),
    ("query.q_fig9_churn_ms", "ms"),
    ("query.q_tier_event_counts_ms", "ms"),
    ("query.q_users_distinct_ms", "ms"),
    ("query.q_sort_tier_time_ms", "ms"),
    ("query.q_join_inst_coll_ms", "ms"),
    ("query.q_usage_p99_by_machine_ms", "ms"),
    ("query.q_filter_selective_ms", "ms"),
    ("query.table_clone_ms", "ms"),
    ("query.rows_scanned", "count"),
    ("query.groups_out", "count"),
    ("analysis.era_analyses_ms", "ms"),
    ("analysis.table2_ms", "ms"),
    ("analysis.fig13_ms", "ms"),
    ("analysis.fig11_ms", "ms"),
    ("analysis.queueing_ms", "ms"),
    ("serve.queries_per_s", "1/s"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p95_ms", "ms"),
    ("serve.exec_heavy_ms_p50", "ms"),
    ("serve.exec_light_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.handoff_us_p50", "us"),
    ("serve.service_us_per_query", "us"),
    ("serve.prod_sheds", "count"),
    ("serve.lower_tier_sheds", "count"),
    ("serve.log_digest", "hash"),
    ("serve.epoch_build_ms", "ms"),
    ("sim.peak_rss_mb", "MiB"),
    ("trace.peak_rss_mb", "MiB"),
    ("core.peak_rss_mb", "MiB"),
    ("query.peak_rss_mb", "MiB"),
    ("analysis.peak_rss_mb", "MiB"),
    ("serve.peak_rss_mb", "MiB"),
    ("harness.trace_overhead_share", "share"),
    ("harness.peak_rss_mb", "MiB"),
    ("harness.fail_share", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<x>"` values inside the JSON array that follows `"<key>":`.
    /// Enough of a parser for a file whose layout this repo controls.
    fn names_and_units(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        let field = |obj: &str, f: &str| -> Option<String> {
            let at = obj.find(&format!("\"{f}\""))?;
            let rest = &obj[at + f.len() + 2..];
            let q0 = rest.find('"')? + 1;
            let q1 = q0 + rest[q0..].find('"')?;
            Some(rest[q0..q1].to_string())
        };
        json[open..close]
            .split('}')
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&json, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = names_and_units(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(*name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(ok(w, "_.-", 64) && seen.insert(w), "{w}");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
