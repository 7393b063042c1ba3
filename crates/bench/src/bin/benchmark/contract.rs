//! The names, units, directions and regression bounds of every metric —
//! the one table the result lines, `--selfcheck` and the root
//! `BENCHMARK.json` all come from. A unit test holds `BENCHMARK.json` to
//! this table.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen: about
    /// three times the widest run-to-run spread measured on the reference
    /// host (README.md, "Measured spread"). A timing whose spread, times
    /// three, is beyond the 0.25 the benchmark contract allows is not in
    /// this list but in [`PER_LAYER`]: `time_to_queryable_p50_ms`,
    /// `query_history_p50_us`, `core.client.write_p99_us`.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("write_call_p50_us", "us", "lower", 0.25),
    e2e("io_phase_p50_ms", "ms", "lower", 0.25),
    e2e("durable_mb_s", "MB/s", "higher", 0.25),
    e2e("query_point_p50_us", "us", "lower", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.001),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
];

/// Per-layer metrics of the traced pass: name, unit, better.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("xml.config_parse_us", "us", "lower"),
    ("core.node.start_ms", "ms", "lower"),
    ("core.node.finish_ms", "ms", "lower"),
    ("format.crc32_mb_s", "MB/s", "higher"),
    ("shm.copy_gb_s", "GB/s", "higher"),
    ("shm.alloc_release_ns", "ns", "lower"),
    ("shm.queue_push_pop_ns", "ns", "lower"),
    ("core.journal.append_ns", "ns", "lower"),
    ("core.client.write_span_us", "us", "lower"),
    ("core.client.write_p99_us", "us", "lower"),
    ("core.client.write_self_us", "us", "lower"),
    ("core.client.end_iteration_us", "us", "lower"),
    ("core.client.blocked_share", "ratio", "lower"),
    ("shm.buffer_peak_bytes", "bytes", "lower"),
    ("time_to_queryable_p50_ms", "ms", "lower"),
    ("query_history_p50_us", "us", "lower"),
    ("core.server.idle_share", "ratio", "higher"),
    ("core.server.dispatch_ms_per_iter", "ms", "lower"),
    ("core.persist.write_ms_per_iter", "ms", "lower"),
    ("core.persist.commit_ms_per_iter", "ms", "lower"),
    ("core.iterations_persisted", "count", "higher"),
    ("core.iterations_degraded", "count", "lower"),
    ("core.writes_dropped", "count", "lower"),
    ("core.crc_quarantined", "count", "lower"),
    ("core.persist_retries", "count", "lower"),
    ("format.sdf_write_us_per_iter", "us", "lower"),
    ("format.sdf_overhead_bytes_per_dataset", "bytes", "lower"),
    ("format.reader_open_us", "us", "lower"),
    ("format.reader_block_us", "us", "lower"),
    ("compress.encode_mb_s", "MB/s", "higher"),
    ("compress.decode_mb_s", "MB/s", "higher"),
    ("compress.ratio", "ratio", "lower"),
    ("fs.begin_us", "us", "lower"),
    ("fs.commit_us", "us", "lower"),
    ("fs.fsync_share", "ratio", "lower"),
    ("fs.manifest_publish_us.n100", "us", "lower"),
    ("fs.manifest_publish_us.n1000", "us", "lower"),
    ("fs.manifest_load_us.n1000", "us", "lower"),
    ("fs.files_created", "count", "lower"),
    ("fs.bytes_stored", "bytes", "lower"),
    ("fs.dev.write_syscalls_per_iter", "count", "lower"),
    ("fs.dev.write_bytes_per_user_byte", "ratio", "lower"),
    ("query.refresh_us", "us", "lower"),
    ("query.refresh_noop_us", "us", "lower"),
    ("query.lookup_miss_us", "us", "lower"),
    ("query.lookup_hit_ns", "ns", "lower"),
    ("query.lookup_absent_ns", "ns", "lower"),
    ("query.range_us_per_hit", "us", "lower"),
    ("query.cache_hit_rate", "ratio", "higher"),
    ("query.cache_evictions", "count", "lower"),
    ("query.block_reads", "count", "lower"),
    ("query.compact_ms_per_batch", "ms", "lower"),
    ("query.range_us_compacted", "us", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.harness_span_ns", "ns", "lower"),
    ("coverage.client", "ratio", "higher"),
    ("coverage.epe", "ratio", "higher"),
    ("host.fsync_probe_p50_us", "us", "lower"),
    ("host.crc_probe_mb_s", "MB/s", "higher"),
];

/// Unit of a metric of either list. Panics on a name the contract does
/// not have: a metric is added here first.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in contract.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(PER_LAYER.len() <= 128);
    }

    /// The root `BENCHMARK.json` has a row for every metric and workload
    /// of this table and no other. The stand-in `serde_json` under
    /// `vendor/` writes JSON but cannot read it, so rows are compared as
    /// text, one object as one line fragment; strings go through its
    /// writer, which escapes them. The file is found by walking up from the
    /// package: the benchmark builds as its own package and as a
    /// `damaris-bench` binary.
    #[test]
    fn benchmark_json_matches_this_table() {
        let start = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let file = start
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let text = std::fs::read_to_string(&file).unwrap();
        let q = |s: &str| serde_json::Value::from(s).to_string();
        let mut rows: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
            .collect();
        rows.extend(END_TO_END.iter().map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better),
                m.bound
            )
        }));
        rows.extend(PER_LAYER.iter().map(|&(name, unit, better)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(name),
                q(unit),
                q(better)
            )
        }));
        for row in &rows {
            assert!(text.contains(row), "{} lacks the row {row}", file.display());
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            rows.len(),
            "a row too many"
        );
        let seconds = format!("\"run_seconds\": {},", crate::DEFAULT_SECONDS);
        assert!(
            text.contains(&seconds),
            "{} lacks {seconds}",
            file.display()
        );
    }
}
