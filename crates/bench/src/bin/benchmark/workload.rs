//! The four workloads: what each rank writes per iteration, how the
//! iterations are paced, what the readers ask, and the node configuration
//! that goes with it. Sizes are for a 2-core reference host; every workload
//! is a closed loop — a simulation waits for its own I/O phase.

use crate::gen::Field;
use std::time::Duration;

/// Compute cores (client handles) per node in every workload.
pub const RANKS: u32 = 4;

/// Unpaced, synchronous iterations at the start of every node: they fill
/// the reader's history window and fault in the shared buffer, and they are
/// the bulk of `setup_s`.
pub const WARMUP_ITERATIONS: u32 = 32;

/// How the measured iterations are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// One iteration per `period`; the compute phase sleeps the rest.
    Period(Duration),
    /// No compute phase: bursts of `iterations` back-to-back iterations,
    /// each burst timed until its last iteration is queryable.
    Bursts { iterations: u32 },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub variables: u32,
    /// Bytes of one variable of one rank.
    pub block_bytes: usize,
    pub field: Field,
    /// `using=` of the persist action, if any.
    pub filter: Option<&'static str>,
    pub pacing: Pacing,
    /// Shared-memory buffer of the node.
    pub buffer_bytes: usize,
    /// Block cache of the reader.
    pub cache_bytes: u64,
    /// Point lookups per compute phase (per burst for `Bursts`).
    pub point_queries: u32,
    /// Point lookups address the fresh iteration only (`false`: any
    /// published iteration, which defeats the cache).
    pub point_on_fresh: bool,
    /// History (range) queries per compute phase (per burst for `Bursts`).
    pub history_queries: u32,
    /// Trailing iterations one history query covers.
    pub history_window: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        why: "CM1 regime: 1 MiB/iteration of 64 KiB arrays every 20 ms, dedicated core mostly idle; client cost is checksum + memcpy",
        variables: 4,
        block_bytes: 64 << 10,
        field: Field::Noise,
        filter: None,
        pacing: Pacing::Period(Duration::from_millis(20)),
        buffer_bytes: 64 << 20,
        cache_bytes: 32 << 20,
        point_queries: 1,
        point_on_fresh: true,
        history_queries: 1,
        history_window: 16,
    },
    Workload {
        name: "smallvars",
        why: "256 writes of 256 B per 10 ms iteration: bytes are negligible, so per-call, per-dataset and per-iteration (fsync, manifest) costs are all that is left",
        variables: 64,
        block_bytes: 256,
        field: Field::Noise,
        filter: None,
        pacing: Pacing::Period(Duration::from_millis(10)),
        buffer_bytes: 64 << 20,
        cache_bytes: 32 << 20,
        point_queries: 1,
        point_on_fresh: true,
        history_queries: 1,
        history_window: 16,
    },
    Workload {
        name: "saturate",
        why: "steady's payload with no compute phase and an 8 MiB buffer: the dedicated core is never idle, clients run through Block backpressure; per-burst medians",
        variables: 4,
        block_bytes: 64 << 10,
        field: Field::Noise,
        filter: None,
        pacing: Pacing::Bursts { iterations: 32 },
        buffer_bytes: 8 << 20,
        cache_bytes: 32 << 20,
        point_queries: 8,
        point_on_fresh: true,
        history_queries: 4,
        history_window: 16,
    },
    Workload {
        name: "insitu",
        why: "LZSS-compressed 16 KiB f32 fields with readers over all history and a cache 14x too small: decode beside encode, reads beside writes",
        variables: 4,
        block_bytes: 16 << 10,
        field: Field::Smooth,
        filter: Some("lzss"),
        pacing: Pacing::Period(Duration::from_millis(20)),
        buffer_bytes: 64 << 20,
        cache_bytes: 4 << 20,
        point_queries: 8,
        point_on_fresh: false,
        history_queries: 1,
        history_window: 64,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// User payload bytes of one iteration (all ranks, all variables).
    pub fn iteration_bytes(&self) -> u64 {
        u64::from(RANKS) * u64::from(self.variables) * self.block_bytes as u64
    }

    /// Measured iterations for a run of `seconds`: counts, not durations,
    /// so byte and file counts repeat exactly. Paced workloads fill the
    /// time with their period; `saturate` runs three bursts per second (a
    /// 32 MiB burst takes about 0.3 s on the reference host), which the
    /// caller rounds to whole bursts per node instance: 64 at 20 s.
    pub fn measured_iterations(&self, seconds: u32) -> u32 {
        match self.pacing {
            Pacing::Period(period) => (f64::from(seconds) / period.as_secs_f64()).round() as u32,
            Pacing::Bursts { iterations } => 3 * seconds * iterations,
        }
    }

    pub fn variable_name(&self, variable: u32) -> String {
        format!("v{variable:02}")
    }

    /// Every variable's name, indexed by variable.
    pub fn variable_names(&self) -> Vec<String> {
        (0..self.variables).map(|v| self.variable_name(v)).collect()
    }

    /// The node configuration, as the XML a user would write.
    pub fn config_xml(&self, observability: bool) -> String {
        use std::fmt::Write as _;
        let (dtype, elem) = match self.field {
            Field::Noise => ("double", 8),
            Field::Smooth => ("real", 4),
        };
        let mut xml = String::from("<damaris>\n");
        let _ = writeln!(
            xml,
            "  <buffer size=\"{}\" allocator=\"partition\" queue=\"4096\"/>",
            self.buffer_bytes
        );
        let _ = writeln!(xml, "  <observability enabled=\"{observability}\"/>");
        let _ = writeln!(
            xml,
            "  <layout name=\"block\" type=\"{dtype}\" dimensions=\"{}\"/>",
            self.block_bytes / elem
        );
        for v in 0..self.variables {
            let _ = writeln!(
                xml,
                "  <variable name=\"{}\" layout=\"block\"/>",
                self.variable_name(v)
            );
        }
        if let Some(filter) = self.filter {
            let _ = writeln!(
                xml,
                "  <event name=\"end_of_iteration\" action=\"persist\" using=\"{filter}\"/>"
            );
        }
        xml.push_str("</damaris>\n");
        xml
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_parses_and_sizes_as_documented() {
        for w in &WORKLOADS {
            let cfg = damaris_core::Config::from_xml(&w.config_xml(false)).expect(w.name);
            assert_eq!(cfg.variables.len() as u32, w.variables);
            assert_eq!(cfg.buffer_size, w.buffer_bytes);
            assert!(!cfg.observability.enabled);
            let def = &cfg.variables[0];
            assert_eq!(cfg.layout_of(def).byte_size(), w.block_bytes as u64);
            assert!(w.why.len() <= 200, "{} why too long", w.name);
            assert!(
                damaris_core::Config::from_xml(&w.config_xml(true))
                    .expect(w.name)
                    .observability
                    .enabled
            );
        }
        assert_eq!(by_name("steady").unwrap().iteration_bytes(), 1 << 20);
        assert_eq!(by_name("smallvars").unwrap().iteration_bytes(), 64 << 10);
        assert_eq!(by_name("insitu").unwrap().iteration_bytes(), 256 << 10);
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn iteration_counts_scale_with_seconds() {
        assert_eq!(by_name("steady").unwrap().measured_iterations(20), 1000);
        assert_eq!(by_name("smallvars").unwrap().measured_iterations(20), 2000);
        assert_eq!(
            by_name("saturate").unwrap().measured_iterations(20),
            60 * 32
        );
        assert_eq!(by_name("insitu").unwrap().measured_iterations(5), 250);
    }
}
