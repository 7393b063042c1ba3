//! Inline statistics — an example of the paper's "smart actions" on
//! enriched datasets (§III-A): because the dedicated core knows each
//! dataset's name, layout and type, it can compute scientific summaries
//! (min/max/mean per variable) without touching the simulation.
//!
//! Statistics are written as a small `stats-iter-N.sdf` file next to the
//! data, one `[min, max, mean]` triple per (variable, source).

use crate::error::DamarisError;
use crate::plugin::{ActionContext, EventInfo, Plugin};
use damaris_format::{DataType, DatasetOptions, Layout};

/// Computes per-variable min/max/mean on the event's iteration.
///
/// Non-consuming: data stays resident for a later persist action (so a
/// `stats` binding can precede `persist` on the same event).
#[derive(Default)]
pub struct StatsPlugin {
    iterations_processed: u64,
}

impl StatsPlugin {
    /// New stateless stats plugin.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Summary of one dataset.
pub fn summarize(dtype: DataType, bytes: &[u8]) -> Option<[f64; 3]> {
    let values: Vec<f64> = match dtype {
        DataType::F32 => bytes
            .chunks_exact(4)
            .map(|c| f64::from(f32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect(),
        DataType::F64 => bytes
            .chunks_exact(8)
            // invariant: chunks_exact(8) yields exactly 8-byte slices.
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect(),
        DataType::I32 => bytes
            .chunks_exact(4)
            .map(|c| f64::from(i32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect(),
        DataType::I64 => bytes
            .chunks_exact(8)
            // invariant: chunks_exact(8) yields exactly 8-byte slices.
            .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")) as f64)
            .collect(),
        DataType::U8 => bytes.iter().map(|&b| f64::from(b)).collect(),
    };
    if values.is_empty() {
        return None;
    }
    let mut min = f64::MAX;
    let mut max = f64::MIN;
    let mut sum = 0.0;
    for v in &values {
        min = min.min(*v);
        max = max.max(*v);
        sum += v;
    }
    Some([min, max, sum / values.len() as f64])
}

impl Plugin for StatsPlugin {
    fn name(&self) -> &str {
        "stats"
    }

    fn handle(
        &mut self,
        ctx: &mut ActionContext<'_>,
        event: &EventInfo,
    ) -> Result<(), DamarisError> {
        let iteration = event.iteration;
        let mut rows: Vec<(String, [f64; 3])> = Vec::new();
        for var in ctx.store.iteration_entries(iteration) {
            if let Some(stats) = summarize(var.layout.dtype, var.data()) {
                rows.push((
                    format!(
                        "/iter-{}/rank-{}/{}.stats",
                        iteration, var.key.source, var.name
                    ),
                    stats,
                ));
            }
        }
        if rows.is_empty() {
            return Ok(());
        }
        self.iterations_processed += 1;
        let file = format!("node-{}/stats-iter-{:06}.sdf", ctx.node_id, iteration);
        let mut writer = ctx.backend.create_sdf(&file)?;
        let layout = Layout::new(DataType::F64, &[3]);
        for (path, stats) in rows {
            writer.write_dataset_bytes(
                &path,
                &layout,
                &stats
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<u8>>(),
                &DatasetOptions::plain(),
            )?;
        }
        let total = writer.finish()?;
        ctx.backend.account_bytes(total);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_f32() {
        let bytes: Vec<u8> = [1.0f32, -2.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let [min, max, mean] = summarize(DataType::F32, &bytes).unwrap();
        assert_eq!(min, -2.0);
        assert_eq!(max, 4.0);
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_integer_types() {
        let bytes: Vec<u8> = [10i32, -5, 7]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let [min, max, _] = summarize(DataType::I32, &bytes).unwrap();
        assert_eq!((min, max), (-5.0, 10.0));
        let [min, max, mean] = summarize(DataType::U8, &[0, 255, 1]).unwrap();
        assert_eq!((min, max), (0.0, 255.0));
        assert!((mean - 256.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn summarize_empty_is_none() {
        assert!(summarize(DataType::F64, &[]).is_none());
    }
}
