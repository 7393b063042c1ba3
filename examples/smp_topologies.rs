//! Multiple dedicated cores per node (paper §V-A) and inline visualization
//! (§VI): the symmetric and asymmetric interaction semantics, plus the
//! `visualize` action rendering max-intensity projections in the dedicated
//! core while the simulation runs.
//!
//! Run with: `cargo run --release --example smp_topologies`

use damaris_repro::core::{Config, NodeRuntime, SmpNode, Topology};
use damaris_repro::format::SdfReader;

const NX: usize = 32;
const NY: usize = 32;
const NZ: usize = 16;

fn config(extra_events: &str) -> Config {
    Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="33554432" allocator="partition"/>
             <layout name="grid" type="real" dimensions="{NZ},{NY},{NX}"/>
             <variable name="theta" layout="grid" unit="K"/>
             {extra_events}
           </damaris>"#
    ))
    .expect("valid config")
}

/// A little storm: warm column in the middle of the box.
fn field(client: u32, iteration: u32) -> Vec<f32> {
    let mut out = Vec::with_capacity(NX * NY * NZ);
    for z in 0..NZ {
        for y in 0..NY {
            for x in 0..NX {
                let dx = x as f32 - NX as f32 / 2.0;
                let dy = y as f32 - NY as f32 / 2.0 + client as f32 * 3.0;
                let r2 = dx * dx + dy * dy;
                let bump = 8.0 * (-r2 / (30.0 + iteration as f32 * 10.0)).exp();
                out.push(300.0 + bump * (1.0 - z as f32 / NZ as f32));
            }
        }
    }
    out
}

fn drive(clients: Vec<damaris_repro::core::DamarisClient>, iterations: u32) {
    std::thread::scope(|s| {
        for client in clients {
            s.spawn(move || {
                for it in 0..iterations {
                    client
                        .write_f32("theta", it, &field(client.id(), it))
                        .unwrap();
                    client.end_iteration(it).unwrap();
                }
            });
        }
    });
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tmp = std::env::temp_dir().join(format!("damaris-smp-{}", std::process::id()));

    // --- Symmetric: 2 dedicated cores, each serving 3 of 6 clients.
    let dir = tmp.join("symmetric");
    let node = SmpNode::start(config(""), 6, Topology::Symmetric { dedicated: 2 }, &dir)?;
    drive(node.clients(), 2);
    let report = node.finish()?;
    println!(
        "symmetric: {} dedicated cores, each persisted {} iterations of 3 clients",
        report.io.len(),
        report.io[0].iterations_persisted
    );
    for (g, r) in report.io.iter().enumerate() {
        println!(
            "  group {g}: {} variables, {} bytes -> {} files",
            r.variables_received, r.bytes_received, r.files_created
        );
    }

    // --- Asymmetric: 1 I/O core + 1 analysis core.
    let dir = tmp.join("asymmetric");
    let node = SmpNode::start(config(""), 4, Topology::Asymmetric, &dir)?;
    drive(node.clients(), 3);
    let report = node.finish()?;
    let analysis = report.analysis.expect("asymmetric topology");
    println!("\nasymmetric: I/O core persisted {} iterations; analysis core summarized {} datasets off the I/O path",
        report.io[0].iterations_persisted, analysis.datasets_analyzed);
    let stats = SdfReader::open(dir.join("analysis/analysis-iter-000000.sdf"))?;
    for name in stats.dataset_names().iter().take(2) {
        let row = stats.read_f64(name)?;
        println!(
            "  {name}: min={:.2} max={:.2} mean={:.2}",
            row[0], row[1], row[2]
        );
    }

    // --- Inline visualization: the `visualize` action renders previews in
    // the dedicated core at each end of iteration, before persistence.
    let dir = tmp.join("visual");
    let cfg = config(
        r#"<event name="end_of_iteration" action="visualize"/>
           <event name="end_of_iteration" action="persist"/>"#,
    );
    let runtime = NodeRuntime::start(cfg, 2, &dir)?;
    drive(runtime.clients(), 2);
    let report = runtime.finish()?;
    println!(
        "\nvisualization: persisted {} iterations and rendered previews:",
        report.iterations_persisted
    );
    let mut pgms: Vec<_> = walk(&dir, "pgm");
    pgms.sort();
    for p in &pgms {
        println!("  {}", p.display());
    }
    let preview = SdfReader::open(dir.join("node-0/preview-iter-000000.sdf"))?;
    let img = preview.read_bytes("/iter-0/rank-0-theta")?;
    println!(
        "  preview dataset /iter-0/rank-0-theta: {}x{} 8-bit, brightest pixel {}",
        NY,
        NX,
        img.iter().max().unwrap()
    );

    std::fs::remove_dir_all(&tmp).ok();
    Ok(())
}

fn walk(dir: &std::path::Path, ext: &str) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if let Ok(entries) = std::fs::read_dir(&d) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == ext) {
                    out.push(p);
                }
            }
        }
    }
    out
}
