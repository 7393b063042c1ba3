//! Quickstart: the minimal Damaris session from the paper's §III-D,
//! translated from its Fortran example.
//!
//! One SMP "node" with 3 compute clients and 1 dedicated core; each client
//! writes a 3D variable and signals a user event; the dedicated core
//! persists everything into one SDF file per iteration and runs a stats
//! action in response to the event.
//!
//! Run with: `cargo run --example quickstart`

use damaris_repro::core::{Config, NodeRuntime};
use damaris_repro::format::SdfReader;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's configuration file (§III-D), extended with an explicit
    // buffer element and a stats action bound to "my_event".
    let xml = r#"
        <damaris>
          <buffer size="16777216" allocator="partition" queue="256"/>
          <layout name="my_layout" type="real" dimensions="64,16,2" language="fortran"/>
          <variable name="my_variable" layout="my_layout" unit="K"/>
          <event name="my_event" action="stats" scope="local"/>
        </damaris>"#;
    let config = Config::from_xml(xml)?;

    let out_dir = std::env::temp_dir().join(format!("damaris-quickstart-{}", std::process::id()));
    println!("output directory: {}", out_dir.display());

    // df_initialize: start the node (3 clients + 1 dedicated core).
    let runtime = NodeRuntime::start(config, 3, &out_dir)?;
    let clients = runtime.clients();

    // Each "compute core" runs on its own thread.
    std::thread::scope(|s| {
        for client in clients {
            s.spawn(move || {
                for step in 0..2u32 {
                    // A 64×16×2 Fortran 'real' array (my_data in the paper).
                    let my_data: Vec<f32> = (0..64 * 16 * 2)
                        .map(|i| 300.0 + client.id() as f32 + i as f32 * 1e-3)
                        .collect();
                    // call df_write("my_variable", step, my_data)
                    client.write_f32("my_variable", step, &my_data).unwrap();
                    // call df_signal("my_event", step)
                    client.signal("my_event", step).unwrap();
                    client.end_iteration(step).unwrap();
                }
            });
        }
    });

    // df_finalize: drain the dedicated core and collect its accounting.
    let report = runtime.finish()?;
    println!(
        "dedicated core persisted {} iterations, {} variables, {} bytes -> {} files",
        report.iterations_persisted,
        report.variables_received,
        report.bytes_received,
        report.files_created
    );

    // The dedicated core gathered all 3 clients into ONE file per step.
    let reader = SdfReader::open(out_dir.join("node-0/iter-000000.sdf"))?;
    println!("iter-0 file holds {} datasets:", reader.len());
    for name in reader.dataset_names() {
        let info = reader.info(&name).expect("listed");
        println!(
            "  {name}  {:?} {:?}  unit={}",
            info.layout.dtype,
            info.layout.dims,
            info.attr("unit").and_then(|a| a.as_str()).unwrap_or("?"),
        );
    }
    // And the stats action produced min/max/mean per variable.
    let stats = SdfReader::open(out_dir.join("node-0/stats-iter-000000.sdf"))?;
    for name in stats.dataset_names() {
        let row = stats.read_f64(&name)?;
        println!(
            "  {name}: min={:.2} max={:.2} mean={:.2}",
            row[0], row[1], row[2]
        );
    }

    std::fs::remove_dir_all(&out_dir).ok();
    Ok(())
}
