//! Inline compression in the dedicated core (paper §IV-D): the simulation
//! writes uncompressed data into shared memory; the dedicated core
//! compresses while persisting — the overhead is completely hidden from
//! the compute cores, unlike HDF5's client-side gzip in the
//! file-per-process approach.
//!
//! Run with: `cargo run --release --example inline_compression`

use damaris_repro::core::{Config, NodeRuntime};
use damaris_repro::format::SdfReader;
use std::time::Instant;

const VALUES: usize = 256 * 1024; // 1 MiB per variable
const CLIENTS: usize = 3;
const ITERATIONS: u32 = 4;

fn run(label: &str, filter: Option<&str>) -> Result<(u64, u64, f64), Box<dyn std::error::Error>> {
    let event = match filter {
        Some(spec) => {
            format!(r#"<event name="end_of_iteration" action="persist" using="{spec}"/>"#)
        }
        None => String::new(),
    };
    let xml = format!(
        r#"<damaris>
             <buffer size="33554432" allocator="partition"/>
             <layout name="grid" type="real" dimensions="{VALUES}"/>
             <variable name="theta" layout="grid" unit="K"/>
             {event}
           </damaris>"#
    );
    let config = Config::from_xml(&xml)?;
    let dir = std::env::temp_dir().join(format!(
        "damaris-inline-comp-{}-{label}",
        std::process::id()
    ));

    let runtime = NodeRuntime::start(config, CLIENTS, &dir)?;
    let clients = runtime.clients();
    let t0 = Instant::now();
    let mut client_seconds = 0.0;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| {
                s.spawn(move || {
                    // Warm-bubble-ish data: smooth + noisy low bits.
                    let mut h = 0x517c_c1b7u32 ^ client.id();
                    let mut t = 0.0;
                    for it in 0..ITERATIONS {
                        let data: Vec<f32> = (0..VALUES)
                            .map(|i| {
                                h = h.wrapping_mul(0x0100_0193) ^ h.rotate_left(13);
                                300.0
                                    + ((i + it as usize) as f32 * 0.001).sin() * 4.0
                                    + 1.0e-4 * (h >> 16) as f32
                            })
                            .collect();
                        let w0 = Instant::now();
                        client.write_f32("theta", it, &data).unwrap();
                        client.end_iteration(it).unwrap();
                        t += w0.elapsed().as_secs_f64();
                    }
                    t
                })
            })
            .collect();
        for h in handles {
            client_seconds += h.join().expect("client thread");
        }
    });
    let report = runtime.finish()?;
    let wall = t0.elapsed().as_secs_f64();

    // Verify data integrity through the filter.
    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf"))?;
    let back = reader.read_f32("/iter-0/rank-0/theta")?;
    assert_eq!(back.len(), VALUES);

    println!(
        "{label:<22} logical {:>6.1} MB  stored {:>6.1} MB  ratio {:>4.0}%  client write {:>6.1} ms/iter  wall {:.2}s",
        report.bytes_received as f64 / 1e6,
        report.bytes_stored as f64 / 1e6,
        100.0 * report.bytes_received as f64 / report.bytes_stored as f64,
        1000.0 * client_seconds / (CLIENTS as f64 * ITERATIONS as f64),
        wall
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok((report.bytes_received, report.bytes_stored, client_seconds))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{CLIENTS} clients × {ITERATIONS} iterations × 1 MiB; compression runs in the dedicated core:\n"
    );
    let _ = run("(warm-up)", None)?;
    let (_, _, t_plain) = run("no compression", None)?;
    let (logical, stored, t_gzip) = run("lzss|huff (gzip-like)", Some("lzss|huff"))?;
    let (_, stored16, t_16) = run("precision16|lzss|huff", Some("precision16|lzss|huff"))?;

    println!(
        "\nstorage saved: {:.0}% (lossless), {:.0}% (16-bit for visualization)",
        100.0 * (1.0 - stored as f64 / logical as f64),
        100.0 * (1.0 - stored16 as f64 / logical as f64),
    );
    let overhead = ((t_gzip.max(t_16) / t_plain) - 1.0) * 100.0;
    if overhead.abs() < 25.0 {
        println!(
            "client-visible cost of enabling compression: within measurement noise \
             ({overhead:+.0}%) — the paper's point: it runs in the dedicated core's spare time"
        );
    } else {
        println!("client-visible cost of enabling compression: {overhead:+.0}%");
    }
    Ok(())
}
