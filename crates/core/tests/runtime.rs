//! End-to-end tests of the node runtime: clients on real threads, the
//! dedicated-core server, the per-client rings, plugins, and SDF output.

use damaris_core::{Config, DamarisError, NodeRuntime};
use damaris_format::SdfReader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "damaris-core-test-{tag}-{}-{n}",
        std::process::id()
    ))
}

/// 4 MiB split between the clients: 1 MiB each for up to four.
fn config() -> Config {
    Config::from_xml(
        r#"<damaris>
             <buffer size="4194304" queue="64"/>
             <layout name="grid3d" type="real" dimensions="8,4,2"/>
             <layout name="scalars" type="double" dimensions="4"/>
             <variable name="theta" layout="grid3d" unit="K"/>
             <variable name="wind" layout="grid3d" unit="m/s"/>
             <variable name="diag" layout="scalars"/>
           </damaris>"#,
    )
    .expect("valid config")
}

#[test]
fn single_client_roundtrip() {
    let dir = scratch("single");
    let runtime = NodeRuntime::start(config(), 1, &dir).unwrap();
    let client = &runtime.clients()[0];

    let theta: Vec<f32> = (0..64).map(|i| 250.0 + i as f32).collect();
    let diag = [1.0f64, 2.0, 3.0, 4.0];
    client.write_f32("theta", 0, &theta).unwrap();
    client.write_f64("diag", 0, &diag).unwrap();
    client.end_iteration(0).unwrap();

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 1);
    assert_eq!(report.variables_received, 2);
    assert_eq!(report.bytes_received, 64 * 4 + 32);
    assert_eq!(report.files_created, 1);

    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(reader.read_f32("/iter-0/rank-0/theta").unwrap(), theta);
    assert_eq!(reader.read_f64("/iter-0/rank-0/diag").unwrap(), diag);
    let info = reader.info("/iter-0/rank-0/theta").unwrap();
    assert_eq!(info.attr("unit").unwrap().as_str(), Some("K"));
    // The coordinates are index fields, not attributes.
    assert!(info.attr("iteration").is_none() && info.attr("source").is_none());
    let Ok(section) = reader.query_section();
    let key = section
        .keys
        .iter()
        .find(|k| section.variable(k) == "theta")
        .unwrap();
    assert_eq!((key.iteration, key.source), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// The `smallvars` shape — 64 variables of 256 B from each of 4 clients —
/// persists its coordinates as index fields: no dataset carries an
/// `iteration` or `source` attribute, every one is found by its
/// coordinates, and the index costs it little more than its path.
/// The typed writes pass an array's memory as it lies (on a little-endian
/// target): `write_f32(x)` and `write(x's little-endian bytes)` store the
/// same dataset bytes, for `f64` and dynamic shapes too.
#[test]
fn typed_writes_store_what_byte_writes_store() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576" queue="64"/>
             <layout name="grid" type="real" dimensions="64"/>
             <layout name="pairs" type="double" dimensions="8"/>
             <layout name="cloud" type="real" dimensions="?"/>
             <variable name="typed" layout="grid"/>
             <variable name="raw" layout="grid"/>
             <variable name="typed64" layout="pairs"/>
             <variable name="raw64" layout="pairs"/>
             <variable name="typed_dyn" layout="cloud"/>
             <variable name="raw_dyn" layout="cloud"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("typed");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    let x: Vec<f32> = (0..64).map(|i| (i as f32).sin() * 1e3 - 0.5).collect();
    let y: Vec<f64> = (0..8).map(|i| f64::from(i) * -1.25e-300).collect();
    let x_le: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
    let y_le: Vec<u8> = y.iter().flat_map(|v| v.to_le_bytes()).collect();
    client.write_f32("typed", 0, &x).unwrap();
    client.write("raw", 0, &x_le).unwrap();
    client.write_f64("typed64", 0, &y).unwrap();
    client.write("raw64", 0, &y_le).unwrap();
    let dims = [4, 8];
    client
        .write_dynamic_f32("typed_dyn", 0, &dims, &x[..32])
        .unwrap();
    client
        .write_dynamic("raw_dyn", 0, &dims, &x_le[..128])
        .unwrap();
    client.end_iteration(0).unwrap();
    runtime.finish().unwrap();

    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    let path = |name: &str| format!("/iter-0/rank-0/{name}");
    let pairs = [
        ("typed", "raw"),
        ("typed64", "raw64"),
        ("typed_dyn", "raw_dyn"),
    ];
    for (typed, raw) in pairs {
        let (typed, raw) = (path(typed), path(raw));
        let bytes = |name: &str| reader.read_bytes(name).unwrap();
        assert_eq!(bytes(&typed), bytes(&raw), "{typed}");
        let layouts = (reader.info(&typed).unwrap(), reader.info(&raw).unwrap());
        assert_eq!(layouts.0.layout, layouts.1.layout, "{typed}");
    }
    assert_eq!(reader.read_f32("/iter-0/rank-0/typed").unwrap(), x);
    std::fs::remove_dir_all(&dir).ok();
}

/// A dynamic write of nothing — an empty particle set — through the
/// threaded node: its reservation is its shape header alone, the first
/// ending at its ring's end, and the run gives every byte back and stores
/// an empty dataset with the shape it carried.
#[test]
fn empty_dynamic_writes_store_their_shape_and_release_their_header() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4096"/>
             <layout name="cloud" type="byte" dimensions="?"/>
             <layout name="grid" type="real" dimensions="16"/>
             <variable name="cloud" layout="cloud"/>
             <variable name="fill" layout="cloud"/>
             <variable name="grid" layout="grid"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("empty-dyn");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    // Nothing is released before iteration 0 ends: a 16-byte header for
    // the fill, the fill, then the empty write's 16 bytes end the ring.
    let fill = vec![7; 4096 - 2 * 16];
    client
        .write_dynamic("fill", 0, &[fill.len() as u64], &fill)
        .unwrap();
    client.write_dynamic("cloud", 0, &[0], &[]).unwrap();
    client.end_iteration(0).unwrap();
    for it in 1..4u32 {
        client.write_dynamic("cloud", it, &[0, 3], &[]).unwrap();
        client.write_f32("grid", it, &[it as f32; 16]).unwrap();
        client.end_iteration(it).unwrap();
    }
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 4);
    assert_eq!(client.buffer_in_use(), 0);
    for it in 0..4u32 {
        let reader = SdfReader::open(dir.join(format!("node-0/iter-{it:06}.sdf"))).unwrap();
        let cloud = reader.info(&format!("/iter-{it}/rank-0/cloud")).unwrap();
        let dims: &[u64] = if it == 0 { &[0] } else { &[0, 3] };
        assert_eq!(cloud.layout.dims, dims);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn small_datasets_carry_coordinates_as_fields() {
    let names: Vec<String> = (0..64).map(|v| format!("v{v:02}")).collect();
    let variables: String = names
        .iter()
        .map(|n| format!(r#"<variable name="{n}" layout="small"/>"#))
        .collect();
    let config = Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="4194304" queue="512"/>
             <layout name="small" type="double" dimensions="32"/>
             {variables}
           </damaris>"#
    ))
    .expect("valid config");
    let dir = scratch("smallvars");
    let runtime = NodeRuntime::start(config, 4, &dir).unwrap();
    let block = |v: usize, rank: u32| vec![v as f64 + f64::from(rank) / 8.0; 32];
    for client in runtime.clients() {
        for (v, name) in names.iter().enumerate() {
            client.write_f64(name, 0, &block(v, client.id())).unwrap();
        }
        client.end_iteration(0).unwrap();
    }
    runtime.finish().unwrap();

    let file = dir.join("node-0/iter-000000.sdf");
    let reader = SdfReader::open(&file).unwrap();
    assert_eq!(reader.len(), 256);
    for info in reader.infos().unwrap() {
        assert!(
            info.attr("iteration").is_none() && info.attr("source").is_none(),
            "{}",
            info.path
        );
    }
    let Ok(section) = reader.query_section();
    for (v, name) in names.iter().enumerate() {
        for rank in 0..4u32 {
            let keys = section.candidates(damaris_format::key_hash(name, 0, rank));
            let key = keys
                .iter()
                .find(|k| section.variable(k) == name)
                .expect("found by coordinates");
            let bytes = reader.read_bytes_at(key.ordinal as usize).unwrap();
            let values: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(values, block(v, rank), "{name} of rank {rank}");
        }
    }
    let overhead = std::fs::metadata(&file).unwrap().len() - 256 * 256;
    assert!(
        overhead / 256 <= 40,
        "{overhead} B of metadata for 256 datasets"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_client_multi_iteration() {
    let dir = scratch("multi");
    let clients_n = 4;
    let iterations = 5u32;
    let runtime = NodeRuntime::start(config(), clients_n, &dir).unwrap();
    let clients = runtime.clients();

    std::thread::scope(|s| {
        for client in clients {
            s.spawn(move || {
                for it in 0..iterations {
                    let value = (client.id() * 1000 + it) as f32;
                    client.write_f32("theta", it, &vec![value; 64]).unwrap();
                    client.write_f32("wind", it, &vec![-value; 64]).unwrap();
                    client.end_iteration(it).unwrap();
                }
            });
        }
    });

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, u64::from(iterations));
    assert_eq!(
        report.variables_received,
        u64::from(iterations) * clients_n as u64 * 2
    );
    assert_eq!(report.files_created, u64::from(iterations));

    // Every (iteration, rank, variable) persisted with correct content.
    for it in 0..iterations {
        let path = dir.join(format!("node-0/iter-{it:06}.sdf"));
        let reader = SdfReader::open(&path).unwrap();
        assert_eq!(reader.len(), clients_n * 2);
        for rank in 0..clients_n {
            let value = (rank as u32 * 1000 + it) as f32;
            let theta = reader
                .read_f32(&format!("/iter-{it}/rank-{rank}/theta"))
                .unwrap();
            assert!(theta.iter().all(|&v| v == value));
            let wind = reader
                .read_f32(&format!("/iter-{it}/rank-{rank}/wind"))
                .unwrap();
            assert!(wind.iter().all(|&v| v == -value));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_copy_alloc_commit() {
    let dir = scratch("alloc");
    let runtime = NodeRuntime::start(config(), 1, &dir).unwrap();
    let client = &runtime.clients()[0];

    let mut region = client.alloc("theta", 3).unwrap();
    for (i, v) in region.as_mut_f32().iter_mut().enumerate() {
        *v = i as f32 * 0.5;
    }
    region.commit().unwrap();
    client.end_iteration(3).unwrap();

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 1);
    let reader = SdfReader::open(dir.join("node-0/iter-000003.sdf")).unwrap();
    let data = reader.read_f32("/iter-3/rank-0/theta").unwrap();
    assert_eq!(data[10], 5.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dropped_region_releases_without_writing() {
    let dir = scratch("drop");
    let runtime = NodeRuntime::start(config(), 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    drop(client.alloc("theta", 0).unwrap());
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    // No variable received: nothing persisted for the iteration… but the
    // end-of-iteration still fired with an empty store (no file created).
    assert_eq!(report.variables_received, 0);
    assert_eq!(report.files_created, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn api_errors() {
    let dir = scratch("errors");
    let runtime = NodeRuntime::start(config(), 1, &dir).unwrap();
    let client = &runtime.clients()[0];

    assert!(matches!(
        client.write_f32("nope", 0, &[0.0]).unwrap_err(),
        DamarisError::UnknownVariable(_)
    ));
    assert!(matches!(
        client.write_f32("theta", 0, &[0.0; 10]).unwrap_err(),
        DamarisError::LayoutMismatch { .. }
    ));
    assert!(matches!(
        client.signal("unbound_event", 0).unwrap_err(),
        DamarisError::UnknownEvent(_)
    ));
    runtime.finish().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_variable_rejected_not_deadlocked() {
    // A variable bigger than its client's share of the buffer must error
    // (TooLarge), not spin forever waiting for space — even though the
    // whole buffer would hold it. The diagnostics say so up front.
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="6144"/>
             <layout name="big" type="real" dimensions="1024"/>
             <variable name="v" layout="big"/>
           </damaris>"#,
    )
    .unwrap();
    let warnings = cfg.diagnostics(2);
    assert!(warnings.iter().any(|w| w.contains("'v' (4096 bytes)")));
    let dir = scratch("oversize");
    let runtime = NodeRuntime::start(cfg, 2, &dir).unwrap();
    let client = &runtime.clients()[0];
    let err = client.write_f32("v", 0, &[0.0; 1024]).unwrap_err();
    assert!(matches!(
        err,
        DamarisError::Buffer(damaris_shm::AllocError::TooLarge)
    ));
    runtime.finish().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A notice is held until its iteration commits, so a client whose ring
/// cannot hold one iteration's notices would block on it until its
/// backpressure wait failed: the node refuses such a queue at start.
#[test]
fn a_queue_too_small_for_one_iteration_is_refused_at_start() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576" queue="8"/>
             <layout name="l" type="real" dimensions="4"/>
             <variable name="a" layout="l"/>
             <variable name="b" layout="l"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("small-queue");
    // 2 slots each for 4 clients; a write of each variable and the end
    // need 3.
    match NodeRuntime::start(cfg.clone(), 4, &dir) {
        Err(DamarisError::Config(msg)) => assert!(msg.contains("2 notice slots"), "{msg}"),
        other => panic!("expected a config error, got {:?}", other.err()),
    }
    // 4 slots each for 2 clients are enough.
    let runtime = NodeRuntime::start(cfg, 2, &dir).unwrap();
    for client in runtime.clients() {
        client.write_f32("a", 0, &[1.0; 4]).unwrap();
        client.write_f32("b", 0, &[2.0; 4]).unwrap();
        client.end_iteration(0).unwrap();
    }
    assert_eq!(runtime.finish().unwrap().iterations_persisted, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn buffer_pressure_resolves_by_draining() {
    // Each client's half of the buffer fits 4 variables; write 40 per
    // client: clients must block on Full and make progress as the server
    // persists and releases.
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="8192" queue="8"/>
             <layout name="chunk" type="real" dimensions="256"/>
             <variable name="v" layout="chunk"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("pressure");
    let runtime = NodeRuntime::start(cfg, 2, &dir).unwrap();
    let clients = runtime.clients();
    // Clients synchronize per iteration, as a halo-exchanging simulation
    // does; unbounded skew between clients would need a buffer sized for
    // it (see DamarisClient docs).
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for client in clients {
            let gate = &gate;
            s.spawn(move || {
                for it in 0..40u32 {
                    client.write_f32("v", it, &vec![it as f32; 256]).unwrap();
                    client.end_iteration(it).unwrap();
                    gate.wait();
                }
            });
        }
    });
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 40);
    assert_eq!(report.variables_received, 80);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compression_via_persist_filter() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="4194304"/>
             <layout name="grid" type="real" dimensions="4096"/>
             <variable name="field" layout="grid"/>
             <event name="end_of_iteration" action="persist" using="lzss"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("compress");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    // Highly compressible field.
    client.write_f32("field", 0, &vec![288.15; 4096]).unwrap();
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert!(
        report.bytes_stored < report.bytes_received / 2,
        "stored {} of {}",
        report.bytes_stored,
        report.bytes_received
    );
    // And it reads back exactly.
    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    let back = reader.read_f32("/iter-0/rank-0/field").unwrap();
    assert!(back.iter().all(|&v| v == 288.15));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn codec_time_shows_in_the_nodes_own_numbers() {
    // `phase.filter_encode_ns`: one observation per persisted iteration
    // when the persist binding has a filter, none (and no clock read) when
    // it has not.
    for (using, observed) in [(r#" using="lzss""#, 3), ("", 0)] {
        let cfg = Config::from_xml(&format!(
            r#"<damaris>
                 <buffer size="4194304"/>
                 <layout name="grid" type="real" dimensions="4096"/>
                 <variable name="field" layout="grid"/>
                 <event name="end_of_iteration" action="persist"{using}/>
               </damaris>"#
        ))
        .unwrap();
        let dir = scratch("codec-time");
        let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
        let client = &runtime.clients()[0];
        let field: Vec<f32> = (0..4096).map(|i| (i % 97) as f32).collect();
        for it in 0..3 {
            client.write_f32("field", it, &field).unwrap();
            client.end_iteration(it).unwrap();
        }
        let last = dir.join("node-0/iter-000002.sdf");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !last.exists() {
            assert!(std::time::Instant::now() < deadline, "never persisted");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = runtime.metrics_snapshot();
        let codec = snap.histograms.get("phase.filter_encode_ns");
        assert_eq!(codec.map_or(0, |h| h.count), observed, "filter '{using}'");
        assert_eq!(codec.is_some_and(|h| h.sum > 0), observed > 0);
        runtime.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn stats_plugin_via_signal() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576"/>
             <layout name="grid" type="real" dimensions="128"/>
             <variable name="field" layout="grid"/>
             <event name="analyze" action="stats"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("stats");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    let data: Vec<f32> = (0..128).map(|i| i as f32).collect();
    client.write_f32("field", 7, &data).unwrap();
    client.signal("analyze", 7).unwrap();
    client.end_iteration(7).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.user_events, 1);

    let stats = SdfReader::open(dir.join("node-0/stats-iter-000007.sdf")).unwrap();
    let row = stats.read_f64("/iter-7/rank-0/field.stats").unwrap();
    assert_eq!(row, vec![0.0, 127.0, 63.5]);
    // Data still persisted afterwards (stats is non-consuming).
    let data_file = SdfReader::open(dir.join("node-0/iter-000007.sdf")).unwrap();
    assert_eq!(data_file.read_f32("/iter-7/rank-0/field").unwrap(), data);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unfinished_iteration_flushed_on_terminate() {
    let dir = scratch("flush");
    let runtime = NodeRuntime::start(config(), 2, &dir).unwrap();
    let clients = runtime.clients();
    clients[0].write_f32("theta", 0, &[1.0; 64]).unwrap();
    clients[0].end_iteration(0).unwrap();
    // Client 1 never ends the iteration; finish() must still persist.
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 1);
    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(reader.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_plugin_receives_events() {
    use damaris_core::{ActionContext, EventInfo, Plugin, PluginFactory};
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    static FIRED: AtomicU32 = AtomicU32::new(0);

    struct Counter;
    impl Plugin for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn handle(
            &mut self,
            _ctx: &mut ActionContext<'_>,
            event: &EventInfo,
        ) -> Result<(), DamarisError> {
            assert_eq!(event.name, "tick");
            FIRED.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <event name="tick" action="count_ticks"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("plugin");
    let factory: PluginFactory = Box::new(|_b| Ok(Box::new(Counter) as Box<dyn Plugin>));
    let runtime =
        NodeRuntime::start_with(cfg, 1, &dir, 3, vec![("count_ticks".to_string(), factory)])
            .unwrap();
    let client = &runtime.clients()[0];
    let _ = Arc::new(());
    for it in 0..5 {
        client.signal("tick", it).unwrap();
    }
    let report = runtime.finish().unwrap();
    assert_eq!(report.user_events, 5);
    assert_eq!(FIRED.load(Ordering::SeqCst), 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn write_is_fast_relative_to_persist() {
    // The paper's core claim at library scale: the client-visible cost is a
    // memcpy, not the storage I/O. Compare time spent in write() vs the
    // wall time the server needs to drain everything.
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="67108864" allocator="partition"/>
             <layout name="big" type="real" dimensions="262144"/>
             <variable name="field" layout="big"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("fast");
    let runtime = NodeRuntime::start(cfg, 2, &dir).unwrap();
    let clients = runtime.clients();
    let data = vec![1.0f32; 262_144]; // 1 MiB per write
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in clients {
            let data = &data;
            s.spawn(move || {
                for it in 0..8u32 {
                    client.write_f32("field", it, data).unwrap();
                    client.end_iteration(it).unwrap();
                }
            });
        }
    });
    let client_time = t0.elapsed();
    let report = runtime.finish().unwrap();
    let total_time = t0.elapsed();
    assert_eq!(report.iterations_persisted, 8);
    // Clients must not be slower than the full pipeline end-to-end.
    assert!(client_time <= total_time);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_shape_particle_writes() {
    // The paper's particle-simulation API: per-rank, per-iteration particle
    // counts vary; the shape travels with each write (§III-D).
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576"/>
             <layout name="particles" type="real" dimensions="?"/>
             <variable name="pos" layout="particles"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("dynamic");
    let runtime = NodeRuntime::start(cfg, 2, &dir).unwrap();
    let clients = runtime.clients();
    std::thread::scope(|s| {
        for client in clients {
            s.spawn(move || {
                for it in 0..3u32 {
                    // Particle count varies by rank and iteration.
                    let n = 10 + client.id() as usize * 5 + it as usize * 2;
                    let data: Vec<f32> = (0..n * 3).map(|i| i as f32).collect();
                    client
                        .write_dynamic_f32("pos", it, &[n as u64, 3], &data)
                        .unwrap();
                    client.end_iteration(it).unwrap();
                }
            });
        }
    });
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 3);

    // Shapes round-trip per (rank, iteration).
    for it in 0..3u32 {
        let reader = SdfReader::open(dir.join(format!("node-0/iter-{it:06}.sdf"))).unwrap();
        for rank in 0..2u32 {
            let n = 10 + rank as u64 * 5 + u64::from(it) * 2;
            let info = reader
                .info(&format!("/iter-{it}/rank-{rank}/pos"))
                .expect("dataset exists");
            assert_eq!(info.layout.dims, vec![n, 3], "it {it} rank {rank}");
            let data = reader
                .read_f32(&format!("/iter-{it}/rank-{rank}/pos"))
                .unwrap();
            assert_eq!(data.len() as u64, n * 3);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dynamic_and_static_apis_are_not_interchangeable() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <layout name="particles" type="real" dimensions="?"/>
             <layout name="grid" type="real" dimensions="8"/>
             <variable name="pos" layout="particles"/>
             <variable name="field" layout="grid"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("dynmix");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    // Static write on a dynamic variable → guided error.
    let err = client.write_f32("pos", 0, &[0.0; 8]).unwrap_err();
    assert!(err.to_string().contains("write_dynamic"), "{err}");
    // Dynamic write on a static variable → guided error.
    let err = client
        .write_dynamic_f32("field", 0, &[8], &[0.0; 8])
        .unwrap_err();
    assert!(err.to_string().contains("static layout"), "{err}");
    // Shape/size mismatch → layout error.
    let err = client
        .write_dynamic_f32("pos", 0, &[4, 3], &[0.0; 5])
        .unwrap_err();
    assert!(matches!(err, DamarisError::LayoutMismatch { .. }));
    runtime.finish().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plugin_failure_surfaces_in_finish() {
    use damaris_core::{ActionContext, EventInfo, Plugin, PluginFactory};

    struct Exploder;
    impl Plugin for Exploder {
        fn name(&self) -> &str {
            "exploder"
        }
        fn handle(
            &mut self,
            _ctx: &mut ActionContext<'_>,
            _event: &EventInfo,
        ) -> Result<(), DamarisError> {
            Err(DamarisError::Plugin {
                plugin: "exploder".into(),
                message: "synthetic failure".into(),
            })
        }
    }

    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <event name="boom" action="explode"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("explode");
    let factory: PluginFactory = Box::new(|_| Ok(Box::new(Exploder) as Box<dyn Plugin>));
    let runtime =
        NodeRuntime::start_with(cfg, 1, &dir, 0, vec![("explode".into(), factory)]).unwrap();
    runtime.clients()[0].signal("boom", 0).unwrap();
    let err = runtime.finish().unwrap_err();
    assert!(err.to_string().contains("synthetic failure"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn visualize_action_renders_previews() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576"/>
             <layout name="grid" type="real" dimensions="4,8,8"/>
             <variable name="theta" layout="grid"/>
             <event name="end_of_iteration" action="visualize"/>
             <event name="end_of_iteration" action="persist"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("viz");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    let data: Vec<f32> = (0..4 * 8 * 8).map(|i| (i % 13) as f32).collect();
    client.write_f32("theta", 0, &data).unwrap();
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 1);

    // A PGM preview and a preview SDF exist alongside the data file.
    let pgm = dir.join("node-0/preview-iter-000000-rank-0-theta.pgm");
    let bytes = std::fs::read(&pgm).expect("pgm rendered");
    assert!(bytes.starts_with(b"P5\n8 8\n255\n"));
    let preview = SdfReader::open(dir.join("node-0/preview-iter-000000.sdf")).unwrap();
    let pixels = preview.read_bytes("/iter-0/rank-0-theta").unwrap();
    assert_eq!(pixels.len(), 64);
    // Data still persisted (visualize is non-consuming, fires first).
    let data_file = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(data_file.read_f32("/iter-0/rank-0/theta").unwrap(), data);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn peak_residency_reported() {
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="1048576"/>
             <layout name="grid" type="real" dimensions="1024"/>
             <variable name="a" layout="grid"/>
             <variable name="b" layout="grid"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("peak");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    client.write_f32("a", 0, &[1.0; 1024]).unwrap();
    client.write_f32("b", 0, &[2.0; 1024]).unwrap();
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    // Both variables were resident simultaneously before the persist.
    assert_eq!(report.peak_resident_bytes, 2 * 1024 * 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_tools_can_inject_events() {
    // §III-A: events come from the simulation OR from external tools — a
    // thread that holds no client triggers configured actions directly on
    // the runtime.
    let cfg = Config::from_xml(
        r#"<damaris>
             <buffer size="65536"/>
             <layout name="grid" type="real" dimensions="16"/>
             <variable name="field" layout="grid"/>
             <event name="steer" action="stats"/>
           </damaris>"#,
    )
    .unwrap();
    let dir = scratch("inject");
    let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    client.write_f32("field", 0, &[4.0; 16]).unwrap();

    // The "external tool": no DamarisClient, just the runtime handle.
    runtime.inject_event("steer", 0).unwrap();
    assert!(matches!(
        runtime.inject_event("unbound", 0).unwrap_err(),
        DamarisError::UnknownEvent(_)
    ));

    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.user_events, 1);
    let stats = SdfReader::open(dir.join("node-0/stats-iter-000000.sdf")).unwrap();
    let row = stats.read_f64("/iter-0/rank-0/field.stats").unwrap();
    assert_eq!(row, vec![4.0, 4.0, 4.0]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rewrites_across_iterations_respect_fifo_release() {
    // Regression: a same-(iteration, variable, source) rewrite used to
    // release the displaced segment on the spot. With the partitioned
    // allocator that is an out-of-order release whenever an *older*
    // retained segment is still live — here, client 0 runs a full
    // iteration ahead while client 1 has not ended the iteration yet —
    // and the broken tail arithmetic wedged the region permanently
    // "full". Displaced segments are now held until their iteration
    // fires. (Found by the obs_overhead gate in crates/bench.)
    let dir = scratch("fifo-rewrite");
    let runtime = NodeRuntime::start(config(), 2, &dir).unwrap();
    let clients = runtime.clients();
    let (fast, slow) = (&clients[0], &clients[1]);
    let iterations = 8u32;
    for it in 0..iterations {
        // Rewrite: the second copy displaces the first server-side while
        // the previous iteration's retained segment is still resident.
        fast.write_f64("diag", it, &[0.0; 4]).unwrap();
        fast.write_f64("diag", it, &[f64::from(it); 4]).unwrap();
        fast.end_iteration(it).unwrap();
    }
    for it in 0..iterations {
        slow.write_f64("diag", it, &[-f64::from(it); 4]).unwrap();
        slow.end_iteration(it).unwrap();
    }
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, u64::from(iterations));
    // The last copy of each rewrite is the one that persisted.
    for it in 0..iterations {
        let reader = SdfReader::open(dir.join(format!("node-0/iter-{it:06}.sdf"))).unwrap();
        assert_eq!(
            reader.read_f64(&format!("/iter-{it}/rank-0/diag")).unwrap(),
            [f64::from(it); 4]
        );
        assert_eq!(
            reader.read_f64(&format!("/iter-{it}/rank-1/diag")).unwrap(),
            [-f64::from(it); 4]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_ring_that_drains_between_iterations_does_not_walk_its_region() {
    // The `steady` shape, scaled down: every client writes its variables,
    // ends the iteration, and the next one starts after the dedicated core
    // has released everything. An empty ring starts over at offset 0, so
    // each iteration's segments land where the previous one's did — on
    // bytes still in cache — and a region of 64 iterations' worth is
    // touched only at its start. (The ring used to carry on from where it
    // stopped, and reach its far end on the 64th iteration.)
    use damaris_core::{ActionContext, EventInfo, Plugin, PluginFactory};
    use std::sync::{Arc, Mutex};

    const CLIENTS: usize = 4;
    const VARIABLES: [&str; 4] = ["u", "v", "w", "theta"];
    const BLOCK: usize = 4096;
    const ITERATIONS: u32 = 64;
    const REGION: usize = ITERATIONS as usize * VARIABLES.len() * BLOCK;

    /// Where iteration, by iteration, the segments were: `(source,
    /// variable, offset within the source's region)`, sorted.
    type Placements = Arc<Mutex<Vec<Vec<(u32, String, usize)>>>>;

    struct Offsets(Placements);
    impl Plugin for Offsets {
        fn name(&self) -> &str {
            "offsets"
        }
        fn handle(
            &mut self,
            ctx: &mut ActionContext<'_>,
            event: &EventInfo,
        ) -> Result<(), DamarisError> {
            let mut placed: Vec<_> = ctx
                .store
                .iteration_entries(event.iteration)
                .map(|v| {
                    let region = v.key.source as usize * REGION;
                    (v.key.source, v.name.clone(), v.segment.offset() - region)
                })
                .collect();
            placed.sort();
            self.0.lock().unwrap().push(placed);
            Ok(())
        }
    }

    let variables: String = VARIABLES
        .iter()
        .map(|name| format!(r#"<variable name="{name}" layout="block"/>"#))
        .collect();
    let cfg = Config::from_xml(&format!(
        r#"<damaris>
             <buffer size="{}" allocator="partition" queue="64"/>
             <layout name="block" type="real" dimensions="{}"/>
             {variables}
             <event name="end_of_iteration" action="offsets"/>
             <event name="end_of_iteration" action="persist"/>
           </damaris>"#,
        CLIENTS * REGION,
        BLOCK / 4
    ))
    .unwrap();
    let dir = scratch("steady-ring");
    let placements = Placements::default();
    let recorded = Arc::clone(&placements);
    let factory: PluginFactory =
        Box::new(move |_| Ok(Box::new(Offsets(Arc::clone(&recorded))) as Box<dyn Plugin>));
    let runtime = NodeRuntime::start_with(
        cfg,
        CLIENTS,
        &dir,
        0,
        vec![("offsets".to_string(), factory)],
    )
    .unwrap();
    let clients = runtime.clients();
    for it in 0..ITERATIONS {
        for client in &clients {
            for name in VARIABLES {
                client.write_f32(name, it, &[it as f32; BLOCK / 4]).unwrap();
            }
            client.end_iteration(it).unwrap();
        }
        while runtime.buffer_in_use() != 0 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, u64::from(ITERATIONS));

    let placements = placements.lock().unwrap();
    assert_eq!(placements.len(), ITERATIONS as usize);
    // Written in `VARIABLES` order from an empty ring: one behind another.
    let mut first: Vec<_> = (0..CLIENTS as u32)
        .flat_map(|c| {
            VARIABLES
                .iter()
                .enumerate()
                .map(move |(i, name)| (c, name.to_string(), i * BLOCK))
        })
        .collect();
    first.sort();
    for (it, placed) in placements.iter().enumerate() {
        assert_eq!(placed, &first, "iteration {it}: segments elsewhere");
    }
    let highest = placements.iter().flatten().map(|p| p.2 + BLOCK).max();
    assert!(
        highest.unwrap() <= 2 * VARIABLES.len() * BLOCK,
        "ring walked to {highest:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Zero-copy regions given back out of allocation order: every iteration
/// the client allocates A, then B, and commits B before it commits — or
/// drops — A. The dedicated core releases the ring in allocation order
/// regardless. Releasing in notification order (B, then A) ran the ring's
/// tail past its head: a FIFO assertion on the core in debug builds, and
/// in release builds a ring that answers `Full` for good.
#[test]
fn regions_given_back_out_of_allocation_order_keep_the_ring_whole() {
    for drop_a in [false, true] {
        let dir = scratch(&format!("out-of-order-{drop_a}"));
        let cfg = Config::from_xml(
            r#"<damaris>
                 <buffer size="4096"/>
                 <layout name="v" type="real" dimensions="64"/>
                 <variable name="a" layout="v"/>
                 <variable name="b" layout="v"/>
                 <resilience backpressure="block" timeout_ms="2000"/>
               </damaris>"#,
        )
        .unwrap();
        let runtime = NodeRuntime::start(cfg, 1, &dir).unwrap();
        let client = &runtime.clients()[0];
        for it in 0..40u32 {
            let mut a = client.alloc("a", it).unwrap();
            a.as_mut_f32().fill(it as f32);
            let mut b = client.alloc("b", it).unwrap();
            b.as_mut_f32().fill(-(it as f32));
            b.commit().unwrap();
            if drop_a {
                drop(a);
            } else {
                a.commit().unwrap();
            }
            client.end_iteration(it).unwrap();
        }
        let report = runtime.finish().unwrap();
        assert_eq!(report.iterations_persisted, 40, "drop_a={drop_a}");
        assert_eq!(client.buffer_in_use(), 0, "drop_a={drop_a}");
        let reader = SdfReader::open(dir.join("node-0/iter-000039.sdf")).unwrap();
        assert_eq!(
            reader.read_f32("/iter-39/rank-0/b").unwrap(),
            [-39.0; 64],
            "drop_a={drop_a}"
        );
        let a = reader.read_f32("/iter-39/rank-0/a");
        assert_eq!(
            a.ok(),
            (!drop_a).then_some(vec![39.0; 64]),
            "drop_a={drop_a}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A client may not end an iteration while it holds a region it has
/// neither committed nor dropped. If it could, the iteration's flush would
/// release the segment it wrote after the region, the ring would read
/// empty and rewind, and the next reservation would land on the region's
/// bytes (in debug builds the core would panic on the region's release).
/// Refused — through any clone of the handle — then committed and ended,
/// both variables read back as written.
#[test]
fn end_iteration_is_refused_while_a_region_is_held() {
    let dir = scratch("held-region");
    let runtime = NodeRuntime::start(config(), 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    let theta: Vec<f32> = (0..64).map(|i| i as f32 + 0.5).collect();
    let wind: Vec<f32> = (0..64).map(|i| -(i as f32)).collect();

    let mut region = client.alloc("theta", 0).unwrap();
    region.as_mut_f32().copy_from_slice(&theta);
    client.write_f32("wind", 0, &wind).unwrap();
    for handle in [client.clone(), runtime.clients()[0].clone()] {
        let refused = handle.end_iteration(0);
        assert!(
            matches!(
                refused,
                Err(DamarisError::RegionHeld { client: 0, held: 1 })
            ),
            "{refused:?}"
        );
    }
    region.commit().unwrap();
    client.end_iteration(0).unwrap();
    // The ring goes on from behind both segments.
    client.write_f32("wind", 1, &[7.0; 64]).unwrap();
    client.end_iteration(1).unwrap();

    let report = runtime.finish().unwrap();
    assert_eq!(report.iterations_persisted, 2);
    assert_eq!(client.buffer_in_use(), 0);
    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    assert_eq!(reader.read_f32("/iter-0/rank-0/theta").unwrap(), theta);
    assert_eq!(reader.read_f32("/iter-0/rank-0/wind").unwrap(), wind);
    std::fs::remove_dir_all(&dir).ok();
}
