//! Cross-crate integration tests: the full stack wired together —
//! mini-CM1 over mini-MPI, Damaris middleware over shared memory, the SDF
//! format over a real directory — plus cross-backend equivalence and
//! simulator/analysis consistency.

use damaris_repro::cm1::io::{CollectiveBackend, DamarisDeployment, FppBackend};
use damaris_repro::cm1::{run_rank, Cm1Config, Decomp2d};
use damaris_repro::format::SdfReader;
use damaris_repro::mpi::World;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("damaris-e2e-{tag}-{}-{n}", std::process::id()))
}

/// Reads every dataset of an iteration back from whatever file organization
/// a backend produced, normalized to (rank, variable) → data.
fn collect_iteration(
    dir: &std::path::Path,
    organization: &str,
    iteration: u32,
    nprocs: usize,
    variables: &[&str],
) -> Vec<((usize, String), Vec<f32>)> {
    let mut out = Vec::new();
    for rank in 0..nprocs {
        for var in variables {
            let path = format!("/iter-{iteration}/rank-{rank}/{var}");
            let file = match organization {
                "fpp" => dir.join(format!("rank-{rank}/iter-{iteration:06}.sdf")),
                "cio" => dir.join(format!("iter-{iteration:06}.sdf")),
                // Damaris: node files; with 2 clients per node, rank r maps
                // to node r/2, local source r%2.
                "damaris2" => dir.join(format!("node-{}/iter-{iteration:06}.sdf", rank / 2)),
                other => panic!("unknown organization {other}"),
            };
            let reader =
                SdfReader::open(&file).unwrap_or_else(|e| panic!("open {}: {e}", file.display()));
            let data = match organization {
                "damaris2" => reader
                    .read_f32(&format!("/iter-{iteration}/rank-{}/{var}", rank % 2))
                    .unwrap(),
                _ => reader.read_f32(&path).unwrap(),
            };
            out.push(((rank, var.to_string()), data));
        }
    }
    out
}

#[test]
fn all_three_backends_persist_identical_data() {
    // The paper's apples-to-apples requirement: same simulation, three I/O
    // stacks, bit-identical persisted datasets.
    let config = Cm1Config {
        global: (32, 32, 8),
        iterations: 4,
        write_every: 2,
        n_variables: 4,
        physics: Default::default(),
        bubble_amplitude: 5.0,
    };
    let nprocs = 4;
    let variables = ["theta", "u", "v", "w"];

    let dir_fpp = scratch("fpp");
    World::run(nprocs, |comm| {
        let mut io = FppBackend::new(&dir_fpp).unwrap();
        run_rank(comm, &config, &mut io).unwrap();
    });

    let dir_cio = scratch("cio");
    World::run(nprocs, |comm| {
        let mut io = CollectiveBackend::new(&dir_cio).unwrap();
        run_rank(comm, &config, &mut io).unwrap();
    });

    let dir_dam = scratch("dam");
    let decomp = Decomp2d::auto(nprocs, 32, 32, 8).unwrap();
    let deployment =
        DamarisDeployment::start(nprocs, 2, decomp.local_extent(), 4, &dir_dam).unwrap();
    World::run(nprocs, |comm| {
        let mut io = deployment.backend_for(comm.rank());
        run_rank(comm, &config, &mut io).unwrap();
    });
    deployment.finish().unwrap();

    for iteration in [2u32, 4] {
        let fpp = collect_iteration(&dir_fpp, "fpp", iteration, nprocs, &variables);
        let cio = collect_iteration(&dir_cio, "cio", iteration, nprocs, &variables);
        let dam = collect_iteration(&dir_dam, "damaris2", iteration, nprocs, &variables);
        assert_eq!(fpp, cio, "iteration {iteration}: fpp vs collective");
        assert_eq!(fpp, dam, "iteration {iteration}: fpp vs damaris");
    }
    for d in [dir_fpp, dir_cio, dir_dam] {
        std::fs::remove_dir_all(&d).ok();
    }
}

#[test]
fn damaris_compressed_run_roundtrips() {
    // Full stack with a lossless filter in the dedicated core: data must
    // come back bit-identical after compression + storage + decompression.
    use damaris_repro::core::{Config, NodeRuntime};

    let xml = r#"
        <damaris>
          <buffer size="8388608" allocator="partition"/>
          <layout name="grid" type="real" dimensions="32,32,8"/>
          <variable name="theta" layout="grid"/>
          <event name="end_of_iteration" action="persist" using="lzss|huff"/>
        </damaris>"#;
    let dir = scratch("compressed");
    let runtime = NodeRuntime::start(Config::from_xml(xml).unwrap(), 2, &dir).unwrap();
    let clients = runtime.clients();
    let mut expected = Vec::new();
    for client in &clients {
        let data: Vec<f32> = (0..32 * 32 * 8)
            .map(|i| 300.0 + (client.id() as f32) + (i as f32 * 0.01).sin())
            .collect();
        client.write_f32("theta", 0, &data).unwrap();
        client.end_iteration(0).unwrap();
        expected.push(data);
    }
    let report = runtime.finish().unwrap();
    assert!(report.bytes_stored < report.bytes_received);

    let reader = SdfReader::open(dir.join("node-0/iter-000000.sdf")).unwrap();
    for (id, data) in expected.iter().enumerate() {
        assert_eq!(
            &reader
                .read_f32(&format!("/iter-0/rank-{id}/theta"))
                .unwrap(),
            data
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulator_reproduces_paper_ordering() {
    // The coarse shape every figure relies on, checked end to end through
    // the public API: damaris ≪ fpp < collective on Lustre at scale.
    use damaris_repro::sim::{platform, run_io_phase, Strategy, WorkloadSpec};
    let p = platform::kraken();
    let w = WorkloadSpec::cm1_kraken();
    let fpp = run_io_phase(&p, &w, Strategy::FilePerProcess, 2304, 1).phase_duration;
    let cio = run_io_phase(&p, &w, Strategy::CollectiveIo, 2304, 1).phase_duration;
    let dam = run_io_phase(&p, &w, Strategy::damaris(), 2304, 1).phase_duration;
    assert!(dam < 1.0, "damaris client phase {dam}");
    assert!(fpp > 10.0 * dam, "fpp {fpp} vs damaris {dam}");
    assert!(cio > fpp, "collective {cio} vs fpp {fpp}");
}

#[test]
fn xml_config_drives_the_whole_stack() {
    // Generated XML → parsed config → running node: the paper's workflow
    // where the configuration file defines the middleware's behaviour.
    use damaris_repro::cm1::damaris_config_xml;
    use damaris_repro::core::{Config, NodeRuntime};

    let xml = damaris_config_xml(8, 8, 4, 3, 1 << 20);
    let config = Config::from_xml(&xml).unwrap();
    let dir = scratch("xmlstack");
    let runtime = NodeRuntime::start(config, 1, &dir).unwrap();
    let client = &runtime.clients()[0];
    for var in ["theta", "u", "v"] {
        client.write_f32(var, 0, &vec![1.5; 8 * 8 * 4]).unwrap();
    }
    client.end_iteration(0).unwrap();
    let report = runtime.finish().unwrap();
    assert_eq!(report.variables_received, 3);
    assert_eq!(report.iterations_persisted, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analysis_consistent_with_simulation() {
    // §V-A's qualitative claim checked against the simulator: dedicating a
    // core wins whenever the standard approach pays a nontrivial I/O share.
    use damaris_repro::sim::experiment::run_simulation;
    use damaris_repro::sim::{platform, Strategy, WorkloadSpec};
    let p = platform::kraken();
    let w = WorkloadSpec::cm1_kraken();
    let fpp = run_simulation(&p, &w, Strategy::FilePerProcess, 2304, 50, 3);
    let dam = run_simulation(&p, &w, Strategy::damaris(), 2304, 50, 3);
    let io_share = fpp.io_time / fpp.compute_time;
    assert!(io_share > 0.05, "io share {io_share}");
    assert!(
        dam.total_time < fpp.total_time,
        "damaris {} vs fpp {}",
        dam.total_time,
        fpp.total_time
    );
}
