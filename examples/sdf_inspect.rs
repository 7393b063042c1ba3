//! Inspect any SDF file produced by this workspace: datasets, shapes,
//! filters, attributes, compression ratios, and integrity.
//!
//! ```text
//! cargo run --release --example sdf_inspect -- <file.sdf> [--verify]
//! ```
//!
//! With `--verify`, every dataset is fully read (checksums + filter
//! pipelines exercised), the total decode throughput is reported, and so
//! is the query section the reader built at open.
//! Without arguments, a demo file is generated and inspected.

use damaris_repro::format::header::{Superblock, SUPERBLOCK_LEN};
use damaris_repro::format::{DataType, DatasetOptions, Layout, SdfReader, SdfWriter};
use std::time::Instant;

fn human(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

fn demo_file() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sdf-inspect-demo-{}.sdf", std::process::id()));
    let mut w = SdfWriter::create(&path).expect("create demo");
    let layout = Layout::new(DataType::F32, &[64, 64]);
    let smooth: Vec<f32> = (0..4096).map(|i| 300.0 + (i as f32 * 0.01).sin()).collect();
    w.write_dataset_f32_opts(
        "/iter-0/rank-0/theta",
        &layout,
        &smooth,
        &DatasetOptions::plain()
            .with_filter("lzss|huff")
            .with_attr("unit", "K")
            .with_coords(0, 0),
    )
    .expect("write");
    w.write_dataset_f32("/iter-0/rank-0/w", &layout, &vec![0.0; 4096])
        .expect("write");
    w.finish().expect("finish");
    path
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verify = args.iter().any(|a| a == "--verify");
    let (path, is_demo) = match args.iter().find(|a| !a.starts_with("--")) {
        Some(p) => (std::path::PathBuf::from(p), false),
        None => {
            println!("(no file given — generating a demo file)\n");
            (demo_file(), true)
        }
    };

    let reader = match SdfReader::open(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "{}: {} datasets, {} on disk",
        path.display(),
        reader.len(),
        human(file_len)
    );
    // `open` validated the superblock; read it again for its feature bits.
    let mut sb = [0u8; SUPERBLOCK_LEN as usize];
    let sb = std::fs::File::open(&path)
        .and_then(|f| std::os::unix::fs::FileExt::read_exact_at(&f, &mut sb, 0))
        .ok()
        .and_then(|()| Superblock::validate(&sb).ok());
    if let Some(sb) = sb {
        let keyed_by = match (sb.coords(), sb.names()) {
            (true, true) => "coordinate fields, variable names once per file",
            (true, false) => "coordinate fields (written before the name table)",
            _ => "coordinate attributes (written before coordinate fields)",
        };
        println!(
            "features: flags {:#06x}, datasets keyed by {keyed_by}",
            sb.flags
        );
    }

    let mut logical_total = 0u64;
    let mut stored_total = 0u64;
    for name in reader.dataset_names() {
        let info = reader.info(&name).expect("listed dataset");
        logical_total += info.logical_len();
        stored_total += info.stored_len;
        let dims = info
            .layout
            .dims
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("×");
        let filter = if info.filter.is_empty() {
            "raw".to_string()
        } else {
            format!(
                "{} ({:.0}%)",
                info.filter,
                100.0 * info.logical_len() as f64 / info.stored_len.max(1) as f64
            )
        };
        let attrs = info
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "  {name}  {:?}[{dims}]  logical {}  stored {}  {filter}  {attrs}",
            info.layout.dtype,
            human(info.logical_len()),
            human(info.stored_len),
        );
    }
    println!(
        "totals: logical {}, stored {} ({:.0}% overall ratio)",
        human(logical_total),
        human(stored_total),
        100.0 * logical_total as f64 / stored_total.max(1) as f64
    );

    if verify || is_demo {
        let t0 = Instant::now();
        let mut bytes = 0u64;
        for name in reader.dataset_names() {
            match reader.read_bytes(&name) {
                Ok(data) => bytes += data.len() as u64,
                Err(e) => {
                    eprintln!("VERIFY FAILED at {name}: {e}");
                    std::process::exit(2);
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "verify: all {} datasets decoded OK ({} at {:.0} MB/s)",
            reader.len(),
            human(bytes),
            bytes as f64 / dt.max(1e-9) / 1e6
        );
        let Ok(section) = reader.query_section();
        println!(
            "query section: {} keys, {} bloom bits (built at open)",
            section.keys.len(),
            section.bloom.n_bits()
        );
    }
    if is_demo {
        std::fs::remove_file(&path).ok();
    }
}
