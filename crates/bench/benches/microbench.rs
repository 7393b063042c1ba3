//! Criterion micro-benchmarks over the *real* components (no simulation):
//!
//! * the Damaris hot path — ring reservation + memcpy + release against a
//!   plain memcpy (the paper's claim that a client write costs a memcpy
//!   lives or dies here);
//! * the CRC-32 kernels, each alone at the sizes around the dispatch's
//!   thresholds (DESIGN §3 quotes the table);
//! * the shared event queue;
//! * the codecs (§IV-D);
//! * SDF dataset writes;
//! * a reader's `refresh` poll, unchanged and after a publish, and a
//!   manifest publish, against the number of files published;
//! * mini-MPI collectives;
//! * one mini-CM1 physics step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use damaris_shm::{MpscQueue, PartitionAllocator};
use std::hint::black_box;

/// CM1-like payload: smooth field with noisy low bits.
fn field_bytes(n_values: usize) -> Vec<u8> {
    let mut h = 0x1234_5678u32;
    let mut out = Vec::with_capacity(n_values * 4);
    for i in 0..n_values {
        h = h.wrapping_mul(0x0100_0193) ^ h.rotate_left(13);
        let v = 300.0f32 + (i as f32 * 0.003).sin() * 4.0 + 1e-4 * (h >> 16) as f32;
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn bench_shm_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("shm_write_path");
    let payload = field_bytes(64 * 1024); // 256 KiB
    group.throughput(Throughput::Bytes(payload.len() as u64));

    group.bench_function("partition_allocator", |b| {
        let alloc = PartitionAllocator::with_capacity(4 << 20, 1);
        b.iter(|| {
            let mut seg = alloc.allocate(0, payload.len()).expect("fits");
            seg.copy_from_slice(black_box(&payload));
            alloc.release(0, seg);
        });
    });

    group.bench_function("plain_memcpy_baseline", |b| {
        let mut dst = vec![0u8; payload.len()];
        b.iter(|| {
            dst.copy_from_slice(black_box(&payload));
            black_box(&dst);
        });
    });
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    use damaris_format::Crc32Kernel;
    let mut group = c.benchmark_group("crc32");
    let data = field_bytes(16 * 1024); // 64 KiB
    for len in [64, 128, 256, 1 << 10, 16 << 10, 64 << 10] {
        let data = &data[..len];
        group.throughput(Throughput::Bytes(len as u64));
        for kernel in Crc32Kernel::ALL.into_iter().filter(|k| k.is_available()) {
            group.bench_with_input(BenchmarkId::new(kernel.name(), len), data, |b, data| {
                b.iter(|| kernel.update(0xFFFF_FFFF, black_box(data)));
            });
        }
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("push_pop_cycle", |b| {
        let q: MpscQueue<u64> = MpscQueue::new(1024);
        b.iter(|| {
            q.push(black_box(7)).expect("space");
            black_box(q.pop().expect("item"));
        });
    });
    group.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codecs");
    let data = field_bytes(256 * 1024); // 1 MiB
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(10);

    for name in ["rle", "lzss", "huff"] {
        let codec = damaris_compress::codec_by_name(name).expect("known codec");
        group.bench_with_input(BenchmarkId::new("encode", name), &data, |b, data| {
            b.iter(|| black_box(codec.encode_vec(black_box(data))));
        });
        let encoded = codec.encode_vec(&data);
        group.bench_with_input(BenchmarkId::new("decode", name), &encoded, |b, enc| {
            b.iter(|| black_box(codec.decode_vec(black_box(enc)).expect("valid")));
        });
    }

    let pipeline = damaris_compress::Pipeline::from_spec("precision16|lzss|huff").unwrap();
    group.bench_function("encode/precision16|lzss|huff", |b| {
        b.iter(|| black_box(pipeline.encode(black_box(&data)).expect("encode")));
    });
    group.finish();
}

fn bench_sdf(c: &mut Criterion) {
    use damaris_format::{DataType, Layout, SdfWriter};
    let mut group = c.benchmark_group("sdf_format");
    group.sample_size(20);
    let data: Vec<f32> = (0..128 * 1024).map(|i| i as f32).collect();
    let layout = Layout::new(DataType::F32, &[128 * 1024]);
    group.throughput(Throughput::Bytes((data.len() * 4) as u64));
    let dir = std::env::temp_dir().join(format!("damaris-bench-sdf-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    group.bench_function("write_dataset_512KiB", |b| {
        let mut n = 0u64;
        b.iter(|| {
            let path = dir.join(format!("bench-{n}.sdf"));
            n += 1;
            let mut w = SdfWriter::create(&path).expect("create");
            w.write_dataset_f32("/v", &layout, black_box(&data))
                .expect("write");
            black_box(w.finish().expect("finish"));
        });
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// What a reader's poll costs against the number of files published: a
/// `QueryEngine::refresh` that finds the manifest unchanged, and one that
/// finds one more file published, at N = 100, 1 000 and 10 000 files.
/// The no-op should stay flat in N; the publish grows by a pointer copy
/// per file listed, not by an allocation or a file open.
fn bench_refresh(c: &mut Criterion) {
    use damaris_format::{DataType, Layout, SdfWriter};
    use damaris_fs::manifest::publish_iteration;
    use damaris_fs::{EntryKind, Manifest, ManifestEntry};
    use damaris_query::{QueryConfig, QueryEngine};
    use std::time::{Duration, Instant};

    let mut group = c.benchmark_group("refresh");
    for n in [100u32, 1_000, 10_000] {
        let root =
            std::env::temp_dir().join(format!("damaris-bench-refresh-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("node-0")).expect("mkdir");
        let layout = Layout::new(DataType::F64, &[8]);
        let entries: Vec<ManifestEntry> = (0..=n)
            .map(|it| {
                let file = format!("node-0/iter-{it:06}.sdf");
                let mut w = SdfWriter::create(root.join(&file)).expect("create");
                w.write_dataset_f64(
                    &format!("/iter-{it}/rank-0/v"),
                    &layout,
                    &[f64::from(it); 8],
                )
                .expect("write");
                let bytes = w.finish().expect("finish");
                ManifestEntry {
                    file,
                    node: 0,
                    kind: EntryKind::Iteration(it),
                    bytes,
                }
            })
            .collect();
        // `n` files listed; the one more is published by each round.
        let listed = Manifest {
            generation: u64::from(n),
            entries: entries[..n as usize].to_vec(),
        };
        let last = &entries[n as usize];
        listed.store(&root).expect("checkpoint");
        let engine = QueryEngine::open(&root, QueryConfig::default()).expect("open");

        group.bench_function(BenchmarkId::new("noop", n), |b| {
            b.iter(|| black_box(engine.refresh().expect("refresh")));
        });

        // Timed apart from its setup, which the stand-in's `iter` cannot
        // do: back to `n` files (a checkpoint and a whole rebuild,
        // untimed), then the publish of one more, appended, and the poll
        // that sees it (timed).
        let rounds = 64u32;
        let mut total = Duration::ZERO;
        for _ in 0..rounds {
            listed.store(&root).expect("checkpoint");
            engine.refresh().expect("back to n files");
            publish_iteration(&root, 0, n, &last.file, last.bytes).expect("publish");
            let t = Instant::now();
            black_box(engine.refresh().expect("refresh"));
            total += t.elapsed();
        }
        assert_eq!(engine.snapshot().files().len(), n as usize + 1);
        println!(
            "bench refresh/one_entry_publish/{n}: {:?}/iter",
            total / rounds
        );
        drop(engine);
        std::fs::remove_dir_all(&root).ok();
    }
    group.finish();
}

/// What a publish costs against the number of files the manifest lists:
/// `publish_iteration` of one more file onto a log checkpointed at N =
/// 100, 1 000 and 10 000 entries. It appends one frame and syncs it, so
/// it should stay flat in N, at about one `fdatasync`.
fn bench_manifest(_: &mut Criterion) {
    use damaris_fs::manifest::publish_iterations;
    use std::time::Instant;

    for n in [100u32, 1_000, 10_000] {
        let root =
            std::env::temp_dir().join(format!("damaris-bench-publish-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let name = |it: u32| format!("node-0/iter-{it:06}.sdf");
        let names: Vec<String> = (0..n + 32).map(name).collect();
        let publish = |its: std::ops::Range<u32>| {
            let sealed = its.map(|it| (it, names[it as usize].as_str(), 1 << 20));
            let sealed: Vec<_> = sealed.collect();
            publish_iterations(&root, 0, &sealed).expect("publish")
        };
        // The first publish writes the log's checkpoint.
        publish(0..n);
        let mut samples: Vec<_> = (n..n + 32)
            .map(|it| {
                let t = Instant::now();
                black_box(publish(it..it + 1));
                t.elapsed()
            })
            .collect();
        samples.sort_unstable();
        let median = samples[16];
        println!("bench manifest/publish/{n}: {median:?}/iter (median of 32)");
        std::fs::remove_dir_all(&root).ok();
    }
}

fn bench_mpi(c: &mut Criterion) {
    use damaris_mpi::World;
    let mut group = c.benchmark_group("mini_mpi");
    group.sample_size(10);

    group.bench_function("allreduce_8ranks_x100", |b| {
        b.iter(|| {
            World::run(8, |comm| {
                let mut acc = 0.0;
                for i in 0..100 {
                    acc += comm.allreduce_sum_f64(&[f64::from(i)])[0];
                }
                black_box(acc);
            });
        });
    });

    group.bench_function("alltoallv_8ranks_64KiB_x10", |b| {
        b.iter(|| {
            World::run(8, |comm| {
                let chunk = bytes::Bytes::from(vec![0u8; 64 << 10]);
                for _ in 0..10 {
                    let chunks = vec![chunk.clone(); comm.size()];
                    black_box(comm.alltoallv(chunks));
                }
            });
        });
    });
    group.finish();
}

fn bench_cm1_step(c: &mut Criterion) {
    use damaris_cm1::{grid::Field3, physics};
    let mut group = c.benchmark_group("cm1_physics");
    let p = physics::PhysicsParams::default();
    let mut theta = Field3::new(44, 44, 50, 1);
    physics::init_warm_bubble(&mut theta, (0, 0), (44, 44, 50), 300.0, 5.0);
    group.throughput(Throughput::Elements((44 * 44 * 50) as u64));
    group.bench_function("advect_diffuse_44x44x50", |b| {
        b.iter(|| black_box(physics::advect_diffuse(black_box(&theta), &p)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_shm_write,
    bench_crc32,
    bench_event_queue,
    bench_codecs,
    bench_sdf,
    bench_refresh,
    bench_manifest,
    bench_mpi,
    bench_cm1_step
);
criterion_main!(benches);
