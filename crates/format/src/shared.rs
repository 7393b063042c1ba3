//! Shared-file mode: the pHDF5 / collective-I/O analogue.
//!
//! In the paper's collective-I/O baseline, all processes synchronize to open
//! one shared file and each writes its own region (§II-B). This module
//! reproduces that write pattern for the real (threaded) runtime:
//!
//! 1. Every writer declares its datasets up front ([`SharedFilePlan`]).
//! 2. The plan assigns each dataset a byte range (an "open" collective
//!    phase: in MPI this is where the synchronization cost lives).
//! 3. Writers then write their ranges independently via
//!    [`SharedFileWriter`], using positioned writes on a shared handle.
//! 4. One participant (rank 0 in MPI terms) seals the file with the index
//!    and footer ([`SharedFilePlan::seal`]).
//!
//! Note the deliberate limitation faithful to pHDF5: **filters are not
//! supported in shared mode** — byte ranges must be known before data is
//! written, which is exactly why the paper's collective baseline cannot
//! compress (§II-B: "none of today's data formats offers compression
//! features using this approach").

use crate::checksum::{crc32, crc32_update};
use crate::header::{self, Entry, IndexBuf, PathField};
use crate::types::Layout;
use crate::{Result, SdfError};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A dataset slot reserved in a shared file.
#[derive(Debug, Clone)]
pub struct ReservedDataset {
    pub path: String,
    pub layout: Layout,
    pub offset: u64,
}

/// Collective plan for a shared SDF file. Reservations lie end to end
/// from the superblock, so the file's index is the one every SDF file
/// has: offsets derived from the lengths.
pub struct SharedFilePlan {
    file_path: PathBuf,
    reservations: Vec<ReservedDataset>,
    index: IndexBuf,
    next_offset: u64,
}

impl SharedFilePlan {
    /// Starts a plan for `path`; reserves space for the superblock.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file_path = path.as_ref().to_path_buf();
        // Create/truncate the file and write the superblock immediately so
        // concurrent writers can open it.
        let mut file = File::create(&file_path)?;
        let mut sb = Vec::new();
        header::write_superblock(&mut sb);
        file.write_all(&sb)?;
        file.flush()?;
        Ok(SharedFilePlan {
            file_path,
            reservations: Vec::new(),
            index: IndexBuf::default(),
            next_offset: sb.len() as u64,
        })
    }

    /// Reserves a byte range for a dataset; returns the reservation the
    /// owning writer uses to write its bytes. This is the collective "open"
    /// phase — in MPI all ranks call this together.
    pub fn reserve(&mut self, path: &str, layout: &Layout) -> Result<ReservedDataset> {
        if !path.starts_with('/') || path.ends_with('/') || path.contains("//") {
            return Err(SdfError::Usage(format!("bad dataset path '{path}'")));
        }
        self.index.claim_path(path)?;
        let r = ReservedDataset {
            path: path.to_string(),
            layout: layout.clone(),
            offset: self.next_offset,
        };
        self.next_offset += layout.byte_size();
        self.reservations.push(r.clone());
        Ok(r)
    }

    /// Total payload bytes reserved so far (excluding superblock).
    pub fn reserved_bytes(&self) -> u64 {
        self.reservations.iter().map(|r| r.layout.byte_size()).sum()
    }

    /// Opens a writer handle usable from any thread.
    pub fn open_writer(&self) -> Result<SharedFileWriter> {
        let file = OpenOptions::new().write(true).open(&self.file_path)?;
        Ok(SharedFileWriter {
            file: Arc::new(Mutex::new(file)),
        })
    }

    /// Finalizes the file: recomputes per-dataset checksums from the
    /// written bytes, appends the index and footer. Call after all writers
    /// finished (a barrier in MPI terms).
    pub fn seal(mut self) -> Result<u64> {
        use std::io::Read;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.file_path)?;
        for r in &self.reservations {
            file.seek(SeekFrom::Start(r.offset))?;
            let mut payload = vec![0u8; r.layout.byte_size() as usize];
            file.read_exact(&mut payload)?;
            self.index.push(&Entry {
                path: PathField::Free(&r.path),
                layout: &r.layout,
                stored_len: payload.len() as u64,
                crc: crc32(&payload),
                filter: "",
                chunk_dim0: 0,
                iteration: crate::NO_COORD,
                source: crate::NO_COORD,
                attrs: &[],
            });
        }
        let index_offset = self.next_offset;
        file.seek(SeekFrom::Start(index_offset))?;
        let (mut index_len, mut crc) = (0u64, 0xFFFF_FFFF);
        self.index.write(|part| {
            crc = crc32_update(crc, part);
            index_len += part.len() as u64;
            Ok(file.write_all(part)?)
        })?;
        let mut footer = Vec::new();
        header::write_footer(index_offset, index_len, crc ^ 0xFFFF_FFFF, &mut footer);
        file.write_all(&footer)?;
        file.flush()?;
        Ok(index_offset + index_len + header::FOOTER_LEN)
    }
}

/// Thread-safe positioned writer into a shared file.
#[derive(Clone)]
pub struct SharedFileWriter {
    file: Arc<Mutex<File>>,
}

impl SharedFileWriter {
    /// Opens a writer on an existing shared file (created elsewhere by a
    /// [`SharedFilePlan`]); used by the non-root participants of a
    /// collective write, which compute their reservations deterministically.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = OpenOptions::new().write(true).open(path.as_ref())?;
        Ok(SharedFileWriter {
            file: Arc::new(Mutex::new(file)),
        })
    }

    /// Writes a reserved dataset's bytes at its assigned offset.
    pub fn write_reserved(&self, reservation: &ReservedDataset, data: &[u8]) -> Result<()> {
        reservation.layout.check_bytes(data.len())?;
        let mut file = self.file.lock().expect("shared file lock poisoned");
        file.seek(SeekFrom::Start(reservation.offset))?;
        file.write_all(data)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::SdfReader;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join("damaris-format-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("sh-{tag}-{}-{n}.sdf", std::process::id()))
    }

    #[test]
    fn collective_write_roundtrip() {
        let path = temp_path("basic");
        let mut plan = SharedFilePlan::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[32]);
        let r0 = plan.reserve("/rank-0/u", &layout).unwrap();
        let r1 = plan.reserve("/rank-1/u", &layout).unwrap();
        assert_eq!(plan.reserved_bytes(), 256);

        let w = plan.open_writer().unwrap();
        let d0: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let d1: Vec<f32> = (0..32).map(|i| -(i as f32)).collect();
        let b0: Vec<u8> = d0.iter().flat_map(|v| v.to_le_bytes()).collect();
        let b1: Vec<u8> = d1.iter().flat_map(|v| v.to_le_bytes()).collect();
        // Writes happen out of reservation order — ranges are independent.
        w.write_reserved(&r1, &b1).unwrap();
        w.write_reserved(&r0, &b0).unwrap();
        plan.seal().unwrap();

        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.read_f32("/rank-0/u").unwrap(), d0);
        assert_eq!(r.read_f32("/rank-1/u").unwrap(), d1);
    }

    #[test]
    fn concurrent_writers() {
        let path = temp_path("conc");
        let mut plan = SharedFilePlan::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[1024]);
        let n = 8;
        let reservations: Vec<_> = (0..n)
            .map(|i| plan.reserve(&format!("/rank-{i}/v"), &layout).unwrap())
            .collect();
        let writer = plan.open_writer().unwrap();

        std::thread::scope(|s| {
            for (i, res) in reservations.iter().enumerate() {
                let w = writer.clone();
                s.spawn(move || {
                    let data: Vec<f32> = (0..1024).map(|j| (i * 10_000 + j) as f32).collect();
                    let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
                    w.write_reserved(res, &bytes).unwrap();
                });
            }
        });
        plan.seal().unwrap();

        let r = SdfReader::open(&path).unwrap();
        for i in 0..n {
            let data = r.read_f32(&format!("/rank-{i}/v")).unwrap();
            assert_eq!(data[0], (i * 10_000) as f32);
            assert_eq!(data[1023], (i * 10_000 + 1023) as f32);
        }
    }

    #[test]
    fn wrong_size_rejected() {
        let path = temp_path("size");
        let mut plan = SharedFilePlan::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[4]);
        let res = plan.reserve("/x", &layout).unwrap();
        let w = plan.open_writer().unwrap();
        assert!(w.write_reserved(&res, &[0u8; 12]).is_err());
    }

    #[test]
    fn duplicate_reservation_rejected() {
        let path = temp_path("dupres");
        let mut plan = SharedFilePlan::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[4]);
        plan.reserve("/x", &layout).unwrap();
        assert!(plan.reserve("/x", &layout).is_err());
    }

    #[test]
    fn unwritten_region_reads_as_zeros() {
        // A reservation never written reads back as zero bytes (sparse file
        // semantics) — checksums are computed at seal time so the file is
        // still valid.
        let path = temp_path("sparse");
        let mut plan = SharedFilePlan::create(&path).unwrap();
        let layout = Layout::new(DataType::F32, &[8]);
        plan.reserve("/ghost", &layout).unwrap();
        let r1 = plan.reserve("/real", &layout).unwrap();
        let w = plan.open_writer().unwrap();
        let bytes: Vec<u8> = (0..8).flat_map(|i| (i as f32).to_le_bytes()).collect();
        w.write_reserved(&r1, &bytes).unwrap();
        plan.seal().unwrap();
        let r = SdfReader::open(&path).unwrap();
        assert_eq!(r.read_f32("/ghost").unwrap(), vec![0.0; 8]);
        assert_eq!(r.read_f32("/real").unwrap()[7], 7.0);
    }
}
