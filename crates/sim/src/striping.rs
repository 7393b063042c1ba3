//! Byte-range → data-server striping, shared by all file system models.
//!
//! A file's bytes are divided into `stripe_size` stripes assigned
//! round-robin to `stripe_count` servers starting at the file's hashed
//! first server. A write of `[offset, offset+len)` therefore lands on a
//! deterministic multiset of servers — large contiguous writes spread over
//! the whole stripe set (good), while many small files each hammer a few
//! servers chosen at random (the paper's file-per-process pattern).

use crate::fs_model::FsSpec;

/// A contiguous portion of a write landing on one data server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeSlice {
    /// Data server index.
    pub server: usize,
    /// Bytes of the write landing on that server in this slice.
    pub bytes: u64,
}

/// Splits the byte range `[offset, offset + len)` of `file_id` into
/// per-server slices, in file order. Adjacent slices on the same server are
/// merged.
pub fn stripes_for(fs: &FsSpec, file_id: u64, offset: u64, len: u64) -> Vec<StripeSlice> {
    if len == 0 || fs.data_servers == 0 {
        return Vec::new();
    }
    let stripe_size = fs.stripe_size.max(1);
    let stripe_count = fs.stripe_count.clamp(1, fs.data_servers) as u64;
    let first = fs.first_server_for(file_id) as u64;

    let mut out: Vec<StripeSlice> = Vec::new();
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let stripe_index = pos / stripe_size;
        let stripe_end = (stripe_index + 1) * stripe_size;
        let chunk = stripe_end.min(end) - pos;
        let server = ((first + stripe_index % stripe_count) % fs.data_servers as u64) as usize;
        match out.last_mut() {
            Some(last) if last.server == server => last.bytes += chunk,
            _ => out.push(StripeSlice {
                server,
                bytes: chunk,
            }),
        }
        pos += chunk;
    }
    out
}

/// Distinct servers touched by a write (for lock-conflict accounting).
pub fn servers_touched(fs: &FsSpec, file_id: u64, offset: u64, len: u64) -> Vec<usize> {
    let mut servers: Vec<usize> = stripes_for(fs, file_id, offset, len)
        .iter()
        .map(|s| s.server)
        .collect();
    servers.sort_unstable();
    servers.dedup();
    servers
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fs() -> FsSpec {
        FsSpec::lustre(8)
            .with_stripe_size(1024)
            .with_stripe_count(4)
    }

    #[test]
    fn small_write_hits_one_server() {
        let s = stripes_for(&fs(), 1, 0, 100);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].bytes, 100);
    }

    #[test]
    fn large_write_round_robins() {
        let f = fs();
        let s = stripes_for(&f, 1, 0, 4096);
        assert_eq!(s.len(), 4, "{s:?}");
        assert!(s.iter().all(|x| x.bytes == 1024));
        // Servers must be 4 distinct ones.
        let distinct = servers_touched(&f, 1, 0, 4096);
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn wrap_around_merges_same_server() {
        let f = fs();
        // 8 KiB = 2 laps over the 4-server stripe set; per-server slices
        // are not adjacent so we get 8 slices.
        let s = stripes_for(&f, 1, 0, 8192);
        assert_eq!(s.iter().map(|x| x.bytes).sum::<u64>(), 8192);
        assert_eq!(s.len(), 8);
        assert_eq!(servers_touched(&f, 1, 0, 8192).len(), 4);
    }

    #[test]
    fn unaligned_offset() {
        let f = fs();
        let s = stripes_for(&f, 9, 1000, 100);
        // Crosses the stripe boundary at 1024.
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].bytes, 24);
        assert_eq!(s[1].bytes, 76);
    }

    #[test]
    fn empty_write() {
        assert!(stripes_for(&fs(), 1, 0, 0).is_empty());
    }

    #[test]
    fn stripe_count_clamped_to_servers() {
        let f = FsSpec::lustre(2).with_stripe_size(64).with_stripe_count(16);
        let distinct = servers_touched(&f, 3, 0, 4096);
        assert!(distinct.len() <= 2);
    }

    proptest! {
        #[test]
        fn slices_cover_exactly(
            file_id in any::<u64>(),
            offset in 0u64..100_000,
            len in 0u64..100_000,
        ) {
            let f = fs();
            let slices = stripes_for(&f, file_id, offset, len);
            prop_assert_eq!(slices.iter().map(|s| s.bytes).sum::<u64>(), len);
            for s in &slices {
                prop_assert!(s.server < f.data_servers);
                prop_assert!(s.bytes > 0);
            }
        }

        #[test]
        fn deterministic(file_id in any::<u64>(), offset in 0u64..10_000, len in 1u64..10_000) {
            let f = fs();
            prop_assert_eq!(
                stripes_for(&f, file_id, offset, len),
                stripes_for(&f, file_id, offset, len)
            );
        }
    }
}
