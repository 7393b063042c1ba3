//! 2D domain decomposition (paper §IV-A): "Parallelization is done using
//! MPI, by splitting the 3D array along a 2D grid of equally-sized
//! subdomains that are handled by each process."

use crate::grid::Side;

/// A `px × py` process grid over a `gnx × gny × gnz` global domain, with
/// periodic horizontal boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomp2d {
    pub px: usize,
    pub py: usize,
    pub gnx: usize,
    pub gny: usize,
    pub gnz: usize,
}

impl Decomp2d {
    /// Creates the decomposition; the global extents must divide evenly
    /// (the paper uses equally-sized subdomains).
    pub fn new(px: usize, py: usize, gnx: usize, gny: usize, gnz: usize) -> Result<Self, String> {
        if px == 0 || py == 0 {
            return Err("process grid dimensions must be positive".into());
        }
        if !gnx.is_multiple_of(px) || !gny.is_multiple_of(py) {
            return Err(format!(
                "global domain {gnx}×{gny} does not divide into a {px}×{py} process grid"
            ));
        }
        Ok(Decomp2d {
            px,
            py,
            gnx,
            gny,
            gnz,
        })
    }

    /// Picks a near-square process grid for `nprocs` ranks, constrained to
    /// divide the global extents.
    pub fn auto(nprocs: usize, gnx: usize, gny: usize, gnz: usize) -> Result<Self, String> {
        let mut best: Option<(usize, usize)> = None;
        for px in 1..=nprocs {
            if !nprocs.is_multiple_of(px) {
                continue;
            }
            let py = nprocs / px;
            if !gnx.is_multiple_of(px) || !gny.is_multiple_of(py) {
                continue;
            }
            let badness = px.abs_diff(py);
            if best.is_none_or(|(bx, by)| badness < bx.abs_diff(by)) {
                best = Some((px, py));
            }
        }
        let (px, py) = best
            .ok_or_else(|| format!("no valid process grid for {nprocs} ranks over {gnx}×{gny}"))?;
        Self::new(px, py, gnx, gny, gnz)
    }

    /// Total ranks.
    pub fn nprocs(&self) -> usize {
        self.px * self.py
    }

    /// Rank → (cx, cy) grid coordinates (x-major).
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.nprocs());
        (rank % self.px, rank / self.px)
    }

    /// (cx, cy) → rank.
    pub fn rank_of(&self, cx: usize, cy: usize) -> usize {
        (cy % self.py) * self.px + (cx % self.px)
    }

    /// Local subdomain extents (equal for every rank).
    pub fn local_extent(&self) -> (usize, usize, usize) {
        (self.gnx / self.px, self.gny / self.py, self.gnz)
    }

    /// Global offset of `rank`'s subdomain.
    pub fn local_origin(&self, rank: usize) -> (usize, usize) {
        let (cx, cy) = self.coords(rank);
        let (lnx, lny, _) = self.local_extent();
        (cx * lnx, cy * lny)
    }

    /// Neighbour rank on `side` (periodic wrap).
    pub fn neighbor(&self, rank: usize, side: Side) -> usize {
        let (cx, cy) = self.coords(rank);
        match side {
            Side::West => self.rank_of(cx.wrapping_add(self.px - 1), cy),
            Side::East => self.rank_of(cx + 1, cy),
            Side::South => self.rank_of(cx, cy.wrapping_add(self.py - 1)),
            Side::North => self.rank_of(cx, cy + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coords_roundtrip() {
        let d = Decomp2d::new(4, 3, 32, 24, 10).unwrap();
        for rank in 0..12 {
            let (cx, cy) = d.coords(rank);
            assert_eq!(d.rank_of(cx, cy), rank);
        }
        assert_eq!(d.local_extent(), (8, 8, 10));
        assert_eq!(d.local_origin(0), (0, 0));
        assert_eq!(d.local_origin(5), (8, 8));
    }

    #[test]
    fn neighbors_are_mutual() {
        let d = Decomp2d::new(3, 3, 9, 9, 2).unwrap();
        for rank in 0..9 {
            for side in Side::ALL {
                let n = d.neighbor(rank, side);
                assert_eq!(
                    d.neighbor(n, side.opposite()),
                    rank,
                    "rank {rank} side {side:?}"
                );
            }
        }
    }

    #[test]
    fn periodic_wrap() {
        let d = Decomp2d::new(3, 2, 9, 8, 2).unwrap();
        assert_eq!(d.neighbor(0, Side::West), 2);
        assert_eq!(d.neighbor(2, Side::East), 0);
        assert_eq!(d.neighbor(0, Side::South), 3);
        assert_eq!(d.neighbor(3, Side::North), 0);
    }

    #[test]
    fn divisibility_enforced() {
        assert!(Decomp2d::new(3, 2, 10, 8, 2).is_err());
        assert!(Decomp2d::new(0, 2, 8, 8, 2).is_err());
    }

    #[test]
    fn auto_prefers_square() {
        let d = Decomp2d::auto(16, 64, 64, 8).unwrap();
        assert_eq!((d.px, d.py), (4, 4));
        let d = Decomp2d::auto(12, 48, 48, 8).unwrap();
        assert!(d.px * d.py == 12 && d.px.abs_diff(d.py) <= 2, "{d:?}");
    }

    #[test]
    fn auto_respects_divisibility() {
        // 6 ranks over 9×8: 3×2 works (9/3, 8/2), 2×3 and 6×1 do not.
        let d = Decomp2d::auto(6, 9, 8, 4).unwrap();
        assert_eq!((d.px, d.py), (3, 2));
        assert!(Decomp2d::auto(7, 9, 8, 4).is_err());
    }

    proptest! {
        #[test]
        fn subdomains_tile_the_domain(px in 1usize..6, py in 1usize..6, mul_x in 1usize..5, mul_y in 1usize..5) {
            let d = Decomp2d::new(px, py, px * mul_x * 2, py * mul_y * 3, 4).unwrap();
            let (lnx, lny, _) = d.local_extent();
            // Every global cell is covered exactly once.
            let mut covered = vec![0u32; d.gnx * d.gny];
            for rank in 0..d.nprocs() {
                let (ox, oy) = d.local_origin(rank);
                for dx in 0..lnx {
                    for dy in 0..lny {
                        covered[(ox + dx) * d.gny + (oy + dy)] += 1;
                    }
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1));
        }
    }
}
