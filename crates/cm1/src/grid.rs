//! 3D fields with horizontal halo cells.
//!
//! CM1 splits its fixed 3D domain along a 2D (x, y) process grid; each
//! process holds full z-columns. A [`Field3`] therefore carries one layer
//! of ghost cells in x and y only.

/// A local 3D scalar field: `nx × ny × nz` interior points plus a
/// `halo`-wide ghost layer in x and y. Storage is row-major `(x, y, z)`
/// with z fastest.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub halo: usize,
    data: Vec<f32>,
}

impl Field3 {
    /// Zero-filled field.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        let sx = nx + 2 * halo;
        let sy = ny + 2 * halo;
        Field3 {
            nx,
            ny,
            nz,
            halo,
            data: vec![0.0; sx * sy * nz],
        }
    }

    /// Constant-filled field.
    pub fn filled(nx: usize, ny: usize, nz: usize, halo: usize, value: f32) -> Self {
        let mut f = Self::new(nx, ny, nz, halo);
        f.data.fill(value);
        f
    }

    #[inline]
    fn stride_y(&self) -> usize {
        self.nz
    }

    #[inline]
    fn stride_x(&self) -> usize {
        (self.ny + 2 * self.halo) * self.nz
    }

    /// Flat index of interior coordinate `(i, j, k)`; `i ∈ -halo..nx+halo`
    /// etc. are valid for ghost access.
    #[inline]
    pub fn idx(&self, i: isize, j: isize, k: usize) -> usize {
        let h = self.halo as isize;
        debug_assert!(i >= -h && i < self.nx as isize + h, "i={i}");
        debug_assert!(j >= -h && j < self.ny as isize + h, "j={j}");
        debug_assert!(k < self.nz);
        ((i + h) as usize) * self.stride_x() + ((j + h) as usize) * self.stride_y() + k
    }

    /// Value at `(i, j, k)` (ghost coordinates allowed).
    #[inline]
    pub fn at(&self, i: isize, j: isize, k: usize) -> f32 {
        self.data[self.idx(i, j, k)]
    }

    /// Mutable value at `(i, j, k)`.
    #[inline]
    pub fn at_mut(&mut self, i: isize, j: isize, k: usize) -> &mut f32 {
        let idx = self.idx(i, j, k);
        &mut self.data[idx]
    }

    /// Copies the interior (no ghosts) into a flat `nx·ny·nz` vector in
    /// row-major (x, y, z) order — what the I/O phase writes.
    pub fn interior(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.nx * self.ny * self.nz);
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                let base = self.idx(i, j, 0);
                out.extend_from_slice(&self.data[base..base + self.nz]);
            }
        }
        out
    }

    /// Loads interior values from a flat vector (inverse of [`interior`]).
    ///
    /// [`interior`]: Field3::interior
    pub fn set_interior(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.nx * self.ny * self.nz);
        let mut src = 0;
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                let base = self.idx(i, j, 0);
                self.data[base..base + self.nz].copy_from_slice(&values[src..src + self.nz]);
                src += self.nz;
            }
        }
    }

    /// Extracts a ghost-exchange plane: the `depth`-th interior x-plane
    /// from the west (`side = West`) etc., as a flat `ny·nz` or `nx·nz`
    /// vector.
    pub fn extract_plane(&self, side: Side) -> Vec<f32> {
        match side {
            Side::West | Side::East => {
                let i = if side == Side::West {
                    0
                } else {
                    self.nx as isize - 1
                };
                let mut out = Vec::with_capacity(self.ny * self.nz);
                for j in 0..self.ny as isize {
                    let base = self.idx(i, j, 0);
                    out.extend_from_slice(&self.data[base..base + self.nz]);
                }
                out
            }
            Side::South | Side::North => {
                let j = if side == Side::South {
                    0
                } else {
                    self.ny as isize - 1
                };
                let mut out = Vec::with_capacity(self.nx * self.nz);
                for i in 0..self.nx as isize {
                    let base = self.idx(i, j, 0);
                    out.extend_from_slice(&self.data[base..base + self.nz]);
                }
                out
            }
        }
    }

    /// Installs a received plane into the ghost layer on `side`.
    pub fn install_ghost(&mut self, side: Side, plane: &[f32]) {
        match side {
            Side::West | Side::East => {
                assert_eq!(plane.len(), self.ny * self.nz);
                let i = if side == Side::West {
                    -1
                } else {
                    self.nx as isize
                };
                let mut src = 0;
                for j in 0..self.ny as isize {
                    let base = self.idx(i, j, 0);
                    self.data[base..base + self.nz].copy_from_slice(&plane[src..src + self.nz]);
                    src += self.nz;
                }
            }
            Side::South | Side::North => {
                assert_eq!(plane.len(), self.nx * self.nz);
                let j = if side == Side::South {
                    -1
                } else {
                    self.ny as isize
                };
                let mut src = 0;
                for i in 0..self.nx as isize {
                    let base = self.idx(i, j, 0);
                    self.data[base..base + self.nz].copy_from_slice(&plane[src..src + self.nz]);
                    src += self.nz;
                }
            }
        }
    }

    /// Sum over interior points (for conservation checks).
    pub fn interior_sum(&self) -> f64 {
        let mut sum = 0.0f64;
        for i in 0..self.nx as isize {
            for j in 0..self.ny as isize {
                let base = self.idx(i, j, 0);
                for k in 0..self.nz {
                    sum += f64::from(self.data[base + k]);
                }
            }
        }
        sum
    }

    /// Interior element count.
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// Horizontal neighbours of a subdomain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    West,
    East,
    South,
    North,
}

impl Side {
    /// All four sides.
    pub const ALL: [Side; 4] = [Side::West, Side::East, Side::South, Side::North];

    /// The side a message sent from this side arrives on.
    pub fn opposite(self) -> Side {
        match self {
            Side::West => Side::East,
            Side::East => Side::West,
            Side::South => Side::North,
            Side::North => Side::South,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_roundtrip() {
        let mut f = Field3::new(3, 4, 2, 1);
        let values: Vec<f32> = (0..24).map(|v| v as f32).collect();
        f.set_interior(&values);
        assert_eq!(f.interior(), values);
        assert_eq!(f.at(0, 0, 0), 0.0);
        assert_eq!(f.at(0, 0, 1), 1.0);
        assert_eq!(f.at(2, 3, 1), 23.0);
    }

    #[test]
    fn ghosts_do_not_alias_interior() {
        let mut f = Field3::filled(2, 2, 2, 1, 5.0);
        *f.at_mut(-1, 0, 0) = 99.0;
        *f.at_mut(2, 1, 1) = 98.0;
        assert!(f.interior().iter().all(|&v| v == 5.0));
    }

    #[test]
    fn plane_exchange_roundtrip() {
        let mut a = Field3::new(3, 4, 2, 1);
        let values: Vec<f32> = (0..24).map(|v| v as f32).collect();
        a.set_interior(&values);

        for side in Side::ALL {
            let plane = a.extract_plane(side);
            let mut b = Field3::new(3, 4, 2, 1);
            b.install_ghost(side.opposite(), &plane);
            // The ghost on the opposite side matches the extracted border.
            match side {
                Side::West => assert_eq!(b.at(3, 0, 0), a.at(0, 0, 0)),
                Side::East => assert_eq!(b.at(-1, 0, 0), a.at(2, 0, 0)),
                Side::South => assert_eq!(b.at(0, 4, 1), a.at(0, 0, 1)),
                Side::North => assert_eq!(b.at(0, -1, 1), a.at(0, 3, 1)),
            }
        }
    }

    #[test]
    fn interior_sum() {
        let f = Field3::filled(2, 3, 4, 1, 2.0);
        assert_eq!(f.interior_sum(), 48.0);
        assert_eq!(f.interior_len(), 24);
    }

    #[test]
    #[should_panic]
    fn wrong_plane_size_panics() {
        let mut f = Field3::new(2, 2, 2, 1);
        f.install_ghost(Side::West, &[0.0; 3]);
    }
}
