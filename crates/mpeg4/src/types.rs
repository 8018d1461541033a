//! Image planes, frames and motion vectors.

use std::fmt;
use std::sync::Arc;

use crate::MB;

/// One 8-bit image plane.
///
/// The samples are reference-counted and copy-on-write: cloning a plane
/// (or a [`Frame`]) shares its storage, and the first write to a shared
/// clone copies it. A derived workload therefore holds the base
/// workload's source pixels, not a copy of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Arc<[u8]>,
}

impl Plane {
    /// A zero-filled plane.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: std::iter::repeat_n(0, width * height).collect(),
        }
    }

    /// Builds a plane from existing samples.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != width * height`.
    #[must_use]
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "sample count mismatch");
        Plane {
            width,
            height,
            data: data.into(),
        }
    }

    /// Plane width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw samples, row major.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The raw samples for writing, row major, copied first when another
    /// clone shares them. That check is an atomic operation, so writers
    /// borrow once per block or plane ([`Plane::block_rows_mut`]), not
    /// once per pixel.
    fn data_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data)
    }

    /// The rows of the `w`×`h` block at `(x, y)` for writing, `w` samples
    /// each, top to bottom, with one copy-on-write check for the whole
    /// block.
    ///
    /// # Panics
    ///
    /// Panics when the block leaves the plane.
    pub fn block_rows_mut(
        &mut self,
        x: usize,
        y: usize,
        w: usize,
        h: usize,
    ) -> impl Iterator<Item = &mut [u8]> {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "{w}x{h} block at ({x},{y}) leaves the plane"
        );
        let width = self.width;
        self.data_mut()[y * width..(y + h) * width]
            .chunks_exact_mut(width)
            .map(move |row| &mut row[x..x + w])
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "({x},{y}) out of plane");
        self.data[y * self.width + x]
    }

    /// Sample at `(x, y)` with edge clamping (used by the synthesizer).
    #[must_use]
    pub fn at_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.data[y * self.width + x]
    }

    /// Writes sample `(x, y)`. Each call checks whether the samples are
    /// shared (see [`Plane`]); a loop over many pixels borrows them once
    /// with [`Plane::block_rows_mut`] instead.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "({x},{y}) out of plane");
        let width = self.width;
        self.data_mut()[y * width + x] = v;
    }

    /// One pixel row.
    #[must_use]
    pub fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Number of 16×16 macroblocks horizontally.
    #[must_use]
    pub fn mbs_x(&self) -> usize {
        self.width / MB
    }

    /// Number of 16×16 macroblocks vertically.
    #[must_use]
    pub fn mbs_y(&self) -> usize {
        self.height / MB
    }
}

/// A YUV 4:2:0 frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Luma plane.
    pub y: Plane,
    /// Blue-difference chroma plane (half resolution).
    pub u: Plane,
    /// Red-difference chroma plane (half resolution).
    pub v: Plane,
}

impl Frame {
    /// A black frame of the given luma size.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are multiples of 16 (whole
    /// macroblocks).
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width.is_multiple_of(MB) && height.is_multiple_of(MB),
            "frame dimensions must be whole macroblocks"
        );
        Frame {
            y: Plane::new(width, height),
            u: Plane::new(width / 2, height / 2),
            v: Plane::new(width / 2, height / 2),
        }
    }

    /// Luma width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.y.width()
    }

    /// Luma height.
    #[must_use]
    pub fn height(&self) -> usize {
        self.y.height()
    }
}

/// A motion vector in **half-sample units** (so `Mv { x: 3, y: -2 }` means
/// +1.5 px right, −1 px up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mv {
    /// Horizontal component, half-sample units.
    pub x: i16,
    /// Vertical component, half-sample units.
    pub y: i16,
}

impl Mv {
    /// A vector from half-sample components.
    #[must_use]
    pub fn new(x: i16, y: i16) -> Self {
        Mv { x, y }
    }

    /// A vector from integer-sample components.
    #[must_use]
    pub fn from_int(x: i16, y: i16) -> Self {
        Mv { x: x * 2, y: y * 2 }
    }

    /// Whether both components are integer-sample.
    #[must_use]
    pub fn is_integer(self) -> bool {
        self.x % 2 == 0 && self.y % 2 == 0
    }

    /// The integer (floor) parts, in whole samples.
    #[must_use]
    pub fn int_part(self) -> (i16, i16) {
        (self.x.div_euclid(2), self.y.div_euclid(2))
    }

    /// The half-sample flags `(x odd, y odd)`.
    #[must_use]
    pub fn half_flags(self) -> (bool, bool) {
        (self.x.rem_euclid(2) == 1, self.y.rem_euclid(2) == 1)
    }
}

impl fmt::Display for Mv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.1},{:.1})",
            f64::from(self.x) / 2.0,
            f64::from(self.y) / 2.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_roundtrip() {
        let mut p = Plane::new(16, 16);
        p.set(3, 5, 200);
        assert_eq!(p.at(3, 5), 200);
        assert_eq!(p.row(5)[3], 200);
    }

    #[test]
    fn clones_share_samples_until_written() {
        let mut p = Plane::new(16, 16);
        p.set(1, 2, 7);
        let mut q = p.clone();
        assert!(
            std::ptr::eq(p.data(), q.data()),
            "a clone copied its samples"
        );
        q.set(1, 2, 9);
        assert!(!std::ptr::eq(p.data(), q.data()), "a write did not copy");
        assert_eq!((p.at(1, 2), q.at(1, 2)), (7, 9));
    }

    #[test]
    fn block_rows_cover_exactly_the_block() {
        let mut p = Plane::new(16, 8);
        for row in p.block_rows_mut(3, 2, 4, 2) {
            row.fill(1);
        }
        let written: Vec<(usize, usize)> = (0..8)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .filter(|&(x, y)| p.at(x, y) == 1)
            .collect();
        let block: Vec<(usize, usize)> = (2..4).flat_map(|y| (3..7).map(move |x| (x, y))).collect();
        assert_eq!(written, block);
    }

    #[test]
    #[should_panic(expected = "leaves the plane")]
    fn block_rows_reject_a_block_past_the_edge() {
        let mut p = Plane::new(16, 16);
        let _ = p.block_rows_mut(12, 0, 8, 8).count();
    }

    #[test]
    fn clamped_access_at_edges() {
        let mut p = Plane::new(4, 4);
        p.set(0, 0, 9);
        p.set(3, 3, 7);
        assert_eq!(p.at_clamped(-5, -5), 9);
        assert_eq!(p.at_clamped(100, 100), 7);
    }

    #[test]
    fn frame_chroma_is_half_size() {
        let f = Frame::new(176, 144);
        assert_eq!((f.u.width(), f.u.height()), (88, 72));
        assert_eq!(f.y.mbs_x(), 11);
        assert_eq!(f.y.mbs_y(), 9);
    }

    #[test]
    #[should_panic(expected = "whole macroblocks")]
    fn frame_requires_mb_multiple() {
        let _ = Frame::new(100, 100);
    }

    #[test]
    fn mv_half_sample_decomposition() {
        let mv = Mv::new(3, -1);
        assert_eq!(mv.int_part(), (1, -1));
        assert_eq!(mv.half_flags(), (true, true));
        assert!(!mv.is_integer());
        assert!(Mv::from_int(2, -3).is_integer());
        assert_eq!(Mv::new(-3, 0).int_part(), (-2, 0));
        assert_eq!(Mv::new(-3, 0).half_flags(), (true, false));
    }

    #[test]
    fn mv_display_in_pixels() {
        assert_eq!(Mv::new(3, -2).to_string(), "(1.5,-1.0)");
    }
}
