//! Multi-dimensional array views, mirroring `Kokkos::View`.
//!
//! Unlike Kokkos views (which are unmanaged handles with reference
//! semantics), these own their storage and follow Rust borrow rules; the
//! parallel patterns in [`crate::parallel`] provide the controlled aliasing
//! that Kokkos leaves to the programmer.
//!
//! All views are dense. [`View2`] and [`View3`] carry a runtime
//! [`Layout`] so kernels can be benchmarked against both index orders.

use crate::layout::Layout;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A labelled 1-D view (owning vector with a Kokkos-style label).
#[derive(Clone, PartialEq)]
pub struct View1<T> {
    label: String,
    data: Vec<T>,
}

impl<T: Default + Clone> View1<T> {
    /// Allocate a zero/default-initialized view of length `n`.
    pub fn new(label: impl Into<String>, n: usize) -> Self {
        Self { label: label.into(), data: vec![T::default(); n] }
    }
}

impl<T> View1<T> {
    /// Wrap an existing vector.
    pub fn from_vec(label: impl Into<String>, data: Vec<T>) -> Self {
        Self { label: label.into(), data }
    }

    /// The Kokkos-style debug label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of elements (Kokkos `extent(0)`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Kokkos `deep_copy(self, src)`: element-wise copy from another view of
    /// identical extent.
    ///
    /// # Panics
    /// Panics if extents differ.
    pub fn deep_copy_from(&mut self, src: &Self)
    where
        T: Clone,
    {
        assert_eq!(self.len(), src.len(), "deep_copy extent mismatch");
        self.data.clone_from_slice(&src.data);
    }
}

impl<T> Index<usize> for View1<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T> IndexMut<usize> for View1<T> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

impl<T: fmt::Debug> fmt::Debug for View1<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "View1(\"{}\", len={})", self.label, self.data.len())
    }
}

/// A labelled 2-D view with runtime layout.
#[derive(Clone, PartialEq)]
pub struct View2<T> {
    label: String,
    n0: usize,
    n1: usize,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Default + Clone> View2<T> {
    /// Allocate a default-initialized `(n0, n1)` view with the given layout.
    pub fn new(label: impl Into<String>, n0: usize, n1: usize, layout: Layout) -> Self {
        Self { label: label.into(), n0, n1, layout, data: vec![T::default(); n0 * n1] }
    }
}

impl<T> View2<T> {
    /// Wrap an existing vector; `data.len()` must equal `n0 * n1`.
    pub fn from_vec(
        label: impl Into<String>,
        n0: usize,
        n1: usize,
        layout: Layout,
        data: Vec<T>,
    ) -> Self {
        assert_eq!(data.len(), n0 * n1, "View2 storage/extent mismatch");
        Self { label: label.into(), n0, n1, layout, data }
    }

    /// The Kokkos-style debug label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Extent along dimension `d` (0 or 1).
    pub fn extent(&self, d: usize) -> usize {
        match d {
            0 => self.n0,
            1 => self.n1,
            _ => panic!("View2 has rank 2, asked for extent({d})"),
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The memory layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Linear offset of `(i, j)`.
    #[inline(always)]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n0 && j < self.n1, "View2 index out of bounds");
        self.layout.offset2(i, j, self.n0, self.n1)
    }

    /// Borrow the linear storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the linear storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element access with bounds checks in all builds.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if i < self.n0 && j < self.n1 {
            Some(&self.data[self.layout.offset2(i, j, self.n0, self.n1)])
        } else {
            None
        }
    }

    /// Re-layout into `target`, preserving logical content.
    pub fn to_layout(&self, target: Layout) -> Self
    where
        T: Clone + Default,
    {
        let mut out = Self::new(self.label.clone(), self.n0, self.n1, target);
        for i in 0..self.n0 {
            for j in 0..self.n1 {
                out[(i, j)] = self[(i, j)].clone();
            }
        }
        out
    }
}

impl<T> Index<(usize, usize)> for View2<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        let off = self.offset(i, j);
        &self.data[off]
    }
}

impl<T> IndexMut<(usize, usize)> for View2<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        let off = self.offset(i, j);
        &mut self.data[off]
    }
}

impl<T: fmt::Debug> fmt::Debug for View2<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "View2(\"{}\", {}x{}, {:?})",
            self.label, self.n0, self.n1, self.layout
        )
    }
}

/// A labelled 3-D view with runtime layout.
#[derive(Clone, PartialEq)]
pub struct View3<T> {
    label: String,
    n0: usize,
    n1: usize,
    n2: usize,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Default + Clone> View3<T> {
    /// Allocate a default-initialized `(n0, n1, n2)` view.
    pub fn new(label: impl Into<String>, n0: usize, n1: usize, n2: usize, layout: Layout) -> Self {
        Self { label: label.into(), n0, n1, n2, layout, data: vec![T::default(); n0 * n1 * n2] }
    }
}

impl<T> View3<T> {
    /// Wrap an existing vector; `data.len()` must equal `n0 * n1 * n2`.
    pub fn from_vec(
        label: impl Into<String>,
        n0: usize,
        n1: usize,
        n2: usize,
        layout: Layout,
        data: Vec<T>,
    ) -> Self {
        assert_eq!(data.len(), n0 * n1 * n2, "View3 storage/extent mismatch");
        Self { label: label.into(), n0, n1, n2, layout, data }
    }

    /// The Kokkos-style debug label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Extent along dimension `d` (0, 1, or 2).
    pub fn extent(&self, d: usize) -> usize {
        match d {
            0 => self.n0,
            1 => self.n1,
            2 => self.n2,
            _ => panic!("View3 has rank 3, asked for extent({d})"),
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The memory layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Linear offset of `(i, j, k)`.
    #[inline(always)]
    pub fn offset(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(
            i < self.n0 && j < self.n1 && k < self.n2,
            "View3 index out of bounds"
        );
        self.layout.offset3(i, j, k, self.n0, self.n1, self.n2)
    }

    /// Borrow the linear storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the linear storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element access with bounds checks in all builds.
    pub fn get(&self, i: usize, j: usize, k: usize) -> Option<&T> {
        if i < self.n0 && j < self.n1 && k < self.n2 {
            Some(&self.data[self.layout.offset3(i, j, k, self.n0, self.n1, self.n2)])
        } else {
            None
        }
    }
}

impl<T> Index<(usize, usize, usize)> for View3<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j, k): (usize, usize, usize)) -> &T {
        let off = self.offset(i, j, k);
        &self.data[off]
    }
}

impl<T> IndexMut<(usize, usize, usize)> for View3<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j, k): (usize, usize, usize)) -> &mut T {
        let off = self.offset(i, j, k);
        &mut self.data[off]
    }
}

impl<T: fmt::Debug> fmt::Debug for View3<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "View3(\"{}\", {}x{}x{}, {:?})",
            self.label, self.n0, self.n1, self.n2, self.layout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view1_roundtrip_and_label() {
        let mut v = View1::<f32>::new("x", 8);
        assert_eq!(v.label(), "x");
        assert_eq!(v.len(), 8);
        v[3] = 1.5;
        assert_eq!(v[3], 1.5);
        assert_eq!(v.as_slice().iter().sum::<f32>(), 1.5);
    }

    #[test]
    fn view1_deep_copy_clones_contents() {
        let src = View1::from_vec("s", vec![1, 2, 3]);
        let mut dst = View1::<i32>::new("d", 3);
        dst.deep_copy_from(&src);
        assert_eq!(dst.as_slice(), &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "extent mismatch")]
    fn view1_deep_copy_checks_extents() {
        let src = View1::from_vec("s", vec![1, 2, 3]);
        let mut dst = View1::<i32>::new("d", 2);
        dst.deep_copy_from(&src);
    }

    #[test]
    fn view2_layouts_agree_logically() {
        let mut r = View2::<i32>::new("r", 3, 4, Layout::Right);
        let mut l = View2::<i32>::new("l", 3, 4, Layout::Left);
        for i in 0..3 {
            for j in 0..4 {
                r[(i, j)] = (10 * i + j) as i32;
                l[(i, j)] = (10 * i + j) as i32;
            }
        }
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(r[(i, j)], l[(i, j)]);
            }
        }
        // but the linear storage differs
        assert_ne!(r.as_slice(), l.as_slice());
    }

    #[test]
    fn view2_to_layout_preserves_content() {
        let mut r = View2::<i32>::new("r", 2, 5, Layout::Right);
        for i in 0..2 {
            for j in 0..5 {
                r[(i, j)] = (i * 5 + j) as i32;
            }
        }
        let l = r.to_layout(Layout::Left);
        for i in 0..2 {
            for j in 0..5 {
                assert_eq!(r[(i, j)], l[(i, j)]);
            }
        }
        assert_eq!(l.layout(), Layout::Left);
    }

    #[test]
    fn view2_get_is_bounds_checked() {
        let v = View2::<u8>::new("v", 2, 2, Layout::Right);
        assert!(v.get(1, 1).is_some());
        assert!(v.get(2, 0).is_none());
        assert!(v.get(0, 2).is_none());
    }

    #[test]
    fn view3_indexing_and_extents() {
        let mut v = View3::<f64>::new("f", 2, 3, 4, Layout::Right);
        assert_eq!((v.extent(0), v.extent(1), v.extent(2)), (2, 3, 4));
        v[(1, 2, 3)] = 7.0;
        assert_eq!(v[(1, 2, 3)], 7.0);
        assert_eq!(v.as_slice()[v.offset(1, 2, 3)], 7.0);
    }

    #[test]
    fn view3_left_layout_first_index_fastest() {
        let v = View3::<u8>::new("v", 4, 3, 2, Layout::Left);
        assert_eq!(v.offset(1, 0, 0), 1);
        assert_eq!(v.offset(0, 1, 0), 4);
        assert_eq!(v.offset(0, 0, 1), 12);
    }

    #[test]
    #[should_panic]
    fn view3_index_out_of_bounds_panics() {
        let v = View3::<u8>::new("v", 2, 2, 2, Layout::Right);
        let _ = v[(2, 0, 0)];
    }

    #[test]
    #[should_panic(expected = "storage/extent mismatch")]
    fn view2_from_vec_validates_size() {
        let _ = View2::from_vec("bad", 2, 3, Layout::Right, vec![0u8; 5]);
    }
}
