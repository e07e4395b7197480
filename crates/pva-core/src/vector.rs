//! Base-stride vectors: the `V = <B, S, L>` tuple of §4.1.1.

use crate::error::PvaError;
use crate::geometry::WordAddr;

/// A base-stride application vector `V = <B, S, L>`.
///
/// `V[i]` is the word at address `B + i * S` for `i` in `0..L`. This is
/// the request unit the processor (or the memory controller's front
/// end) hands to the PVA unit; a conventional cache-line fill is the
/// special case `S = 1`.
///
/// # Examples
///
/// ```
/// use pva_core::Vector;
///
/// // The paper's example: V = <A, 4, 5> names A[0], A[4], ..., A[16].
/// let v = Vector::new(0, 4, 5)?;
/// let elems: Vec<u64> = v.addresses().collect();
/// assert_eq!(elems, vec![0, 4, 8, 12, 16]);
/// # Ok::<(), pva_core::PvaError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vector {
    base: WordAddr,
    stride: u64,
    length: u64,
}

impl Vector {
    /// Creates a vector with base word address `base`, stride `stride`
    /// (in words) and `length` elements.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::ZeroStride`] if `stride == 0` or
    /// [`PvaError::ZeroLength`] if `length == 0`.
    pub fn new(base: WordAddr, stride: u64, length: u64) -> Result<Self, PvaError> {
        if stride == 0 {
            return Err(PvaError::ZeroStride);
        }
        if length == 0 {
            return Err(PvaError::ZeroLength);
        }
        Ok(Vector {
            base,
            stride,
            length,
        })
    }

    /// Creates a unit-stride vector, i.e. a conventional cache-line fill
    /// of `length` words starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`PvaError::ZeroLength`] if `length == 0`.
    pub fn unit_stride(base: WordAddr, length: u64) -> Result<Self, PvaError> {
        Vector::new(base, 1, length)
    }

    /// Base address `V.B`.
    pub const fn base(&self) -> WordAddr {
        self.base
    }

    /// Stride `V.S` in words.
    pub const fn stride(&self) -> u64 {
        self.stride
    }

    /// Length `V.L` in elements.
    pub const fn length(&self) -> u64 {
        self.length
    }

    /// Address of element `V[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.length()` (in debug builds) or if the address
    /// computation overflows `u64`.
    pub fn element(&self, i: u64) -> WordAddr {
        debug_assert!(i < self.length, "element index {i} out of range");
        self.base + i * self.stride
    }

    /// Address one past the furthest element, i.e. the exclusive upper
    /// bound of the vector's footprint.
    pub fn end(&self) -> WordAddr {
        self.base + (self.length - 1) * self.stride + 1
    }

    /// Iterator over the element addresses `V[0], V[1], ..., V[L-1]`.
    ///
    /// This is the "sequential expansion" the PVA exists to avoid doing in
    /// hardware; in software it is the reference against which the
    /// closed-form algorithms are property-tested.
    pub fn addresses(&self) -> Addresses {
        Addresses {
            next: self.base,
            stride: self.stride,
            remaining: self.length,
        }
    }

    /// Splits off a prefix of `count` elements, returning `(prefix, rest)`
    /// where `rest` is `None` when `count >= self.length()`.
    ///
    /// Used by the page-splitting algorithm of §4.3.2 and by command
    /// units that must respect a maximum hardware vector length.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn split_at(&self, count: u64) -> (Vector, Option<Vector>) {
        assert!(count > 0, "cannot split off an empty prefix");
        if count >= self.length {
            return (*self, None);
        }
        let prefix = Vector {
            base: self.base,
            stride: self.stride,
            length: count,
        };
        let rest = Vector {
            base: self.base + count * self.stride,
            stride: self.stride,
            length: self.length - count,
        };
        (prefix, Some(rest))
    }

    /// Breaks the vector into hardware-sized commands of at most
    /// `max_len` elements each, preserving order.
    ///
    /// # Panics
    ///
    /// Panics if `max_len == 0`.
    pub fn chunks(&self, max_len: u64) -> Chunks {
        assert!(max_len > 0, "chunk length must be nonzero");
        Chunks {
            rest: Some(*self),
            max_len,
        }
    }
}

impl core::fmt::Display for Vector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "<{:#x}, {}, {}>", self.base, self.stride, self.length)
    }
}

/// Iterator over a vector's element addresses.
///
/// Produced by [`Vector::addresses`].
#[derive(Debug, Clone)]
pub struct Addresses {
    next: WordAddr,
    stride: u64,
    remaining: u64,
}

impl Iterator for Addresses {
    type Item = WordAddr;

    fn next(&mut self) -> Option<WordAddr> {
        if self.remaining == 0 {
            return None;
        }
        let addr = self.next;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.next += self.stride;
        }
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Addresses {
    fn next_back(&mut self) -> Option<WordAddr> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.next + self.remaining * self.stride)
    }
}

impl ExactSizeIterator for Addresses {}

/// Iterator over hardware-sized sub-vectors.
///
/// Produced by [`Vector::chunks`].
#[derive(Debug, Clone)]
pub struct Chunks {
    rest: Option<Vector>,
    max_len: u64,
}

impl Iterator for Chunks {
    type Item = Vector;

    fn next(&mut self) -> Option<Vector> {
        let v = self.rest.take()?;
        let (prefix, rest) = v.split_at(self.max_len.min(v.length()));
        self.rest = rest;
        Some(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_vectors() {
        assert_eq!(Vector::new(0, 0, 4).unwrap_err(), PvaError::ZeroStride);
        assert_eq!(Vector::new(0, 4, 0).unwrap_err(), PvaError::ZeroLength);
    }

    #[test]
    fn element_addresses() {
        let v = Vector::new(100, 7, 4).unwrap();
        assert_eq!(v.element(0), 100);
        assert_eq!(v.element(3), 121);
        assert_eq!(v.end(), 122);
        assert_eq!(v.addresses().collect::<Vec<_>>(), vec![100, 107, 114, 121]);
    }

    #[test]
    fn addresses_is_exact_size() {
        let v = Vector::new(0, 3, 10).unwrap();
        let it = v.addresses();
        assert_eq!(it.len(), 10);
        assert_eq!(it.count(), 10);
    }

    #[test]
    fn addresses_reverses() {
        let v = Vector::new(100, 7, 4).unwrap();
        let rev: Vec<u64> = v.addresses().rev().collect();
        assert_eq!(rev, vec![121, 114, 107, 100]);
        // Mixed front/back consumption stays consistent.
        let mut it = v.addresses();
        assert_eq!(it.next(), Some(100));
        assert_eq!(it.next_back(), Some(121));
        assert_eq!(it.next(), Some(107));
        assert_eq!(it.next_back(), Some(114));
        assert_eq!(it.next(), None);
    }

    #[test]
    fn split_at_partitions_elements() {
        let v = Vector::new(8, 5, 10).unwrap();
        let (a, b) = v.split_at(4);
        let b = b.unwrap();
        assert_eq!(a.length() + b.length(), 10);
        let mut all: Vec<u64> = a.addresses().collect();
        all.extend(b.addresses());
        assert_eq!(all, v.addresses().collect::<Vec<_>>());
    }

    #[test]
    fn split_at_beyond_length_returns_whole() {
        let v = Vector::new(8, 5, 10).unwrap();
        let (a, b) = v.split_at(10);
        assert_eq!(a, v);
        assert!(b.is_none());
        let (a, b) = v.split_at(100);
        assert_eq!(a, v);
        assert!(b.is_none());
    }

    #[test]
    fn chunks_cover_exactly_once() {
        let v = Vector::new(3, 19, 100).unwrap();
        let mut all = Vec::new();
        for c in v.chunks(32) {
            assert!(c.length() <= 32);
            all.extend(c.addresses());
        }
        assert_eq!(all, v.addresses().collect::<Vec<_>>());
        // 100 = 32 + 32 + 32 + 4
        assert_eq!(v.chunks(32).count(), 4);
        assert_eq!(v.chunks(32).last().unwrap().length(), 4);
    }

    #[test]
    fn display_matches_paper_tuple_form() {
        let v = Vector::new(0x40, 4, 5).unwrap();
        assert_eq!(v.to_string(), "<0x40, 4, 5>");
    }

    #[test]
    fn unit_stride_is_line_fill() {
        let v = Vector::unit_stride(64, 32).unwrap();
        assert_eq!(v.stride(), 1);
        assert_eq!(v.addresses().next_back().unwrap(), 95);
    }
}
