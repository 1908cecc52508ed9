//! Offline stand-in for the crates.io `bytes` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the (small) portion of the `bytes` API it uses:
//! [`Bytes`], [`BytesMut`], and the [`Buf`]/[`BufMut`] traits with
//! big-endian integer accessors. Semantics match the real crate for the
//! covered surface. A [`Bytes`] is one `Arc<[u8]>` heap block plus a
//! `u32` view range, so clones and slices are cheap and one buffer costs
//! one allocation; building one from a `Vec` copies its bytes once.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, OnceLock};

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// The handle is 24 bytes: the shared buffer and the `start..end` view
/// into it. Views are limited to `u32::MAX` bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: u32,
    end: u32,
}

/// Converts a buffer length or offset to the `u32` a view stores.
///
/// # Panics
///
/// Panics when `n` exceeds `u32::MAX`.
fn view_offset(n: usize) -> u32 {
    u32::try_from(n)
        .unwrap_or_else(|_| panic!("Bytes buffer of {n} bytes exceeds the 4 GiB (u32::MAX) limit"))
}

impl Bytes {
    /// Creates an empty `Bytes`. All empty buffers share one static block,
    /// so this does not allocate.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Bytes {
            data: Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..]))),
            start: 0,
            end: 0,
        }
    }

    /// Creates `Bytes` from a static slice (copies in this shim).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new `Bytes`: one allocation, or none when
    /// `data` is empty.
    ///
    /// # Panics
    ///
    /// Panics when `data` is longer than `u32::MAX` bytes.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            Bytes::new()
        } else {
            Bytes::from_block(Arc::from(data))
        }
    }

    /// Concatenates `slices` into one exact-size block, copying each
    /// byte once: one allocation, or none when the total is empty.
    ///
    /// # Panics
    ///
    /// Panics when the total length exceeds `u32::MAX` bytes, or when
    /// an element's `as_ref` returns slices of different lengths.
    pub fn from_slices<T: AsRef<[u8]>>(slices: &[T]) -> Self {
        let total = slices.iter().map(|s| s.as_ref().len()).sum();
        if total == 0 {
            return Bytes::new();
        }
        let mut block = Arc::<[u8]>::new_uninit_slice(total);
        let dst = Arc::get_mut(&mut block).expect("a new block is unshared");
        let mut at = 0;
        for s in slices {
            let s = s.as_ref();
            dst[at..at + s.len()].write_copy_of_slice(s);
            at += s.len();
        }
        // An `as_ref` that returned a shorter slice on the second call
        // would leave bytes unwritten.
        assert_eq!(at, total, "slices changed length while being copied");
        // SAFETY: the loop wrote `at` consecutive bytes from offset 0,
        // and `at == total`, the block's length.
        Bytes::from_block(unsafe { block.assume_init() })
    }

    /// Views the whole of `data`.
    fn from_block(data: Arc<[u8]>) -> Self {
        let end = view_offset(data.len());
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view sharing the same backing storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        // In bounds, so both fit in u32 beside `start`.
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo as u32,
            end: self.start + hi as u32,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics when `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at as u32;
        head
    }

    /// Splits off and returns the bytes from `at` onward; `self` keeps the
    /// prefix.
    ///
    /// # Panics
    ///
    /// Panics when `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = self.slice(at..);
        self.end = self.start + at as u32;
        tail
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

/// Copies the vector's `len` bytes into one exact-size block; its spare
/// capacity is not kept.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let data: Arc<[u8]> = iter.into_iter().collect();
        if data.is_empty() {
            Bytes::new()
        } else {
            Bytes::from_block(data)
        }
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with `capacity` reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends `extend` to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Splits off and returns the first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics when `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let rest = self.data.split_off(at);
        let head = std::mem::replace(&mut self.data, rest);
        BytesMut { data: head }
    }

    /// Converts the buffer into an immutable [`Bytes`], copying its bytes
    /// once into the new block.
    pub fn freeze(self) -> Bytes {
        Bytes::copy_from_slice(&self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Bytes::copy_from_slice(&self.data).fmt(f)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { data: v.to_vec() }
    }
}

/// Read access to a contiguous buffer, advancing an internal cursor.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Copies `dst.len()` bytes into `dst`, advancing.
    ///
    /// # Panics
    ///
    /// Panics when fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads a `u8`, advancing.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads an `i8`, advancing.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    /// Reads a big-endian `u16`, advancing.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`, advancing.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`, advancing.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Copies the next `len` bytes into a fresh [`Bytes`], advancing.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt as u32;
    }
}

/// Write access to a growable buffer.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends the remaining bytes of another buffer.
    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = src.chunk().len();
            self.put_slice(src.chunk());
            src.advance(n);
        }
    }

    /// Appends a `u8`.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends an `i8`.
    fn put_i8(&mut self, n: i8) {
        self.put_u8(n as u8);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints_big_endian() {
        let mut buf = BytesMut::new();
        buf.put_u8(0xAB);
        buf.put_u16(0x1234);
        buf.put_u32(0xDEADBEEF);
        buf.put_u64(0x0102030405060708);
        let frozen = buf.freeze();
        let mut rd: &[u8] = &frozen;
        assert_eq!(rd.get_u8(), 0xAB);
        assert_eq!(rd.get_u16(), 0x1234);
        assert_eq!(rd.get_u32(), 0xDEADBEEF);
        assert_eq!(rd.get_u64(), 0x0102030405060708);
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn slice_and_split_share_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&s.data, &b.data));
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
    }

    #[test]
    fn buf_for_slice_advances() {
        let data = [1u8, 2, 3, 4];
        let mut rd: &[u8] = &data;
        let mut two = [0u8; 2];
        rd.copy_to_slice(&mut two);
        assert_eq!(two, [1, 2]);
        assert_eq!(rd.remaining(), 2);
        assert_eq!(rd.chunk(), &[3, 4]);
    }

    #[test]
    fn handle_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Bytes>(), 24);
    }

    #[test]
    fn empty_buffers_share_one_block() {
        let ptr = Bytes::new().as_ptr();
        assert_eq!(Bytes::default().as_ptr(), ptr);
        assert_eq!(Bytes::copy_from_slice(&[]).as_ptr(), ptr);
        assert_eq!(Bytes::from(Vec::new()).as_ptr(), ptr);
        assert_eq!(BytesMut::new().freeze().as_ptr(), ptr);
        assert_eq!(std::iter::empty().collect::<Bytes>().as_ptr(), ptr);
    }

    #[test]
    fn from_vec_keeps_exactly_len_bytes() {
        let mut v = Vec::with_capacity(100);
        v.extend_from_slice(b"0123456789");
        let b = Bytes::from(v);
        assert_eq!(b.data.len(), 10);
        assert_eq!(b, b"0123456789");
        let s = Bytes::from(String::from("abc"));
        assert_eq!((s.data.len(), &s[..]), (3, &b"abc"[..]));
        let it: Bytes = (1..=4u8).collect();
        assert_eq!((it.data.len(), &it[..]), (4, &[1, 2, 3, 4][..]));
    }

    #[test]
    fn from_slices_fills_one_exact_size_block() {
        let parts = [
            Bytes::from_static(b"frag-0|"),
            Bytes::new(),
            Bytes::from_static(b"frag-1"),
        ];
        let b = Bytes::from_slices(&parts);
        assert_eq!(b.data.len(), 13);
        assert_eq!(b, b"frag-0|frag-1");
        let views: [&[u8]; 2] = [&b"ab"[..], &b"c"[..]];
        assert_eq!(Bytes::from_slices(&views), b"abc");
        let empty: [&[u8]; 2] = [&[], &[]];
        assert_eq!(Bytes::from_slices(&empty).as_ptr(), Bytes::new().as_ptr());
    }

    #[test]
    #[should_panic(expected = "changed length")]
    fn from_slices_rejects_a_slice_that_shrinks() {
        // Long on the first `as_ref` (the length pass), short after.
        struct Shrinking(std::cell::Cell<bool>);
        impl AsRef<[u8]> for Shrinking {
            fn as_ref(&self) -> &[u8] {
                if self.0.replace(true) {
                    b"ab"
                } else {
                    b"abcd"
                }
            }
        }
        let _ = Bytes::from_slices(&[Shrinking(std::cell::Cell::new(false))]);
    }

    #[test]
    fn view_offset_accepts_up_to_u32_max() {
        assert_eq!(view_offset(0), 0);
        assert_eq!(view_offset(u32::MAX as usize), u32::MAX);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "exceeds the 4 GiB (u32::MAX) limit")]
    fn view_offset_rejects_4_gib() {
        view_offset(u32::MAX as usize + 1);
    }

    /// Applies seeded random `slice`/`split_to`/`split_off`/`advance`/
    /// `clone` sequences to a `Bytes` and to a `Vec<u8>` model and
    /// compares them after every step.
    #[test]
    fn views_match_a_vec_model() {
        // splitmix64: a self-contained seeded stream.
        let mut state = 0x5eed_u64;
        let mut next = |bound: usize| -> usize {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for _ in 0..200 {
            let len = next(300);
            let model: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let mut views = vec![(Bytes::from(model.clone()), model)];
            for _ in 0..40 {
                let i = next(views.len());
                let (b, m) = &mut views[i];
                let at = next(m.len() + 1);
                match next(5) {
                    0 => {
                        let hi = at + next(m.len() - at + 1);
                        let pair = (b.slice(at..hi), m[at..hi].to_vec());
                        views.push(pair);
                    }
                    1 => {
                        let pair = (b.split_to(at), m.drain(..at).collect());
                        views.push(pair);
                    }
                    2 => {
                        let pair = (b.split_off(at), m.split_off(at));
                        views.push(pair);
                    }
                    3 => {
                        b.advance(at);
                        m.drain(..at);
                    }
                    _ => {
                        let pair = (b.clone(), m.clone());
                        views.push(pair);
                    }
                }
                for (b, m) in &views {
                    assert_eq!((b.len(), b.chunk()), (m.len(), &m[..]));
                }
            }
        }
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\n\x01");
        assert_eq!(format!("{b:?}"), "b\"a\\n\\x01\"");
    }
}
