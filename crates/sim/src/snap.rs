//! Snapshot byte codec: little-endian, fixed-width, versioned by the
//! caller, zero dependencies (the vendor tree is offline, so there is no
//! serde to lean on).
//!
//! Every snapshot type states its layout once, as a [`Snap`] impl: `put`
//! appends the value to a [`SnapWriter`], `get` reads it back from a
//! [`SnapReader`]. Plain structs and tag enums declare only their fields,
//! in layout order, through [`snap_struct!`](crate::snap_struct) and
//! [`snap_enum!`](crate::snap_enum); the codec follows from the field
//! types. Collections keyed by ids travel through one sorted-id-map codec
//! ([`SortedIds`]).
//!
//! Decoding returns a structured [`SnapError`] — never a panic — on
//! truncated or corrupt input, so a damaged snapshot fails closed:
//!
//! * A *length* (the `u64` prefix of a [`Vec`] or a sorted map) is refused
//!   when it exceeds the bytes left, since every element encodes to at
//!   least one byte. Memory is therefore bounded linearly by the image's
//!   size: at most the bytes left times the element's in-memory size (a
//!   vacant job-table slot is one byte on the wire and far more in
//!   memory, so the factor is that of the format, not of the length). A
//!   *count* (a `usize` field such as a completed-job tally) is a plain
//!   `u64` with no cap: it allocates nothing, and its owner bounds it where
//!   later arithmetic needs a bound.
//! * A sorted-id map is written in ascending key order and refused on
//!   read unless its keys are strictly ascending, so identical states
//!   produce identical bytes whatever their hash-map history.

use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};

/// Decode failure: offset of the read that failed plus what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// Human-readable description of the expectation that was violated.
    pub what: String,
}

impl SnapError {
    pub fn new(at: usize, what: impl Into<String>) -> Self {
        SnapError {
            at,
            what: what.into(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot decode error at byte {}: {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder for the snapshot byte format.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-style decoder over a snapshot byte slice. Every read is bounds-
/// checked and returns `Err(SnapError)` on truncation; no method panics on
/// malformed input.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset (for error context).
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error constructor anchored at the current offset.
    pub fn err(&self, what: impl Into<String>) -> SnapError {
        SnapError::new(self.pos, what)
    }

    /// Fail unless the whole buffer was consumed (trailing garbage is as
    /// suspect as truncation).
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err(format!(
                "{} trailing bytes after snapshot",
                self.remaining()
            )))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "truncated: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        u8::get(self)
    }

    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        u64::get(self)
    }

    /// A collection length: refused when it exceeds the bytes left, since
    /// every element encodes to at least one byte.
    #[inline]
    fn get_len(&mut self) -> Result<usize, SnapError> {
        let n = u64::get(self)?;
        if n > self.remaining() as u64 {
            return Err(SnapError::new(
                self.pos - 8,
                format!("length {n} exceeds the {} bytes left", self.remaining()),
            ));
        }
        Ok(n as usize)
    }

    /// A `Vec<u8>`, borrowed.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_len()?;
        self.take(n)
    }
}

/// A value with one snapshot layout: [`Snap::put`] appends it, and
/// [`Snap::get`] reads back exactly what `put` wrote.
pub trait Snap: Sized {
    fn put(&self, w: &mut SnapWriter);
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Every value of `v`, in order (a `Vec`'s elements).
    fn put_all(v: &[Self], w: &mut SnapWriter) {
        v.iter().for_each(|x| x.put(w));
    }

    /// `n` values in a row, refused when `n` exceeds the bytes left:
    /// every value encodes to at least one byte.
    fn get_n(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<Self>, SnapError> {
        if n > r.remaining() {
            return Err(r.err(format!(
                "{n} values exceed the {} bytes left",
                r.remaining()
            )));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::get(r)?);
        }
        Ok(v)
    }
}

/// Bytes travel in one copy.
impl Snap for u8 {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        w.buf.push(*self);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.take(1)?[0])
    }
    #[inline]
    fn put_all(v: &[Self], w: &mut SnapWriter) {
        w.buf.extend_from_slice(v);
    }
    #[inline]
    fn get_n(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<Self>, SnapError> {
        Ok(r.take(n)?.to_vec())
    }
}

macro_rules! snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

// A `u128` is its low 64 bits, then its high 64 bits.
snap_int!(u32, u64, u128);

impl Snap for bool {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        u8::from(*self).put(w);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(r.pos - 1, format!("bad bool byte {b}"))),
        }
    }
}

/// A count: a plain `u64`, so the format is pointer-width-free. Unlike a
/// collection length it is not capped by the bytes left, because nothing
/// is allocated from it.
impl Snap for usize {
    #[inline]
    fn put(&self, w: &mut SnapWriter) {
        (*self as u64).put(w);
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let at = r.pos;
        usize::try_from(r.get_u64()?).map_err(|_| SnapError::new(at, "count exceeds usize"))
    }
}

/// Nothing: the value of a sorted-id set's entries.
impl Snap for () {
    fn put(&self, _: &mut SnapWriter) {}
    fn get(_: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

macro_rules! snap_u64_newtype {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                self.0.put(w);
            }
            #[inline]
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(Self(u64::get(r)?))
            }
        }
    )*};
}

// Seconds.
snap_u64_newtype!(SimTime, SimDuration);

/// Tag 0 for `None`; tag 1, then the value, for `Some`.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            b => Err(SnapError::new(r.pos - 1, format!("bad option tag {b}"))),
        }
    }
}

macro_rules! snap_tuple {
    ($($t:ident)+) => {
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut SnapWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

snap_tuple!(A B);
snap_tuple!(A B C);
snap_tuple!(A B C D);

/// A `u64` length, then each element.
impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        self.len().put(w);
        T::put_all(self, w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        T::get_n(r, n)
    }
}

/// Each element, with no length: the length is the type's.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        T::put_all(self, w);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = T::get_n(r, N)?;
        Ok(v.try_into()
            .unwrap_or_else(|_| unreachable!("{N} elements read")))
    }
}

/// Write a sorted-id map from entries already in ascending key order: a
/// `u64` length, then each `(key, value)`.
fn put_ascending<'a, K, V>(
    w: &mut SnapWriter,
    entries: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
) where
    K: Snap + 'a,
    V: Snap + 'a,
{
    entries.len().put(w);
    for (k, v) in entries {
        k.put(w);
        v.put(w);
    }
}

/// Write a sorted-id map from entries in any order: sorted by key, then
/// laid out as a B-tree's entries are.
pub fn put_sorted<'a, K, V>(w: &mut SnapWriter, entries: impl Iterator<Item = (&'a K, &'a V)>)
where
    K: Snap + Ord + 'a,
    V: Snap + 'a,
{
    let mut sorted: Vec<_> = entries.collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
    put_ascending(w, sorted.into_iter());
}

/// Read a sorted-id map written by [`put_sorted`], refusing keys that are
/// not strictly ascending; `label` names the map in the error.
pub fn get_sorted<K, V>(r: &mut SnapReader<'_>, label: &str) -> Result<Vec<(K, V)>, SnapError>
where
    K: Snap + Ord + fmt::Display,
    V: Snap,
{
    let n = r.get_len()?;
    let mut entries: Vec<(K, V)> = Vec::with_capacity(n);
    for _ in 0..n {
        let at = r.pos;
        let k = K::get(r)?;
        if entries.last().is_some_and(|(p, _)| *p >= k) {
            return Err(SnapError::new(
                at,
                format!("{label} ids not strictly ascending at {k}"),
            ));
        }
        entries.push((k, V::get(r)?));
    }
    Ok(entries)
}

/// A collection keyed by ids, written through the one sorted-id-map codec
/// ([`put_sorted`] / [`get_sorted`]): a set is a map to `()`.
pub trait SortedIds: Sized {
    fn put_sorted(&self, w: &mut SnapWriter);
    /// `label` names the collection in a decode error.
    fn get_sorted(r: &mut SnapReader<'_>, label: &str) -> Result<Self, SnapError>;
}

impl<K: Snap + Ord + fmt::Display, V: Snap> SortedIds for BTreeMap<K, V> {
    fn put_sorted(&self, w: &mut SnapWriter) {
        put_ascending(w, self.iter());
    }
    fn get_sorted(r: &mut SnapReader<'_>, label: &str) -> Result<Self, SnapError> {
        Ok(get_sorted(r, label)?.into_iter().collect())
    }
}

impl<K, V, S> SortedIds for HashMap<K, V, S>
where
    K: Snap + Ord + Hash + fmt::Display,
    V: Snap,
    S: BuildHasher + Default,
{
    fn put_sorted(&self, w: &mut SnapWriter) {
        put_sorted(w, self.iter());
    }
    fn get_sorted(r: &mut SnapReader<'_>, label: &str) -> Result<Self, SnapError> {
        Ok(get_sorted(r, label)?.into_iter().collect())
    }
}

impl<K: Snap + Ord + fmt::Display> SortedIds for BTreeSet<K> {
    fn put_sorted(&self, w: &mut SnapWriter) {
        put_ascending(w, self.iter().map(|k| (k, &())));
    }
    fn get_sorted(r: &mut SnapReader<'_>, label: &str) -> Result<Self, SnapError> {
        Ok(get_sorted::<K, ()>(r, label)?
            .into_iter()
            .map(|(k, ())| k)
            .collect())
    }
}

/// One struct field: through [`Snap`], or, with a label, through
/// [`SortedIds`]. An implementation detail of [`snap_struct!`].
#[doc(hidden)]
#[macro_export]
macro_rules! snap_field {
    (put $v:expr, $w:ident) => {
        $crate::snap::Snap::put(&$v, $w)
    };
    (put $v:expr, $w:ident, $label:literal) => {
        $crate::snap::SortedIds::put_sorted(&$v, $w)
    };
    (get $r:ident) => {
        $crate::snap::Snap::get($r)?
    };
    (get $r:ident, $label:literal) => {
        $crate::snap::SortedIds::get_sorted($r, $label)?
    };
}

/// Implement [`Snap`](crate::snap::Snap) for a struct from its field
/// names, in layout order; each field's type supplies its codec, and a
/// field with a label (`live: "live record"`) is a sorted-id map. Fields
/// are read in the order written, because a struct literal evaluates its
/// fields in source order. A trailing `check f` runs
/// `f(&value) -> Result<(), String>` on the decoded value and turns its
/// error into a decode error.
///
/// ```
/// use hws_sim::snap::{Snap, SnapReader, SnapWriter};
/// use std::collections::BTreeSet;
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     at: hws_sim::SimTime,
///     ids: BTreeSet<u64>,
///     size: Option<u32>,
/// }
/// hws_sim::snap_struct!(Probe { at, ids: "probe", size });
///
/// let p = Probe { at: hws_sim::SimTime(9), ids: [3, 1].into(), size: Some(4) };
/// let mut w = SnapWriter::new();
/// p.put(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Probe::get(&mut SnapReader::new(&bytes)).unwrap(), p);
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident $(<$g:ident>)? { $($f:ident $(: $label:literal)?),* $(,)? } $(check $check:path)?) => {
        impl$(<$g: $crate::snap::Snap>)? $crate::snap::Snap for $ty$(<$g>)? {
            fn put(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap_field!(put self.$f, w $(, $label)?);)*
            }
            fn get(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                let v = $ty {
                    $($f: $crate::snap_field!(get r $(, $label)?),)*
                };
                $($check(&v).map_err(|e| r.err(e))?;)?
                Ok(v)
            }
        }
    };
}

/// Implement [`Snap`](crate::snap::Snap) for an enum from its tag map:
/// `tag => Variant`, `tag => Variant(a, b)` or `tag => Variant { a, b }`.
/// A variant is its `u8` tag, then its fields in the order listed; an
/// unknown tag is a decode error.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $($tag:literal => $var:ident $(($($t:ident),*))? $({ $($f:ident),* })?),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn put(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $($ty::$var $(($($t),*))? $({ $($f),* })? => {
                        $crate::snap::Snap::put(&($tag as u8), w);
                        $($($crate::snap::Snap::put($t, w);)*)?
                        $($($crate::snap::Snap::put($f, w);)*)?
                    })*
                }
            }
            fn get(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(match r.get_u8()? {
                    $($tag => $ty::$var
                        $(($({
                            let $t = $crate::snap::Snap::get(r)?;
                            $t
                        }),*))?
                        $({ $($f: $crate::snap::Snap::get(r)?),* })?,)*
                    b => {
                        return Err(r.err(format!(
                            concat!("bad ", stringify!($ty), " tag {}"),
                            b
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap>(v: &T) -> (Vec<u8>, T) {
        let mut w = SnapWriter::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = T::get(&mut r).expect("decodes");
        r.expect_end().expect("consumed exactly");
        (bytes, back)
    }

    #[test]
    fn primitives_round_trip() {
        let v = (
            (7u8, true, 0xDEAD_BEEFu32, u64::MAX - 3),
            u128::MAX - (5 << 64) - 2,
            (Some(9u64), None::<u64>, Some(4u32)),
            (vec![1u8, 2, 3], 12usize, SimTime(5), SimDuration(6)),
        );
        let (bytes, back) = round_trip(&v);
        assert_eq!(back, v);
        assert_eq!(bytes.len(), 14 + 16 + (9 + 1 + 5) + (11 + 24));
    }

    #[test]
    fn layouts_are_the_documented_ones() {
        // u128: low half first; Option: tag then value; Vec: u64 length.
        let (bytes, _) = round_trip(&(1u128 << 64 | 2, Some(3u32), vec![4u8]));
        let mut want = 2u64.to_le_bytes().to_vec();
        want.extend(1u64.to_le_bytes());
        want.extend([1, 3, 0, 0, 0]);
        want.extend(1u64.to_le_bytes());
        want.push(4);
        assert_eq!(bytes, want);
        assert_eq!(SnapReader::new(&bytes[21..]).get_bytes(), Ok(&[4u8][..]));
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let (bytes, _) = round_trip(&(42u64, vec![1u32, 2]));
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(
                <(u64, Vec<u32>)>::get(&mut r).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let bytes = [9u8];
        assert!(bool::get(&mut SnapReader::new(&bytes)).is_err());
        assert!(Option::<u64>::get(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn a_length_past_the_bytes_left_is_refused_but_a_count_is_not() {
        let (bytes, _) = round_trip(&(1u64 << 32, 0u64));
        assert!(Vec::<u8>::get(&mut SnapReader::new(&bytes)).is_err());
        assert!(SnapReader::new(&bytes).get_bytes().is_err());
        assert!(get_sorted::<u64, ()>(&mut SnapReader::new(&bytes), "x").is_err());
        assert_eq!(usize::get(&mut SnapReader::new(&bytes)), Ok(1 << 32));
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let (mut bytes, _) = round_trip(&1u32);
        bytes.push(0xFF);
        let mut r = SnapReader::new(&bytes);
        u32::get(&mut r).unwrap();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn sorted_maps_encode_in_key_order_and_refuse_disorder() {
        let hashed: HashMap<u64, u32> = [(5, 50), (1, 10), (3, 30)].into_iter().collect();
        let tree: BTreeMap<u64, u32> = hashed.iter().map(|(&k, &v)| (k, v)).collect();
        let mut a = SnapWriter::new();
        hashed.put_sorted(&mut a);
        let mut b = SnapWriter::new();
        tree.put_sorted(&mut b);
        let bytes = a.into_bytes();
        assert_eq!(bytes, b.into_bytes());
        let back = HashMap::<u64, u32>::get_sorted(&mut SnapReader::new(&bytes), "x");
        assert_eq!(back, Ok(hashed));
        let set: BTreeSet<u64> = [2, 9].into();
        let (set_bytes, back) = {
            let mut w = SnapWriter::new();
            set.put_sorted(&mut w);
            let bytes = w.into_bytes();
            let back = BTreeSet::<u64>::get_sorted(&mut SnapReader::new(&bytes), "x");
            (bytes, back)
        };
        assert_eq!(back, Ok(set));
        assert_eq!(set_bytes, round_trip(&vec![2u64, 9]).0);
        for keys in [[9u64, 2], [2, 2]] {
            let (bad, _) = round_trip(&keys.to_vec());
            let err = BTreeSet::<u64>::get_sorted(&mut SnapReader::new(&bad), "probe")
                .expect_err("keys out of order");
            assert!(
                err.what.contains("probe ids not strictly ascending"),
                "{err}"
            );
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot,
        Line(u32),
        Box { w: u32, h: Option<u64> },
    }
    crate::snap_enum!(Shape {
        0 => Dot,
        1 => Line(len),
        2 => Box { w, h },
    });

    #[test]
    fn tag_enums_round_trip_and_refuse_unknown_tags() {
        for s in [Shape::Dot, Shape::Line(3), Shape::Box { w: 4, h: Some(5) }] {
            assert_eq!(round_trip(&s).1, s);
        }
        assert_eq!(round_trip(&Shape::Line(3)).0, [1, 3, 0, 0, 0]);
        let err = Shape::get(&mut SnapReader::new(&[3])).expect_err("tag 3");
        assert!(err.what.contains("bad Shape tag 3"), "{err}");
    }
}
