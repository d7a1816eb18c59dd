//! The canonical wire encoding: one codec for every Prime, Spines, shard,
//! SCADA and Modbus message and every application snapshot.
//!
//! Every message is signed or MAC'd over its canonical bytes, and every
//! snapshot is digested, so each layout is described exactly once: a type
//! lists its fields, in wire order, in one [`impl_wire!`](crate::impl_wire)
//! line, and the field types carry the layout through the [`Wire`] trait:
//!
//! | type | bytes |
//! |---|---|
//! | `u8` `u16` `u32` `u64` `i64` | little-endian |
//! | `f64` | IEEE-754 bits, little-endian |
//! | `bool` | one byte, strictly 0 or 1 |
//! | `[u8; N]` | the `N` bytes, no prefix |
//! | `Bytes`, `String` | `u32` length + bytes (at most [`MAX_FIELD_LEN`]) |
//! | `Option<T>` | a 0/1 byte, then `T` if 1 |
//! | `Vec<T>` | `u16` count + elements |
//! | `BTreeMap<K, V>` | `u32` count + `(K, V)` entries in key order |
//! | other counts, caps, `BTreeSet<T>` | [`Counted`] |
//! | tuples, structs | field by field, no framing |
//! | enums | one tag byte, then the variant's fields |
//!
//! [`WireWriter`] and [`WireReader`] are the byte-level primitives under
//! the trait; envelopes that hash, MAC or slice their payload while parsing
//! and domain-tagged signing-byte builders use them directly.

use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

/// Error decoding a wire message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag or enum discriminant had an unknown value.
    BadTag(u8),
    /// A length prefix exceeded the sanity limit.
    OversizedLength(u64),
    /// Trailing bytes remained after decoding finished.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::OversizedLength(n) => write!(f, "oversized length {n}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum length accepted for any length-prefixed field (16 MiB).
pub const MAX_FIELD_LEN: u64 = 16 * 1024 * 1024;

/// Serializes values into a growable buffer.
#[derive(Clone, Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Creates a writer with preallocated capacity.
    pub fn with_capacity(capacity: usize) -> WireWriter {
        WireWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an f64 (IEEE-754 bits, little-endian).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        self
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Appends fixed-size raw bytes (no length prefix).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Consumes the writer, returning the underlying vector (no copy).
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Clears the buffer, retaining its capacity for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Zeroes the last `n` bytes in place (e.g. a trailing signature field
    /// when computing canonical signing bytes without re-encoding).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes have been written.
    pub fn zero_tail(&mut self, n: usize) -> &mut Self {
        let len = self.buf.len();
        assert!(len >= n, "zero_tail({n}) on {len}-byte buffer");
        self.buf[len - n..].fill(0);
        self
    }

    /// Borrow the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Deserializes values from a byte slice.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice for reading.
    pub fn new(data: &'a [u8]) -> WireReader<'a> {
        WireReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // Compared against what is left: `pos + n` can wrap for a huge `n`.
        if n > self.data.len() - self.pos {
            return Err(WireError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().unwrap())
    }

    /// Reads length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as u64;
        if len > MAX_FIELD_LEN {
            return Err(WireError::OversizedLength(len));
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string (lossy on invalid UTF-8).
    pub fn string(&mut self) -> Result<String, WireError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    /// Remaining unread byte count.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Errors unless the buffer was fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// A value with a canonical wire encoding.
///
/// `read` consumes fields in the order `write` produced them, so a
/// malformed input is rejected at the first field that does not fit.
pub trait Wire: Sized {
    /// Appends the canonical encoding.
    fn write(&self, w: &mut WireWriter);

    /// Reads one value, leaving the reader just past it.
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// The canonical encoding in a fresh writer of the given capacity.
    fn to_wire(&self, capacity: usize) -> WireWriter {
        let mut w = WireWriter::with_capacity(capacity);
        self.write(&mut w);
        w
    }

    /// Decodes a value that must span `bytes` exactly.
    fn decode_all(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        // Handed on whole, not unwrapped and rewrapped: a large message is
        // written once, into the caller's slot.
        let value = Self::read(&mut r);
        match r.expect_end() {
            Err(trailing) if value.is_ok() => Err(trailing),
            _ => value,
        }
    }
}

macro_rules! wire_primitives {
    ($($t:ident),*) => {$(
        impl Wire for $t {
    fn write(&self, w: &mut WireWriter) {
                w.$t(*self);
            }
            fn read(r: &mut WireReader<'_>) -> Result<$t, WireError> {
                r.$t()
            }
        }
    )*};
}
wire_primitives!(u8, u16, u32, u64, i64, f64, bool);

impl<const N: usize> Wire for [u8; N] {
    fn write(&self, w: &mut WireWriter) {
        w.raw(self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.array()
    }
}

impl Wire for Bytes {
    fn write(&self, w: &mut WireWriter) {
        w.bytes(self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Bytes::copy_from_slice(r.bytes()?))
    }
}

impl Wire for String {
    fn write(&self, w: &mut WireWriter) {
        w.string(self);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, w: &mut WireWriter) {
        w.bool(self.is_some());
        if let Some(value) = self {
            value.write(w);
        }
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::read(r)?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn write(&self, w: &mut WireWriter) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn write(&self, w: &mut WireWriter) {
        self.0.write(w);
        self.1.write(w);
        self.2.write(w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

/// An integer type a vector's element count travels as.
pub trait Count: Wire {
    /// The count of a `len`-element vector (wraps past the type's range).
    fn from_len(len: usize) -> Self;
    /// The element count to read.
    fn to_len(self) -> usize;
}

macro_rules! wire_counts {
    ($($t:ident),*) => {$(
        impl Count for $t {
            fn from_len(len: usize) -> $t {
                len as $t
            }
            fn to_len(self) -> usize {
                self as usize
            }
        }
    )*};
}
wire_counts!(u8, u16, u32);

/// A collection that travels as a count and then its elements, in order:
/// a `Vec<T>` (or, to write, a `[T]`), a `BTreeSet<T>`, or a
/// `BTreeMap<K, V>` as its `(K, V)` entries in key order.
pub trait Elements {
    /// The number of elements.
    fn count(&self) -> usize;
    /// Appends the elements.
    fn write_elements(&self, w: &mut WireWriter);
    /// Reads `count` elements.
    fn read_elements(count: usize, r: &mut WireReader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;
}

impl<T: Wire> Elements for [T] {
    fn count(&self) -> usize {
        self.len()
    }
    fn write_elements(&self, w: &mut WireWriter) {
        self.iter().for_each(|item| item.write(w));
    }
}

impl<T: Wire> Elements for Vec<T> {
    fn count(&self) -> usize {
        self.len()
    }
    fn write_elements(&self, w: &mut WireWriter) {
        self.as_slice().write_elements(w);
    }
    fn read_elements(count: usize, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Every element takes at least a byte: never reserve more than the
        // input could fill.
        let mut items = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire + Ord> Elements for BTreeSet<T> {
    fn count(&self) -> usize {
        self.len()
    }
    fn write_elements(&self, w: &mut WireWriter) {
        self.iter().for_each(|item| item.write(w));
    }
    fn read_elements(count: usize, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        (0..count).map(|_| T::read(r)).collect()
    }
}

impl<K: Wire + Ord, V: Wire> Elements for BTreeMap<K, V> {
    fn count(&self) -> usize {
        self.len()
    }
    fn write_elements(&self, w: &mut WireWriter) {
        for (key, value) in self {
            key.write(w);
            value.write(w);
        }
    }
    fn read_elements(count: usize, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        (0..count).map(|_| <(K, V)>::read(r)).collect()
    }
}

/// Field codec for a collection ([`Elements`]): a count of type `C`, then
/// the elements. A decoded count above `MAX` is rejected as
/// [`WireError::OversizedLength`] before any element is read. `Vec<T>`
/// itself is `Counted<u16>` and `BTreeMap<K, V>` is `Counted<u32>`; any
/// other count or a cap is named in [`impl_wire!`](crate::impl_wire) as
/// `field as Counted<u8, CAP>`.
pub struct Counted<C, const MAX: usize = { usize::MAX }>(PhantomData<C>);

impl<C: Count, const MAX: usize> Counted<C, MAX> {
    /// Appends the count and the elements. The cap binds decoders only.
    pub fn write<S: Elements + ?Sized>(items: &S, w: &mut WireWriter) {
        C::from_len(items.count()).write(w);
        items.write_elements(w);
    }

    /// Reads the count, checks it against `MAX`, reads the elements.
    pub fn read<S: Elements>(r: &mut WireReader<'_>) -> Result<S, WireError> {
        let count = C::read(r)?.to_len();
        if count > MAX {
            return Err(WireError::OversizedLength(count as u64));
        }
        S::read_elements(count, r)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, w: &mut WireWriter) {
        Counted::<u16>::write(self, w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Counted::<u16>::read(r)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn write(&self, w: &mut WireWriter) {
        Counted::<u32>::write(self, w);
    }
    fn read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Counted::<u32>::read(r)
    }
}

/// Derives [`Wire`] for a type from its field names, in wire order; field
/// types are inferred through the trait.
///
/// ```
/// use spire_sim::{impl_wire, Counted, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Id(u16);
/// #[derive(Debug, PartialEq)]
/// struct Header { from: Id, hops: Vec<Id> }
/// #[derive(Debug, PartialEq)]
/// enum Msg { Hello(Id), Data { header: Header, body: String }, Bye }
///
/// impl_wire!(struct Id(id));
/// // `hops` travels with a one-byte count, at most 8 accepted.
/// impl_wire!(struct Header { from, hops as Counted<u8, 8> });
/// impl_wire!(enum Msg {
///     1 => Hello(from),
///     2 => Data { header, body },
///     3 => Bye {},
/// });
///
/// let msg = Msg::Data {
///     header: Header { from: Id(7), hops: vec![Id(1)] },
///     body: "x".into(),
/// };
/// let mut w = spire_sim::WireWriter::new();
/// msg.write(&mut w);
/// assert_eq!(w.as_slice(), [2, 7, 0, 1, 1, 0, 1, 0, 0, 0, b'x']);
/// assert_eq!(Msg::decode_all(w.as_slice()), Ok(msg));
/// ```
///
/// A tag is a literal or a constant in scope. An unknown tag decodes to
/// [`WireError::BadTag`].
#[macro_export]
macro_rules! impl_wire {
    (struct $name:ident $body:tt) => {
        impl $crate::Wire for $name {
            fn write(&self, w: &mut $crate::WireWriter) {
                let $crate::impl_wire!(@pattern [$name] $body) = self;
                $crate::impl_wire!(@write w $body);
            }
            fn read(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                Ok($crate::impl_wire!(@read r [$name] $body))
            }
        }
    };
    (enum $name:ident { $($tag:tt => $variant:ident $body:tt),+ $(,)? }) => {
        impl $crate::Wire for $name {
            fn write(&self, w: &mut $crate::WireWriter) {
                match self {
                    $($crate::impl_wire!(@pattern [$name::$variant] $body) => {
                        w.u8($tag);
                        $crate::impl_wire!(@write w $body);
                    })+
                }
            }
            fn read(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::WireError> {
                match r.u8()? {
                    $($tag => Ok($crate::impl_wire!(@read r [$name::$variant] $body)),)+
                    other => Err($crate::WireError::BadTag(other)),
                }
            }
        }
    };

    // A body is `{ field, field as Codec, .. }` or `(binding, ..)`.
    (@pattern [$($path:tt)+] { $($field:ident $(as $codec:ty)?),* $(,)? }) => {
        $($path)+ { $($field),* }
    };
    (@pattern [$($path:tt)+] ( $($field:ident),* $(,)? )) => {
        $($path)+ ( $($field),* )
    };
    (@write $w:ident { $($field:ident $(as $codec:ty)?),* $(,)? }) => {
        $($crate::impl_wire!(@put $w $field $($codec)?);)*
    };
    (@write $w:ident ( $($field:ident),* $(,)? )) => {
        $($crate::Wire::write($field, $w);)*
    };
    (@put $w:ident $field:ident) => {
        $crate::Wire::write($field, $w)
    };
    (@put $w:ident $field:ident $codec:ty) => {
        <$codec>::write($field, $w)
    };
    (@read $r:ident [$($path:tt)+] { $($field:ident $(as $codec:ty)?),* $(,)? }) => {
        $($path)+ { $($field: $crate::impl_wire!(@get $r $($codec)?)),* }
    };
    (@read $r:ident [$($path:tt)+] ( $($field:ident),* $(,)? )) => {
        $($path)+ ( $({ let $field = $crate::Wire::read($r)?; $field }),* )
    };
    (@get $r:ident) => {
        $crate::Wire::read($r)?
    };
    (@get $r:ident $codec:ty) => {
        <$codec>::read($r)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = WireWriter::new();
        w.u8(7)
            .u16(65535)
            .u32(123456)
            .u64(u64::MAX)
            .i64(-42)
            .f64(3.5)
            .bool(true)
            .bytes(b"hello")
            .string("world")
            .raw(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.string().unwrap(), "world");
        assert_eq!(r.raw(3).unwrap(), &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_errors() {
        let mut w = WireWriter::new();
        w.u64(1);
        let buf = w.finish();
        let mut r = WireReader::new(&buf[..4]);
        assert_eq!(r.u64(), Err(WireError::Truncated));
        // A length that would wrap `pos + n` is still just truncated.
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.raw(usize::MAX), Err(WireError::Truncated));
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn bad_bool() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::BadTag(2)));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.bytes(), Err(WireError::OversizedLength(u32::MAX as u64)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = WireReader::new(&[1, 2]);
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes));
    }

    #[test]
    fn clear_zero_tail_into_vec() {
        let mut w = WireWriter::new();
        w.u8(1).raw(&[0xff; 4]);
        w.zero_tail(3);
        assert_eq!(w.as_slice(), &[1, 0xff, 0, 0, 0]);
        w.clear();
        assert!(w.is_empty());
        w.u16(0x0201);
        assert_eq!(w.into_vec(), vec![1, 2]);
    }

    #[test]
    fn array_read() {
        let mut r = WireReader::new(&[9, 8, 7, 6]);
        let a: [u8; 4] = r.array().unwrap();
        assert_eq!(a, [9, 8, 7, 6]);
    }

    fn encoded<T: Wire>(value: &T) -> Vec<u8> {
        value.to_wire(0).into_vec()
    }

    #[test]
    fn wire_impls_lay_out_as_documented() {
        assert_eq!(encoded(&0x0102u16), [2, 1]);
        assert_eq!(encoded(&-2i64), (-2i64).to_le_bytes());
        assert_eq!(encoded(&1.5f64), 1.5f64.to_bits().to_le_bytes());
        assert_eq!(encoded(&[9u8, 8, 7]), [9, 8, 7]);
        assert_eq!(
            encoded(&Bytes::from_static(b"ab")),
            [2, 0, 0, 0, b'a', b'b']
        );
        assert_eq!(encoded(&String::from("c")), [1, 0, 0, 0, b'c']);
        assert_eq!(encoded(&Some(true)), [1, 1]);
        assert_eq!(encoded(&None::<u32>), [0]);
        assert_eq!(encoded(&(1u8, 2u16, false)), [1, 2, 0, 0]);
        assert_eq!(encoded(&vec![(1u8, 2u8)]), [1, 0, 1, 2]);
        let map = BTreeMap::from([(2u8, true), (1, false)]);
        assert_eq!(encoded(&map), [2, 0, 0, 0, 1, 0, 2, 1]);
        assert_eq!(BTreeMap::decode_all(&encoded(&map)), Ok(map));
        let set = BTreeSet::from([9u8, 3]);
        let mut w = WireWriter::new();
        Counted::<u8>::write(&set, &mut w);
        assert_eq!(w.as_slice(), [2, 3, 9]);
        assert_eq!(
            Counted::<u8>::read(&mut WireReader::new(w.as_slice())),
            Ok(set)
        );
        for bytes in [vec![0], vec![1, 0, 0], vec![1, 1, 0, 3, 4]] {
            let value = Option::<Vec<(u8, u8)>>::decode_all(&bytes).unwrap();
            assert_eq!(encoded(&value), bytes);
        }
        assert_eq!(Option::<u8>::decode_all(&[2, 0]), Err(WireError::BadTag(2)));
        assert_eq!(<(u8, u32)>::decode_all(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(u8::decode_all(&[1, 2]), Err(WireError::TrailingBytes));
    }

    #[test]
    fn counted_width_and_cap() {
        type Short = Counted<u8, 2>;
        let mut w = WireWriter::new();
        Short::write(&vec![7u16, 8], &mut w);
        assert_eq!(w.as_slice(), [2, 7, 0, 8, 0]);
        assert_eq!(
            Short::read::<Vec<u16>>(&mut WireReader::new(w.as_slice())),
            Ok(vec![7, 8])
        );
        // The encoder does not apply the cap; the decoder rejects the count
        // before it looks for the elements.
        w.clear();
        Short::write(&vec![1u16, 2, 3], &mut w);
        assert_eq!(w.len(), 7);
        for input in [w.as_slice(), &w.as_slice()[..1]] {
            assert_eq!(
                Short::read::<Vec<u16>>(&mut WireReader::new(input)),
                Err(WireError::OversizedLength(3))
            );
        }
        // A count the input cannot back is truncation, not an allocation.
        assert_eq!(
            Vec::<u64>::decode_all(&[0xff, 0xff, 1]),
            Err(WireError::Truncated)
        );
    }
}
