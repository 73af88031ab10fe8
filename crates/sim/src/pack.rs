//! Compact byte encodings for system states (the `bb-compact` pipeline).
//!
//! Every [`ObjectAlgorithm`](crate::ObjectAlgorithm) state component packs
//! itself into a canonical, prefix-deterministic byte string: small integers
//! as LEB128 varints, signed values zig-zag folded, pointers remapped so the
//! common sentinels cost one byte, enum frames as a one-byte program counter
//! followed by their fields. The encoding — not the rich struct — is what
//! the compact exploration engine hashes, stores, and compares, so two
//! states are equal **iff** their encodings are byte-equal.
//!
//! The contract every implementation must keep:
//!
//! * **Round-trip**: `unpack(pack(x)) == x`.
//! * **Injectivity**: equal encodings ⇒ equal values (derived `Eq` agrees
//!   with byte equality). The macro-generated impls get this for free from
//!   field-wise packing with explicit variant tags.
//! * **Self-delimiting**: `unpack` consumes exactly the bytes `pack` wrote,
//!   so encodings concatenate (the system encoder packs one thread status
//!   after another with no separators — the layout is derived from the
//!   [`Bound`](crate::Bound), which fixes the thread count).
//!
//! Bump [`STATE_ENCODING_VERSION`] whenever any encoding changes shape;
//! the version is folded into persistent cache and checkpoint fingerprints
//! so stale entries self-invalidate instead of colliding.

use crate::ptr::Ptr;
use bb_lts::ThreadId;

/// Version of the packed state encoding. Part of every persistent cache
/// key and checkpoint fingerprint that covers packed exploration results.
pub const STATE_ENCODING_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Append-only sink for packed bytes.
pub struct PackWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> PackWriter<'a> {
    /// Wraps `buf`; packed bytes are appended (the buffer is not cleared).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        PackWriter { buf }
    }

    /// One raw byte.
    #[inline]
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// LEB128 varint: 1 byte for values < 128, the dominant case.
    #[inline]
    pub fn put_u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Zig-zag folded varint: small magnitudes of either sign stay short.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }
}

/// Bounds-checked cursor over a packed byte string.
pub struct PackReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PackReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        PackReader { bytes, pos: 0 }
    }

    /// One raw byte; `None` past the end.
    #[inline]
    pub fn take_u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// LEB128 varint; `None` on truncation or overflow.
    #[inline]
    pub fn take_u64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.take_u8()?;
            if shift >= 63 && b > 1 {
                return None;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    /// Zig-zag folded varint.
    #[inline]
    pub fn take_i64(&mut self) -> Option<i64> {
        let v = self.take_u64()?;
        Some(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// True once every byte has been consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A value with a canonical, self-delimiting byte encoding (see the module
/// docs for the contract). Implement with [`impl_pack!`] for plain structs
/// and enums; hand-written impls are only needed for generic containers.
pub trait Pack: Sized {
    /// Appends the canonical encoding of `self`.
    fn pack(&self, w: &mut PackWriter<'_>);

    /// Decodes one value, consuming exactly the bytes `pack` wrote.
    /// Returns `None` on any malformed input (never panics).
    fn unpack(r: &mut PackReader<'_>) -> Option<Self>;

    /// Decodes one value into `self`, reusing its allocations where the
    /// type allows: vectors keep their capacity, and `impl_pack!` structs
    /// decode field by field. This is how exploration re-reads one frontier
    /// state after another without allocating. On malformed input returns
    /// `None`, leaving `self` valid but unspecified.
    fn unpack_into(&mut self, r: &mut PackReader<'_>) -> Option<()> {
        *self = Self::unpack(r)?;
        Some(())
    }

    /// Heap bytes owned by `self` beyond its inline size — what the rich
    /// (unpacked) representation really costs, used by the truthful memory
    /// accounting of the baseline seen-set. Inline-only types report 0.
    fn heap_bytes(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! pack_unsigned {
    ($($t:ty),*) => {$(
        impl Pack for $t {
            #[inline]
            fn pack(&self, w: &mut PackWriter<'_>) {
                w.put_u64(*self as u64);
            }
            #[inline]
            fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
                <$t>::try_from(r.take_u64()?).ok()
            }
        }
    )*};
}

pack_unsigned!(u8, u16, u32, u64, usize);

impl Pack for i64 {
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        w.put_i64(*self);
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        r.take_i64()
    }
}

impl Pack for i32 {
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        w.put_i64(i64::from(*self));
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        i32::try_from(r.take_i64()?).ok()
    }
}

impl Pack for bool {
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        w.put_u8(u8::from(*self));
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        match r.take_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Pack for ThreadId {
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        w.put_u8(self.0);
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        r.take_u8().map(ThreadId)
    }
}

impl Pack for Ptr {
    /// Sentinels first so NULL and DANGLING cost one byte and node indices
    /// stay dense: NULL → 0, DANGLING → 1, node `i` → `i + 2`.
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        if *self == Ptr::NULL {
            w.put_u64(0);
        } else if *self == Ptr::DANGLING {
            w.put_u64(1);
        } else {
            w.put_u64(u64::from(self.0) + 2);
        }
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        match r.take_u64()? {
            0 => Some(Ptr::NULL),
            1 => Some(Ptr::DANGLING),
            v => u32::try_from(v - 2).ok().map(Ptr),
        }
    }
}

impl<T: Pack> Pack for Option<T> {
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.pack(w);
            }
        }
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        match r.take_u8()? {
            0 => Some(None),
            1 => Some(Some(T::unpack(r)?)),
            _ => None,
        }
    }
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, Pack::heap_bytes)
    }
}

impl<T: Pack> Pack for Vec<T> {
    #[inline]
    fn pack(&self, w: &mut PackWriter<'_>) {
        w.put_u64(self.len() as u64);
        for v in self {
            v.pack(w);
        }
    }
    #[inline]
    fn unpack(r: &mut PackReader<'_>) -> Option<Self> {
        let mut out = Vec::new();
        out.unpack_into(r)?;
        Some(out)
    }
    #[inline]
    fn unpack_into(&mut self, r: &mut PackReader<'_>) -> Option<()> {
        let n = usize::try_from(r.take_u64()?).ok()?;
        // Sanity bound: no state in this workspace packs below 1 byte per
        // element, so a length beyond the remaining input is malformed.
        if n > r.bytes.len().saturating_sub(r.pos).saturating_add(1) * 8 {
            return None;
        }
        self.clear();
        self.reserve_exact(n);
        for _ in 0..n {
            self.push(T::unpack(r)?);
        }
        Some(())
    }
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(Pack::heap_bytes).sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Derive-style macro
// ---------------------------------------------------------------------------

/// Generates a [`Pack`] impl for a plain struct or enum.
///
/// Structs list their fields in declaration order; enum variants carry an
/// **explicit, stable** tag (part of the persistent encoding — never renumber
/// without bumping [`STATE_ENCODING_VERSION`]):
///
/// ```
/// use bb_sim::{impl_pack, Value};
/// struct Node { val: Value, weight: u32 }
/// enum Op { Idle, Store { v: Value }, Pair(Value, Value) }
/// impl_pack!(struct Node { val, weight });
/// impl_pack!(enum Op { 0 => Idle, 1 => Store { v }, 2 => Pair(a, b) });
/// ```
///
/// Tuple-variant elements are named by arbitrary placeholders (`a`, `b`);
/// only their count and order matter.
#[macro_export]
macro_rules! impl_pack {
    (struct $name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::Pack for $name {
            #[inline]
            fn pack(&self, w: &mut $crate::PackWriter<'_>) {
                $( $crate::Pack::pack(&self.$f, w); )*
            }
            #[inline]
            fn unpack(r: &mut $crate::PackReader<'_>) -> Option<Self> {
                $( let $f = $crate::Pack::unpack(r)?; )*
                Some($name { $($f),* })
            }
            #[inline]
            fn unpack_into(&mut self, r: &mut $crate::PackReader<'_>) -> Option<()> {
                $( $crate::Pack::unpack_into(&mut self.$f, r)?; )*
                Some(())
            }
            fn heap_bytes(&self) -> usize {
                0usize $( + $crate::Pack::heap_bytes(&self.$f) )*
            }
        }
    };
    (enum $name:ident {
        $( $tag:literal => $v:ident
            $( { $($f:ident),* $(,)? } )?
            $( ( $($e:ident),* $(,)? ) )?
        ),* $(,)?
    }) => {
        impl $crate::Pack for $name {
            #[inline]
            fn pack(&self, w: &mut $crate::PackWriter<'_>) {
                match self {
                    $( $name::$v $( { $($f),* } )? $( ( $($e),* ) )? => {
                        w.put_u8($tag);
                        $($( $crate::Pack::pack($f, w); )*)?
                        $($( $crate::Pack::pack($e, w); )*)?
                    } )*
                }
            }
            #[inline]
            fn unpack(r: &mut $crate::PackReader<'_>) -> Option<Self> {
                match r.take_u8()? {
                    $( $tag => Some($name::$v
                        $( { $($f: $crate::Pack::unpack(r)?),* } )?
                        $( ( $( $crate::impl_pack!(@elem $e r) ),* ) )?
                    ), )*
                    _ => None,
                }
            }
            fn heap_bytes(&self) -> usize {
                match self {
                    $( $name::$v $( { $($f),* } )? $( ( $($e),* ) )? => {
                        0usize
                            $($( + $crate::Pack::heap_bytes($f) )*)?
                            $($( + $crate::Pack::heap_bytes($e) )*)?
                    } )*
                }
            }
        }
    };
    (@elem $e:ident $r:ident) => { $crate::Pack::unpack($r)? };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Pack + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.pack(&mut PackWriter::new(&mut buf));
        let mut r = PackReader::new(&buf);
        assert_eq!(T::unpack(&mut r).unwrap(), v);
        assert!(r.finished(), "encoding must be self-delimiting");
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            rt(v);
        }
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN] {
            rt(v);
        }
    }

    #[test]
    fn sentinel_pointers_cost_one_byte() {
        for (p, expect) in [(Ptr::NULL, 0u8), (Ptr::DANGLING, 1), (Ptr(0), 2)] {
            let mut buf = Vec::new();
            p.pack(&mut PackWriter::new(&mut buf));
            assert_eq!(buf, vec![expect]);
            rt(p);
        }
        rt(Ptr(1_000_000));
    }

    #[test]
    fn containers_round_trip() {
        rt(Option::<i64>::None);
        rt(Some(-5i64));
        rt(vec![1u32, 2, 300]);
        rt(vec![Some(ThreadId(3)), None]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        0xdead_beefu64.pack(&mut PackWriter::new(&mut buf));
        for cut in 0..buf.len() {
            assert_eq!(u64::unpack(&mut PackReader::new(&buf[..cut])), None);
        }
        // Over-long varint (would overflow 64 bits).
        let bad = [0xffu8; 11];
        assert_eq!(u64::unpack(&mut PackReader::new(&bad)), None);
        // Absurd vector length.
        let mut buf = Vec::new();
        PackWriter::new(&mut buf).put_u64(u64::MAX);
        assert_eq!(Vec::<u8>::unpack(&mut PackReader::new(&buf)), None);
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct S {
        a: u32,
        b: Option<i64>,
    }
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum E {
        Unit,
        Fields { x: u32, p: Ptr },
        Tuple(ThreadId, i64),
    }
    impl_pack!(struct S { a, b });
    impl_pack!(enum E { 0 => Unit, 1 => Fields { x, p }, 2 => Tuple(a, b) });

    #[test]
    fn macro_generated_impls_round_trip() {
        rt(S { a: 7, b: Some(-9) });
        rt(E::Unit);
        rt(E::Fields {
            x: 42,
            p: Ptr::NULL,
        });
        rt(E::Tuple(ThreadId(2), -1));
        // Unknown tag is rejected, not misparsed.
        assert_eq!(E::unpack(&mut PackReader::new(&[9])), None);
    }

    #[test]
    fn vec_heap_bytes_counts_capacity() {
        let v: Vec<u64> = Vec::with_capacity(8);
        assert_eq!(v.heap_bytes(), 64);
    }
}
