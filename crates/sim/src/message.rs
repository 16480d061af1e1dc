//! Messages: the only way computation moves in UpDown. A message targets an
//! event word (lane + thread + label), carries up to eight 64-bit operands
//! in hardware (larger software payloads are charged extra wire bytes), and
//! an optional continuation word.

use std::fmt;
use std::ops::Deref;

use crate::ids::{EventWord, NetworkId};
use crate::snapshot::{SnapField, SnapReader, SnapWriter, SnapshotError};

/// Hardware operand capacity of one 64-byte message.
pub const HW_OPERANDS: usize = 8;

/// Fixed wire bytes of every message before its operands.
pub const MSG_HEADER_BYTES: u64 = 8;

/// Wire size in bytes of a message carrying `operands` operands: header +
/// operands, padded to the 64-byte message granularity per 8 operands (an
/// empty message still occupies one unit). The engine charges it and the
/// static cost model predicts with it.
#[inline]
pub fn wire_bytes(operands: usize) -> u64 {
    let units = operands.div_ceil(HW_OPERANDS).max(1) as u64;
    units * (MSG_HEADER_BYTES + (HW_OPERANDS as u64) * 8)
}

/// Operands a message stores inline. Fixed by measurement, not a knob: 4
/// keeps `Message` at 64 B and the engine's calendar `Action` at 80 B;
/// 9 grew `Action` (then 112 B) to 144 B and `pr_1n` `peak_rss_mb` by
/// 18 % (`docs/perf.md`, "Allocation budget").
pub const INLINE_OPERANDS: usize = 4;

/// The operand words of a [`Message`]: up to [`INLINE_OPERANDS`] live
/// inline, longer payloads in one exact-size heap block. Reads as a
/// `&[u64]`; arrays, slices and `Vec<u64>` convert into it.
#[derive(Clone)]
pub struct Operands(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        words: [u64; INLINE_OPERANDS],
    },
    Spilled(Box<[u64]>),
}

impl Operands {
    pub const fn new() -> Operands {
        Operands(Repr::Inline {
            len: 0,
            words: [0; INLINE_OPERANDS],
        })
    }

    pub fn push(&mut self, word: u64) {
        self.extend_from_slice(&[word]);
    }

    /// Append `more`. Crossing the inline capacity moves everything into
    /// one heap block of exactly the new length.
    pub fn extend_from_slice(&mut self, more: &[u64]) {
        let old = self.len();
        if let Repr::Inline { len, words } = &mut self.0 {
            if old + more.len() <= INLINE_OPERANDS {
                words[old..old + more.len()].copy_from_slice(more);
                *len += more.len() as u8;
                return;
            }
        }
        let mut all = Vec::with_capacity(old + more.len());
        all.extend_from_slice(self);
        all.extend_from_slice(more);
        self.0 = Repr::Spilled(all.into_boxed_slice());
    }
}

impl Default for Operands {
    fn default() -> Operands {
        Operands::new()
    }
}

impl Deref for Operands {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, words } => &words[..*len as usize],
            Repr::Spilled(b) => b,
        }
    }
}

impl From<&[u64]> for Operands {
    fn from(s: &[u64]) -> Operands {
        let mut o = Operands::new();
        o.extend_from_slice(s);
        o
    }
}

impl<const N: usize> From<[u64; N]> for Operands {
    fn from(a: [u64; N]) -> Operands {
        Operands::from(&a[..])
    }
}

impl From<Vec<u64>> for Operands {
    fn from(v: Vec<u64>) -> Operands {
        if v.len() <= INLINE_OPERANDS {
            Operands::from(&v[..])
        } else {
            Operands(Repr::Spilled(v.into_boxed_slice()))
        }
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Operands) -> bool {
        **self == **other
    }
}

impl Eq for Operands {}

/// Encoded as `len + words`, byte-identical to the `Vec<u64>` operands of
/// the first `updown-snapshot` writers.
impl SnapField for Operands {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self.iter() {
            w.u64(*v);
        }
    }
    fn take(r: &mut SnapReader<'_>) -> Result<Operands, SnapshotError> {
        Vec::<u64>::take(r).map(Operands::from)
    }
}

#[derive(Clone, Debug)]
pub struct Message {
    pub dst: EventWord,
    pub args: Operands,
    /// Continuation word delivered to the handler as `CCONT`.
    pub cont: EventWord,
    pub src: NetworkId,
}

impl Message {
    pub fn new(dst: EventWord, args: impl Into<Operands>, cont: EventWord, src: NetworkId) -> Message {
        Message {
            dst,
            args: args.into(),
            cont,
            src,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_rounds_to_message_units() {
        assert_eq!(wire_bytes(2), 72);
        assert_eq!(wire_bytes(8), 72);
        assert_eq!(wire_bytes(9), 144, "9 operands need two hardware messages");
        assert_eq!(wire_bytes(0), 72, "empty message still occupies one unit");
    }

    fn is_inline(o: &Operands) -> bool {
        matches!(o.0, Repr::Inline { .. })
    }

    #[test]
    fn every_conversion_keeps_the_words() {
        let words: Vec<u64> = (1..=9).collect();
        for n in 0..=words.len() {
            let want = &words[..n];
            let from_slice = Operands::from(want);
            let from_vec = Operands::from(want.to_vec());
            assert_eq!(&*from_slice, want);
            assert_eq!(from_slice, from_vec);
            assert_eq!(is_inline(&from_slice), n <= INLINE_OPERANDS);
            assert_eq!(is_inline(&from_vec), n <= INLINE_OPERANDS);
            assert_eq!(format!("{from_slice:?}"), format!("{want:?}"));
        }
        assert_eq!(&*Operands::from([]), &[] as &[u64]);
        assert_eq!(&*Operands::from([7, 8]), &[7, 8]);
        assert!(Operands::default().is_empty());
        let at_cap = Operands::from([3; INLINE_OPERANDS]);
        assert!(is_inline(&at_cap) && *at_cap == [3; INLINE_OPERANDS]);
        let over = Operands::from([3; INLINE_OPERANDS + 1]);
        assert!(!is_inline(&over) && *over == [3; INLINE_OPERANDS + 1]);
    }

    #[test]
    fn push_and_extend_cross_the_boundary() {
        let mut o = Operands::new();
        for w in 0..INLINE_OPERANDS as u64 + 3 {
            o.push(w);
            assert_eq!(o.len() as u64, w + 1);
            assert_eq!(is_inline(&o), o.len() <= INLINE_OPERANDS);
        }
        assert_eq!(&*o, &[0, 1, 2, 3, 4, 5, 6]);

        let mut o = Operands::from([1, 2]);
        o.extend_from_slice(&[3, 4]);
        assert!(is_inline(&o), "exactly at capacity stays inline");
        o.extend_from_slice(&[5, 6, 7]);
        assert_eq!(&*o, &[1, 2, 3, 4, 5, 6, 7]);
        o.extend_from_slice(&[]);
        assert_eq!(o.len(), 7);
    }

    #[test]
    fn snapshot_encoding_matches_vec_of_words() {
        for n in [0usize, 2, INLINE_OPERANDS, INLINE_OPERANDS + 1, 9] {
            let words: Vec<u64> = (0..n as u64).map(|w| w * 3 + 1).collect();
            let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
            Operands::from(&words[..]).put(&mut a);
            words.put(&mut b);
            let bytes = a.into_bytes();
            assert_eq!(bytes, b.into_bytes(), "{n} operands");
            let back = Operands::take(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(&*back, &words[..]);
        }
    }
}
