//! Messages: the only way computation moves in UpDown. A message targets an
//! event word (lane + thread + label), carries up to eight 64-bit operands
//! in hardware (larger software payloads are charged extra wire bytes), and
//! an optional continuation word. A payload of five to nine words lives in
//! a block recycled through a free list per host thread; `Engine::run`
//! empties the calling thread's list when it returns (`ReleaseBlocks`).

use std::cell::RefCell;
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
/// 18 % (`docs/perf.md`, "Allocation budget"). Five to nine words go to a
/// pooled block instead, which costs no slot bytes.
pub const INLINE_OPERANDS: usize = 4;

/// Words in one pooled block: eight hardware operands plus a DRAM reply's tag.
const BLOCK_OPERANDS: usize = HW_OPERANDS + 1;

/// Most blocks one thread's list keeps, 288 KiB. Fixed by measurement: 256
/// left `bfs_tc_torus` at 0.47 heap calls per event, 4096 at 0.29.
const POOL_BLOCKS: usize = 4096;

type Block = Box<[u64; BLOCK_OPERANDS]>;

thread_local! { // det-lint: allow — a block's words are overwritten before any read, and no simulated state reads the list
    static BLOCKS: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
}

/// A block from this thread's free list, or a new one.
fn take_block() -> Block {
    let reused = BLOCKS.try_with(|l| l.borrow_mut().pop()).ok().flatten();
    reused.unwrap_or_else(|| Box::new([0; BLOCK_OPERANDS]))
}

/// Return `block` to this thread's list, or free it if the list is full or gone.
fn give_back(block: Block) {
    let _ = BLOCKS.try_with(|l| {
        let mut l = l.borrow_mut();
        if l.len() < POOL_BLOCKS {
            l.push(block);
        }
    });
}

/// Dropping one frees every block on this thread's list: `Engine::run`
/// holds one so no block outlives a run, however it ends.
pub(crate) struct ReleaseBlocks;

impl Drop for ReleaseBlocks {
    fn drop(&mut self) {
        let _ = BLOCKS.try_with(|l| std::mem::take(&mut *l.borrow_mut()));
    }
}

/// The operand words of a [`Message`]: up to [`INLINE_OPERANDS`] live
/// inline, up to nine in a block from this thread's free list, longer
/// payloads in one exact-size heap block. Reads as a `&[u64]`; arrays,
/// slices and `Vec<u64>` convert into it.
pub struct Operands(Repr);

enum Repr {
    Inline {
        len: u8,
        words: [u64; INLINE_OPERANDS],
    },
    Block { len: u8, words: Block },
    Spilled(Box<[u64]>),
}

const EMPTY: Repr = Repr::Inline { len: 0, words: [0; INLINE_OPERANDS] };

impl Operands {
    pub const fn new() -> Operands {
        Operands(EMPTY)
    }

    pub fn push(&mut self, word: u64) {
        self.extend_from_slice(&[word]);
    }

    /// Append `more`. Past the inline capacity the words move into a
    /// pooled block, and past nine into one heap block of exactly the new
    /// length (the pooled block goes back to the list).
    pub fn extend_from_slice(&mut self, more: &[u64]) {
        let (old, new) = (self.len(), self.len() + more.len());
        let room = match &mut self.0 {
            Repr::Inline { len, words } if new <= INLINE_OPERANDS => Some((len, &mut words[..])),
            Repr::Block { len, words } if new <= BLOCK_OPERANDS => Some((len, &mut words[..])),
            _ => None,
        };
        if let Some((len, words)) = room {
            words[old..new].copy_from_slice(more);
            *len = new as u8;
        } else if new <= BLOCK_OPERANDS {
            let mut words = take_block();
            words[..old].copy_from_slice(self);
            words[old..new].copy_from_slice(more);
            self.0 = Repr::Block { len: new as u8, words };
        } else {
            let mut all = Vec::with_capacity(new);
            all.extend_from_slice(self);
            all.extend_from_slice(more);
            if let Repr::Block { words, .. } = std::mem::replace(&mut self.0, Repr::Spilled(all.into())) {
                give_back(words);
            }
        }
    }
}

impl Drop for Operands {
    fn drop(&mut self) {
        if let Repr::Block { words, .. } = std::mem::replace(&mut self.0, EMPTY) {
            give_back(words);
        }
    }
}

/// A clone of a pooled payload takes its own block.
impl Clone for Operands {
    fn clone(&self) -> Operands {
        Operands(match &self.0 {
            Repr::Inline { len, words } => Repr::Inline { len: *len, words: *words },
            Repr::Block { len, words } => {
                let mut copy = take_block();
                *copy = **words;
                Repr::Block { len: *len, words: copy }
            }
            Repr::Spilled(b) => Repr::Spilled(b.clone()),
        })
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
            Repr::Block { len, words } => &words[..*len as usize],
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
        if v.len() <= BLOCK_OPERANDS {
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
pub(crate) mod tests {
    use super::*;

    /// Blocks on this thread's free list.
    pub(crate) fn pooled() -> usize {
        BLOCKS.with(|l| l.borrow().len())
    }

    fn block_ptr(o: &Operands) -> Option<*const u64> {
        match &o.0 {
            Repr::Block { words, .. } => Some(words.as_ptr()),
            _ => None,
        }
    }

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

    #[test]
    fn a_recycled_block_shows_only_its_new_words() {
        drop(ReleaseBlocks);
        let full = Operands::from([9; BLOCK_OPERANDS]);
        let ptr = block_ptr(&full).expect("nine words take a block");
        drop(full);
        assert_eq!(pooled(), 1);
        let five = Operands::from([1, 2, 3, 4, 5]);
        assert_eq!(block_ptr(&five), Some(ptr), "the block is reused");
        assert_eq!(&*five, &[1, 2, 3, 4, 5]);
        assert_eq!(pooled(), 0);
        let from_vec = Operands::from(vec![7; 6]);
        assert!(block_ptr(&from_vec).is_some() && *from_vec == [7; 6]);
    }

    #[test]
    fn growth_moves_inline_to_block_to_heap_and_gives_the_block_back() {
        drop(ReleaseBlocks);
        let mut o = Operands::from([0, 1, 2, 3]);
        o.push(4);
        let ptr = block_ptr(&o).expect("4 -> 5 takes a block");
        o.extend_from_slice(&[5, 6, 7, 8]);
        assert_eq!(block_ptr(&o), Some(ptr), "5 -> 9 stays in the same block");
        assert_eq!(&*o, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(pooled(), 0);
        o.push(9);
        assert!(block_ptr(&o).is_none() && !is_inline(&o), "9 -> 10 spills");
        assert_eq!(&*o, &(0..10).collect::<Vec<u64>>()[..]);
        assert_eq!(pooled(), 1, "the block went back");
        drop(o);
        assert_eq!(pooled(), 1, "a spilled payload is no block");

        let mut o = Operands::from([1, 2]);
        o.extend_from_slice(&[3, 4, 5, 6, 7, 8, 9, 10, 11]);
        assert!(block_ptr(&o).is_none() && o.len() == 11, "inline straight to heap");
    }

    #[test]
    fn a_clone_owns_its_own_block() {
        drop(ReleaseBlocks);
        let a = Operands::from([1, 2, 3, 4, 5, 6]);
        let mut b = a.clone();
        assert_ne!(block_ptr(&a), block_ptr(&b));
        assert_eq!(a, b);
        b.push(7);
        drop(a);
        assert_eq!(&*b, &[1, 2, 3, 4, 5, 6, 7]);
        drop(b);
        assert_eq!(pooled(), 2);
    }

    #[test]
    fn the_list_is_capped_and_release_empties_it() {
        drop(ReleaseBlocks);
        let many: Vec<Operands> = (0..POOL_BLOCKS + 3).map(|_| Operands::from([5; 5])).collect();
        drop(many);
        assert_eq!(pooled(), POOL_BLOCKS);
        let guard = ReleaseBlocks;
        assert_eq!(pooled(), POOL_BLOCKS);
        drop(guard);
        assert_eq!(pooled(), 0, "releasing empties the list");
    }

    #[test]
    fn a_block_made_on_one_thread_can_be_dropped_on_another() {
        drop(ReleaseBlocks);
        let o = Operands::from([3; 8]);
        let there = std::thread::spawn(move || {
            assert_eq!(&*o, &[3; 8]);
            drop(o);
            pooled()
        })
        .join()
        .unwrap();
        assert_eq!((there, pooled()), (1, 0), "the dropping thread keeps it");
    }
}
