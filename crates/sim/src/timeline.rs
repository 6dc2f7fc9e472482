//! Causal timelines at 8 bytes an instant.
//!
//! A stamp is `(Stage, SimTime)`. A [`Stage`] is an 8-byte handle to the
//! one process-wide copy of a stage name, so two stages compare as two
//! pointers and a stamp is two words. The handle is made once per distinct
//! text by a process-wide interner: the registry resolves a `&'static str`
//! literal to its stage by address (see `names.rs`), and only text it has
//! never seen takes the interner's lock. Which text was interned first can
//! never show, because a stage has no order and no hash, only equality and
//! its text.
//!
//! [`TimelineStore`] keeps one 8-byte slot per causal id in a dense index.
//! A timeline being marked is *open*: it lives in a `(Stage, SimTime)`
//! buffer taken from a free list and marks overwrite or append in place.
//! Folding a message (`MetricsRegistry::observe_stages`) *seals* it: its
//! instants alone are appended to a chunked arena, and its stage sequence,
//! its *shape*, is interned once per store and named by the slot. A run's
//! messages have a handful of shapes (every message of a clean collective
//! has the same six stages), so a retained timeline costs 8 bytes an
//! instant plus its slot, and no allocation of its own. A timeline never
//! straddles two chunks, and a chunk is allocated at full capacity and
//! never grows, so it never moves. A mark on a sealed timeline reopens it:
//! its shape and instants are decoded back into a buffer, and the arena
//! copy is left behind unread (and still counted by
//! [`TimelineStore::bytes`]).
//!
//! A reader gets a [`TimelineBuf`]: the stamps decoded into a small owned
//! value that derefs to [`Timeline`], inline up to eight stamps.

use std::fmt;

use crate::sync::Mutex;
use crate::time::SimTime;

/// A causal stage name: a `Copy` handle to the one process-wide copy of
/// its text. Equal stages are the same pointer; a stage also compares equal
/// to its text as a `&str`, from either side.
#[derive(Clone, Copy)]
pub struct Stage(&'static &'static str);

/// One message's causal timeline: named stage boundaries in record order.
pub type Timeline = [(Stage, SimTime)];

// An open stamp is two words; a sealed instant and a slot of the index one.
const _: () = assert!(std::mem::size_of::<(Stage, SimTime)>() == 16);
const _: () = assert!(std::mem::size_of::<SimTime>() == 8);
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// Every stage text interned so far, each in its own leaked slot: bounded by
/// the distinct stage names the program writes.
static INTERNED: Mutex<Vec<&'static &'static str>> = Mutex::new(Vec::new());

impl Stage {
    /// The stage whose text is `name`, made on the first request for that
    /// text in the process.
    pub(crate) fn intern(name: &'static str) -> Stage {
        let mut interned = INTERNED.lock();
        if let Some(&text) = interned.iter().find(|&&text| *text == name) {
            return Stage(text);
        }
        let text: &'static &'static str = Box::leak(Box::new(name));
        interned.push(text);
        Stage(text)
    }

    /// The stage's name.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Stage {
    fn eq(&self, other: &Stage) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Stage {}

impl PartialEq<&str> for Stage {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<Stage> for &str {
    fn eq(&self, other: &Stage) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Debug for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stamps a [`TimelineBuf`] holds without a heap allocation: the longest
/// timeline NCS writes (a retransmitted, reassembled message) has eight.
pub(crate) const INLINE: usize = 8;

/// What pads a shape's stages and an inline [`TimelineBuf`]'s stamps past
/// their length: never read.
const BLANK_STAGE: Stage = Stage(&"");
const BLANK: (Stage, SimTime) = (BLANK_STAGE, SimTime::ZERO);

/// One timeline decoded from its store: an owned copy of its stamps that
/// derefs to [`Timeline`].
pub struct TimelineBuf(Stamps);

enum Stamps {
    Inline {
        len: usize,
        stamps: [(Stage, SimTime); INLINE],
    },
    Heap(Vec<(Stage, SimTime)>),
}

impl TimelineBuf {
    /// The `len` stamps `stamps` yields: the path off the common case.
    #[cold]
    #[inline(never)]
    fn collect(len: usize, stamps: impl Iterator<Item = (Stage, SimTime)>) -> TimelineBuf {
        if len > INLINE {
            return TimelineBuf(Stamps::Heap(stamps.collect()));
        }
        let mut inline = [BLANK; INLINE];
        for (slot, stamp) in inline.iter_mut().zip(stamps) {
            *slot = stamp;
        }
        TimelineBuf(Stamps::Inline {
            len,
            stamps: inline,
        })
    }
}

impl std::ops::Deref for TimelineBuf {
    type Target = Timeline;

    #[inline]
    fn deref(&self) -> &Timeline {
        match &self.0 {
            Stamps::Inline { len, stamps } => &stamps[..*len],
            Stamps::Heap(stamps) => stamps,
        }
    }
}

impl fmt::Debug for TimelineBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Instants per arena chunk (64 KiB). A sealed timeline longer than that
/// gets a chunk of its own length.
const CHUNK_INSTANTS: usize = 8192;

/// Where one causal id's timeline lives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Place {
    /// Never marked.
    Empty,
    /// Being marked, in `open[buffer]`.
    Open(u32),
    /// Folded: the instants of shape `shape`'s stages, from `start` in
    /// arena chunk `chunk`.
    Sealed { shape: u32, chunk: u32, start: u32 },
}

/// A [`Place`] packed into one word: the kind in the top two bits, below
/// them an open slot's buffer or a sealed slot's shape, chunk and start.
#[derive(Clone, Copy)]
struct Slot(u64);

const KIND_SHIFT: u32 = 62;
const OPEN: u64 = 1;
const SEALED: u64 = 2;
const SHAPE_BITS: u32 = 20;
const CHUNK_BITS: u32 = 22;
const START_BITS: u32 = 20;
const CHUNK_SHIFT: u32 = START_BITS;
const SHAPE_SHIFT: u32 = START_BITS + CHUNK_BITS;
const _: () = assert!(SHAPE_SHIFT + SHAPE_BITS == KIND_SHIFT);

/// `n` as a `bits`-wide field, refused if it does not fit.
fn field(n: u32, bits: u32) -> u64 {
    let n = u64::from(n);
    assert!(n >> bits == 0, "timeline store overflow");
    n
}

/// The `bits`-wide field of `word` at `shift`.
#[inline]
fn unfield(word: u64, shift: u32, bits: u32) -> u32 {
    u32::try_from((word >> shift) & ((1 << bits) - 1)).expect("a field is at most 32 bits")
}

impl Slot {
    const EMPTY: Slot = Slot(0);

    fn pack(place: Place) -> Slot {
        Slot(match place {
            Place::Empty => 0,
            Place::Open(buffer) => OPEN << KIND_SHIFT | u64::from(buffer),
            Place::Sealed {
                shape,
                chunk,
                start,
            } => {
                SEALED << KIND_SHIFT
                    | field(shape, SHAPE_BITS) << SHAPE_SHIFT
                    | field(chunk, CHUNK_BITS) << CHUNK_SHIFT
                    | field(start, START_BITS)
            }
        })
    }

    #[inline]
    fn unpack(self) -> Place {
        match self.0 >> KIND_SHIFT {
            0 => Place::Empty,
            OPEN => Place::Open(unfield(self.0, 0, 32)),
            _ => Place::Sealed {
                shape: unfield(self.0, SHAPE_SHIFT, SHAPE_BITS),
                chunk: unfield(self.0, CHUNK_SHIFT, CHUNK_BITS),
                start: unfield(self.0, 0, START_BITS),
            },
        }
    }
}

/// A sealed timeline read in place: its shape's id and stages, and its
/// instants, one per stage.
pub(crate) struct Sealed<'a> {
    pub(crate) shape: u32,
    pub(crate) stages: &'a [Stage],
    pub(crate) instants: &'a [SimTime],
}

/// The marked timelines of a store, in ascending causal-id order.
pub(crate) struct Iter<'a> {
    store: &'a TimelineStore,
    /// The index slot to look at next.
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = (u64, TimelineBuf);

    #[inline(always)]
    fn next(&mut self) -> Option<(u64, TimelineBuf)> {
        loop {
            let slot = *self.store.index.get(self.next)?;
            self.next += 1;
            let place = slot.unpack();
            if place != Place::Empty {
                return self.store.read(self.next as u64, place);
            }
        }
    }
}

/// One distinct stage sequence, and its first [`INLINE`] stages padded to
/// that length for a decode of fixed length.
struct Shape {
    stages: Box<[Stage]>,
    padded: [Stage; INLINE],
}

/// Every causal timeline of one registry, open or sealed.
pub(crate) struct TimelineStore {
    /// The slot of causal id `c` at index `c - 1`.
    index: Vec<Slot>,
    /// Open timelines' buffers; the ones listed in `free` are empty.
    open: Vec<Vec<(Stage, SimTime)>>,
    free: Vec<u32>,
    /// The arena of sealed timelines' instants.
    chunks: Vec<Vec<SimTime>>,
    /// Every distinct stage sequence sealed so far, in first-seal order.
    shapes: Vec<Shape>,
    /// Capacity of a fresh chunk.
    chunk_instants: usize,
}

impl Default for TimelineStore {
    fn default() -> TimelineStore {
        TimelineStore::with_chunk_instants(CHUNK_INSTANTS)
    }
}

/// Where causal id `causal` lives in the dense index (`None` for 0, the
/// "untracked" id).
fn slot_index(causal: u64) -> Option<usize> {
    usize::try_from(causal.checked_sub(1)?).ok()
}

fn word(n: usize) -> u32 {
    u32::try_from(n).expect("timeline store overflow")
}

/// The id of the shape `stamps` has, interned into `shapes` if it is new.
fn intern_shape(shapes: &mut Vec<Shape>, stamps: &Timeline) -> u32 {
    let same = |shape: &[Stage]| {
        shape.len() == stamps.len() && shape.iter().zip(stamps).all(|(&a, &(b, _))| a == b)
    };
    if let Some(id) = shapes.iter().position(|shape| same(&shape.stages)) {
        return word(id);
    }
    let mut padded = [BLANK_STAGE; INLINE];
    for (pad, &(stage, _)) in padded.iter_mut().zip(stamps) {
        *pad = stage;
    }
    // Shapes are few and come rarely: the table grows by one each time.
    shapes.reserve_exact(1);
    shapes.push(Shape {
        stages: stamps.iter().map(|&(stage, _)| stage).collect(),
        padded,
    });
    word(shapes.len() - 1)
}

impl TimelineStore {
    /// An empty store whose arena grows by chunks of `chunk_instants`
    /// instants.
    pub(crate) fn with_chunk_instants(chunk_instants: usize) -> TimelineStore {
        TimelineStore {
            index: Vec::new(),
            open: Vec::new(),
            free: Vec::new(),
            chunks: Vec::new(),
            shapes: Vec::new(),
            chunk_instants,
        }
    }

    fn place(&self, causal: u64) -> Place {
        slot_index(causal)
            .and_then(|i| self.index.get(i))
            .map_or(Place::Empty, |slot| slot.unpack())
    }

    /// A sealed timeline's stages and instants.
    fn sealed(&self, shape: u32, chunk: u32, start: u32) -> Sealed<'_> {
        let stages = &self.shapes[shape as usize].stages[..];
        let start = start as usize;
        let instants = &self.chunks[chunk as usize][start..start + stages.len()];
        Sealed {
            shape,
            stages,
            instants,
        }
    }

    /// Causal id `causal`'s timeline, which lives at `place`, decoded.
    /// Every path builds its result in place: `Iter::next` returns it as
    /// it is, and a decoded value moved between two places costs more than
    /// the decode.
    #[inline(always)]
    fn read(&self, causal: u64, place: Place) -> Option<(u64, TimelineBuf)> {
        match place {
            Place::Empty => None,
            Place::Open(buffer) => {
                let stamps = &self.open[buffer as usize];
                Some((
                    causal,
                    TimelineBuf::collect(stamps.len(), stamps.iter().copied()),
                ))
            }
            Place::Sealed {
                shape,
                chunk,
                start,
            } => {
                let shape = &self.shapes[shape as usize];
                let tail = &self.chunks[chunk as usize][start as usize..];
                let len = shape.stages.len();
                if let Some(instants) = tail.first_chunk::<INLINE>().filter(|_| len <= INLINE) {
                    // A fixed-length copy, with no branch per stamp: the
                    // instants past `len` are the next timelines' and are
                    // never read.
                    let stamps = std::array::from_fn(|k| (shape.padded[k], instants[k]));
                    return Some((causal, TimelineBuf(Stamps::Inline { len, stamps })));
                }
                // At a chunk's end, or longer than the inline stamps.
                let stamps = shape
                    .stages
                    .iter()
                    .copied()
                    .zip(tail[..len].iter().copied());
                Some((causal, TimelineBuf::collect(len, stamps)))
            }
        }
    }

    /// One message's timeline (`None` for an id never marked).
    pub(crate) fn get(&self, causal: u64) -> Option<TimelineBuf> {
        Some(self.read(causal, self.place(causal))?.1)
    }

    /// All marked timelines, in ascending causal-id order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            store: self,
            next: 0,
        }
    }

    /// When `stage` is stamped on message `causal`, read in place.
    pub(crate) fn stamp(&self, causal: u64, stage: Stage) -> Option<SimTime> {
        match self.place(causal) {
            Place::Empty => None,
            Place::Open(buffer) => self.open[buffer as usize]
                .iter()
                .find(|&&(s, _)| s == stage)
                .map(|&(_, t)| t),
            Place::Sealed {
                shape,
                chunk,
                start,
            } => {
                let sealed = self.sealed(shape, chunk, start);
                let at = sealed.stages.iter().position(|&s| s == stage)?;
                Some(sealed.instants[at])
            }
        }
    }

    /// Stamps `stage` at `t` on message `causal`, overwriting an earlier
    /// stamp of the same stage. Opens the timeline if it is not open.
    pub(crate) fn mark(&mut self, causal: u64, stage: Stage, t: SimTime) {
        let Some(i) = slot_index(causal) else {
            return;
        };
        if i >= self.index.len() {
            self.index.resize(i + 1, Slot::EMPTY);
        }
        let buffer = match self.index[i].unpack() {
            Place::Open(buffer) => buffer,
            closed => {
                let buffer = self.free.pop().unwrap_or_else(|| {
                    self.open.push(Vec::new());
                    word(self.open.len() - 1)
                });
                if let Place::Sealed {
                    shape,
                    chunk,
                    start,
                } = closed
                {
                    let start = start as usize;
                    let stages = &self.shapes[shape as usize].stages;
                    let instants = &self.chunks[chunk as usize][start..start + stages.len()];
                    let stamps = stages.iter().copied().zip(instants.iter().copied());
                    self.open[buffer as usize].extend(stamps);
                }
                self.index[i] = Slot::pack(Place::Open(buffer));
                buffer
            }
        };
        let tl = &mut self.open[buffer as usize];
        match tl.iter_mut().find(|(s, _)| *s == stage) {
            Some(slot) => slot.1 = t,
            None => tl.push((stage, t)),
        }
    }

    /// Moves an open timeline into the arena and frees its buffer, and
    /// returns it as sealed; a sealed one is returned as it is. `None` for
    /// an id never marked.
    pub(crate) fn seal(&mut self, causal: u64) -> Option<Sealed<'_>> {
        let i = slot_index(causal)?;
        let buffer = match self.index.get(i)?.unpack() {
            Place::Empty => return None,
            Place::Sealed {
                shape,
                chunk,
                start,
            } => return Some(self.sealed(shape, chunk, start)),
            Place::Open(buffer) => buffer,
        };
        let tl = &mut self.open[buffer as usize];
        let len = tl.len();
        if self
            .chunks
            .last()
            .is_none_or(|c| c.capacity() - c.len() < len)
        {
            self.chunks
                .push(Vec::with_capacity(self.chunk_instants.max(len)));
        }
        let chunk = self.chunks.len() - 1;
        let arena = &mut self.chunks[chunk];
        let start = arena.len();
        // Within capacity: the chunk does not reallocate.
        arena.extend(tl.iter().map(|&(_, t)| t));
        let shape = intern_shape(&mut self.shapes, tl);
        tl.clear();
        self.free.push(buffer);
        let (chunk, start) = (word(chunk), word(start));
        self.index[i] = Slot::pack(Place::Sealed {
            shape,
            chunk,
            start,
        });
        Some(self.sealed(shape, chunk, start))
    }

    /// Bytes the store holds, counted by capacity: the index, the arena,
    /// the open buffers and their free list, and the shape table.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let index = self.index.capacity() * size_of::<Slot>();
        let arena = self.chunks.capacity() * size_of::<Vec<SimTime>>() + self.arena_bytes();
        let open = self.open.capacity() * size_of::<Vec<(Stage, SimTime)>>()
            + self
                .open
                .iter()
                .map(|b| b.capacity() * size_of::<(Stage, SimTime)>())
                .sum::<usize>()
            + self.free.capacity() * size_of::<u32>();
        let shapes = self.shapes.capacity() * size_of::<Shape>()
            + self
                .shapes
                .iter()
                .map(|s| s.stages.len() * size_of::<Stage>())
                .sum::<usize>();
        index + arena + open + shapes
    }

    /// The arena chunks' instants, by capacity, in bytes.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<SimTime>())
            .sum()
    }

    /// Chunks in the arena.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Shapes interned so far.
    #[cfg(test)]
    pub(crate) fn shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Forgets every timeline and releases the arena, the buffers and the
    /// shape table.
    pub(crate) fn clear(&mut self) {
        *self = TimelineStore::with_chunk_instants(self.chunk_instants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + Dur::from_micros(us)
    }

    fn leaked(text: &str) -> &'static str {
        Box::leak(String::from(text).into_boxed_str())
    }

    #[test]
    fn one_text_at_two_addresses_is_one_stage() {
        let a: &'static str = "stage.law";
        let b = leaked("stage.law");
        assert!(!std::ptr::eq(a, b));
        assert_eq!(Stage::intern(a), Stage::intern(b));
        assert!(std::ptr::eq(
            Stage::intern(b).as_str(),
            Stage::intern(a).as_str()
        ));
        assert_ne!(Stage::intern(a), Stage::intern("stage.other"));
    }

    #[test]
    fn a_stage_equals_its_text_from_either_side() {
        let s = Stage::intern("stage.eq");
        assert_eq!(s, "stage.eq");
        assert_eq!("stage.eq", s);
        assert_ne!(s, "stage.ne");
        assert_ne!("stage.ne", s);
        assert_eq!(s.as_str(), "stage.eq");
    }

    #[test]
    fn a_stage_prints_like_its_text() {
        let s = Stage::intern("stage \"quoted\"");
        assert_eq!(format!("{s:?}"), format!("{:?}", "stage \"quoted\""));
        assert_eq!(format!("{s}"), "stage \"quoted\"");
        let tl = [(s, t(1))];
        assert_eq!(
            format!("{tl:?}"),
            format!("{:?}", [("stage \"quoted\"", t(1))])
        );
    }

    #[test]
    fn sealing_moves_a_timeline_without_changing_it() {
        let (a, b) = (Stage::intern("seal.a"), Stage::intern("seal.b"));
        let mut store = TimelineStore::with_chunk_instants(3);
        store.mark(1, a, t(1));
        store.mark(1, b, t(2));
        store.mark(2, a, t(3));
        store.mark(2, b, t(3));
        assert!(store.seal(1).is_some());
        let again = store.seal(1).expect("already sealed: read as it is");
        assert_eq!((again.shape, again.instants), (0, &[t(1), t(2)][..]));
        assert!(store.seal(3).is_none(), "never marked");
        assert!(store.seal(0).is_none());
        assert_eq!(store.get(1).as_deref(), Some(&[(a, t(1)), (b, t(2))][..]));
        assert_eq!(store.free, vec![0], "the sealed timeline's buffer is free");
        // Id 2 (two instants) no longer fits the first chunk's one free
        // instant; it has id 1's shape.
        let sealed = store.seal(2).expect("open");
        assert_eq!((sealed.shape, sealed.stages), (0, &[a, b][..]));
        assert_eq!(store.chunks.len(), 2);
        assert_eq!(store.shapes.len(), 1);
        assert_eq!(store.get(2).as_deref(), Some(&[(a, t(3)), (b, t(3))][..]));
        // A mark reopens a sealed timeline with its stamps.
        store.mark(1, b, t(4));
        assert_eq!(store.get(1).as_deref(), Some(&[(a, t(1)), (b, t(4))][..]));
        assert_eq!(store.stamp(1, b), Some(t(4)), "open");
        assert_eq!(store.stamp(2, b), Some(t(3)), "sealed");
        assert_eq!(store.stamp(2, Stage::intern("seal.c")), None);
        assert_eq!(store.stamp(3, a), None);
        let ids: Vec<u64> = store.iter().map(|(c, _)| c).collect();
        assert_eq!(ids, vec![1, 2]);
        store.clear();
        assert!(store.get(1).is_none());
        assert_eq!(store.iter().count(), 0);
        assert_eq!(store.bytes(), 0);
    }

    #[test]
    fn a_timeline_longer_than_a_chunk_gets_a_chunk_of_its_own() {
        let stages = ["long.a", "long.b", "long.c", "long.d"].map(Stage::intern);
        let mut store = TimelineStore::with_chunk_instants(2);
        for (k, &s) in stages.iter().enumerate() {
            store.mark(7, s, t(k as u64));
        }
        store.seal(7);
        assert_eq!(store.chunks.len(), 1);
        assert_eq!(store.chunks[0].capacity(), 4);
        assert_eq!(store.get(7).map(|tl| tl.len()), Some(4));
        store.mark(8, stages[0], t(9));
        store.seal(8);
        assert_eq!(store.chunks.len(), 2, "the full chunk takes no more");
        assert_eq!(store.shapes.len(), 2);
    }

    #[test]
    fn a_slot_is_one_word_and_round_trips() {
        let max = |bits: u32| (1u32 << bits) - 1;
        for place in [
            Place::Empty,
            Place::Open(0),
            Place::Open(u32::MAX),
            Place::Sealed {
                shape: 0,
                chunk: 0,
                start: 0,
            },
            Place::Sealed {
                shape: max(SHAPE_BITS),
                chunk: max(CHUNK_BITS),
                start: max(START_BITS),
            },
            Place::Sealed {
                shape: 5,
                chunk: 1 << 21,
                start: 3,
            },
        ] {
            assert_eq!(Slot::pack(place).unpack(), place);
        }
    }

    #[test]
    #[should_panic(expected = "timeline store overflow")]
    fn a_start_past_its_field_is_refused() {
        Slot::pack(Place::Sealed {
            shape: 0,
            chunk: 0,
            start: 1 << START_BITS,
        });
    }

    #[test]
    fn a_decoded_timeline_spills_past_its_inline_stamps() {
        let stages = ["spill.a", "spill.b"].map(Stage::intern);
        let stamps = (0..INLINE as u64 + 1).map(|k| (stages[k as usize % 2], t(k)));
        let long = TimelineBuf::collect(INLINE + 1, stamps.clone());
        assert!(matches!(long.0, Stamps::Heap(_)));
        assert_eq!(&*long, &stamps.collect::<Vec<_>>()[..]);
        let short = TimelineBuf::collect(1, [(stages[0], t(1))].into_iter());
        assert!(matches!(short.0, Stamps::Inline { len: 1, .. }));
        assert_eq!(format!("{short:?}"), format!("{:?}", [("spill.a", t(1))]));
    }
}
