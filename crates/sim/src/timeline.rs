//! Causal timelines at 16 bytes a stamp.
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
//! [`TimelineStore`] keeps one slot per causal id in a dense index. A
//! timeline being marked is *open*: it lives in a buffer taken from a free
//! list and marks overwrite or append in place. Folding a message
//! (`MetricsRegistry::observe_stages`) *seals* it: its stamps are appended
//! to a chunked arena and the buffer goes back to the free list, so a
//! retained timeline costs its stamps plus its slot and no allocation of
//! its own. A timeline never straddles two chunks, and a chunk is allocated
//! at full capacity and never grows, so it never moves. A mark on a sealed
//! timeline reopens it: its stamps go back into a buffer, and the arena
//! copy is left behind unread.

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

// A stamp is two words, and a slot of the index at most two.
const _: () = assert!(std::mem::size_of::<(Stage, SimTime)>() == 16);
const _: () = assert!(std::mem::size_of::<Slot>() <= 16);

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

/// Stamps per arena chunk (64 KiB). A sealed timeline longer than that gets
/// a chunk of its own length.
const CHUNK_STAMPS: usize = 4096;

/// Where one causal id's timeline lives.
#[derive(Clone, Copy)]
enum Slot {
    /// Never marked.
    Empty,
    /// Being marked, in `open[buffer]`.
    Open(u32),
    /// Folded: `len` stamps from `start` in arena chunk `chunk`.
    Sealed { chunk: u32, start: u32, len: u32 },
}

/// Every causal timeline of one registry, open or sealed.
pub(crate) struct TimelineStore {
    /// The slot of causal id `c` at index `c - 1`.
    index: Vec<Slot>,
    /// Open timelines' buffers; the ones listed in `free` are empty.
    open: Vec<Vec<(Stage, SimTime)>>,
    free: Vec<u32>,
    /// The arena of sealed timelines.
    chunks: Vec<Vec<(Stage, SimTime)>>,
    /// Capacity of a fresh chunk.
    chunk_stamps: usize,
}

impl Default for TimelineStore {
    fn default() -> TimelineStore {
        TimelineStore::with_chunk_stamps(CHUNK_STAMPS)
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

impl TimelineStore {
    /// An empty store whose arena grows by chunks of `chunk_stamps` stamps.
    pub(crate) fn with_chunk_stamps(chunk_stamps: usize) -> TimelineStore {
        TimelineStore {
            index: Vec::new(),
            open: Vec::new(),
            free: Vec::new(),
            chunks: Vec::new(),
            chunk_stamps,
        }
    }

    fn read(&self, slot: Slot) -> Option<&Timeline> {
        match slot {
            Slot::Empty => None,
            Slot::Open(buffer) => Some(&self.open[buffer as usize]),
            Slot::Sealed { chunk, start, len } => {
                let start = start as usize;
                Some(&self.chunks[chunk as usize][start..start + len as usize])
            }
        }
    }

    /// One message's timeline (`None` for an id never marked).
    pub(crate) fn get(&self, causal: u64) -> Option<&Timeline> {
        self.read(*self.index.get(slot_index(causal)?)?)
    }

    /// All marked timelines, in ascending causal-id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Timeline)> {
        self.index
            .iter()
            .enumerate()
            .filter_map(|(i, &slot)| Some((i as u64 + 1, self.read(slot)?)))
    }

    /// Stamps `stage` at `t` on message `causal`, overwriting an earlier
    /// stamp of the same stage. Opens the timeline if it is not open.
    pub(crate) fn mark(&mut self, causal: u64, stage: Stage, t: SimTime) {
        let Some(i) = slot_index(causal) else {
            return;
        };
        if i >= self.index.len() {
            self.index.resize(i + 1, Slot::Empty);
        }
        let buffer = match self.index[i] {
            Slot::Open(buffer) => buffer,
            closed => {
                let buffer = self.free.pop().unwrap_or_else(|| {
                    self.open.push(Vec::new());
                    word(self.open.len() - 1)
                });
                if let Slot::Sealed { chunk, start, len } = closed {
                    let start = start as usize;
                    let sealed = &self.chunks[chunk as usize][start..start + len as usize];
                    self.open[buffer as usize].extend_from_slice(sealed);
                }
                self.index[i] = Slot::Open(buffer);
                buffer
            }
        };
        let tl = &mut self.open[buffer as usize];
        match tl.iter_mut().find(|(s, _)| *s == stage) {
            Some(slot) => slot.1 = t,
            None => tl.push((stage, t)),
        }
    }

    /// Moves an open timeline into the arena and frees its buffer. Does
    /// nothing to an empty or sealed one.
    pub(crate) fn seal(&mut self, causal: u64) {
        let Some(i) = slot_index(causal) else {
            return;
        };
        let Some(&Slot::Open(buffer)) = self.index.get(i) else {
            return;
        };
        let tl = &mut self.open[buffer as usize];
        let len = tl.len();
        if self
            .chunks
            .last()
            .is_none_or(|c| c.capacity() - c.len() < len)
        {
            self.chunks
                .push(Vec::with_capacity(self.chunk_stamps.max(len)));
        }
        let chunk = self.chunks.len() - 1;
        let arena = &mut self.chunks[chunk];
        let start = arena.len();
        // Within capacity: the chunk does not reallocate.
        arena.extend_from_slice(tl);
        tl.clear();
        self.free.push(buffer);
        self.index[i] = Slot::Sealed {
            chunk: word(chunk),
            start: word(start),
            len: word(len),
        };
    }

    /// Chunks in the arena.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Forgets every timeline and releases the arena and the buffers.
    pub(crate) fn clear(&mut self) {
        *self = TimelineStore::with_chunk_stamps(self.chunk_stamps);
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
        let mut store = TimelineStore::with_chunk_stamps(3);
        store.mark(1, a, t(1));
        store.mark(1, b, t(2));
        store.mark(2, a, t(3));
        store.mark(2, b, t(3));
        store.seal(1);
        store.seal(1); // already sealed: nothing
        store.seal(3); // never marked: nothing
        store.seal(0);
        assert_eq!(store.get(1), Some(&[(a, t(1)), (b, t(2))][..]));
        assert_eq!(store.free, vec![0], "the sealed timeline's buffer is free");
        // Id 2 (two stamps) no longer fits the first chunk's one free stamp.
        store.seal(2);
        assert_eq!(store.chunks.len(), 2);
        assert_eq!(store.get(2), Some(&[(a, t(3)), (b, t(3))][..]));
        // A mark reopens a sealed timeline with its stamps.
        store.mark(1, b, t(4));
        assert_eq!(store.get(1), Some(&[(a, t(1)), (b, t(4))][..]));
        let ids: Vec<u64> = store.iter().map(|(c, _)| c).collect();
        assert_eq!(ids, vec![1, 2]);
        store.clear();
        assert!(store.get(1).is_none());
        assert_eq!(store.iter().count(), 0);
    }

    #[test]
    fn a_timeline_longer_than_a_chunk_gets_a_chunk_of_its_own() {
        let stages = ["long.a", "long.b", "long.c", "long.d"].map(Stage::intern);
        let mut store = TimelineStore::with_chunk_stamps(2);
        for (k, &s) in stages.iter().enumerate() {
            store.mark(7, s, t(k as u64));
        }
        store.seal(7);
        assert_eq!(store.chunks.len(), 1);
        assert_eq!(store.chunks[0].capacity(), 4);
        assert_eq!(store.get(7).map(<[_]>::len), Some(4));
        store.mark(8, stages[0], t(9));
        store.seal(8);
        assert_eq!(store.chunks.len(), 2, "the full chunk takes no more");
    }
}
