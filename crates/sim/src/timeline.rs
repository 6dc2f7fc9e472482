//! Causal timelines: each in one buffer from its first mark on, and none
//! once folded unless kept.
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
//! [`TimelineStore`] keeps one 8-byte place per causal id in a window of a
//! dense index that starts at `base`. A marked timeline lives in a
//! `(Stage, SimTime)` buffer taken from a free list, and marks overwrite or
//! append in place. Folding a message (`MetricsRegistry::observe_stages`)
//! *closes* its timeline: the fold reads it straight from its buffer, named
//! with its *shape*, its stage sequence, which the store interns once so
//! that the fold resolves its stats once per shape. Then:
//!
//! - **Freed** (the default). The buffer goes back to the free list and the
//!   place becomes a *folded* tombstone. The window then starts at the
//!   oldest open id: folded and never-marked places at its front are
//!   dropped as `base` moves past them. An id below `base` is closed, so a
//!   mark there is dropped and a second fold finds nothing. If the window
//!   grows past twice the open timelines (plus [`WINDOW_SLACK`]), because
//!   an old timeline never closes, its oldest open timelines move to a
//!   short list of *stragglers*, sorted by id, so memory follows the open
//!   timelines and not the message count.
//! - **Kept** (after [`TimelineStore::keep`]). The buffer stays where it
//!   is and the window never moves: a later mark lands in place, and a
//!   second fold reads the timeline again.
//!
//! A reader gets each timeline as a [`Timeline`] slice of its buffer.

use std::collections::VecDeque;
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

// A stamp is two words, a place of the index one.
const _: () = assert!(std::mem::size_of::<(Stage, SimTime)>() == 16);
const _: () = assert!(std::mem::size_of::<Place>() == 8);

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
    pub(crate) fn as_str(self) -> &'static str {
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

/// Window slots allowed past twice the open timelines before the oldest
/// open ones move to the stragglers: room for a round of messages that
/// open and close out of order without moving any.
const WINDOW_SLACK: usize = 64;

/// Where one causal id's timeline lives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Place {
    /// Never marked.
    Empty,
    /// In `buffers[buffer]`: open, or folded and kept.
    Open(u32),
    /// Folded and freed: closed for good.
    Folded,
}

/// Every causal timeline of one registry still readable: the open ones,
/// and the folded ones too if it keeps them.
pub(crate) struct TimelineStore {
    /// Leave folded timelines where they are rather than free them.
    keep: bool,
    /// The place of causal id `base + k` at index `k`.
    index: VecDeque<Place>,
    /// The first id of the window; every id below it is closed but for
    /// the stragglers. It moves only while the store frees.
    base: u64,
    /// Open timelines below `base`, as `(causal id, buffer)`, ascending.
    stragglers: Vec<(u64, u32)>,
    /// Every timeline's buffer. The ones listed in `free` are free, and
    /// each still holds the timeline last folded from it until it is taken
    /// again: its fold reads it there.
    buffers: Vec<Vec<(Stage, SimTime)>>,
    free: Vec<u32>,
    /// Every distinct stage sequence folded so far, in first-fold order.
    shapes: Vec<Box<[Stage]>>,
}

impl Default for TimelineStore {
    fn default() -> TimelineStore {
        TimelineStore {
            keep: false,
            index: VecDeque::new(),
            base: 1,
            stragglers: Vec::new(),
            buffers: Vec::new(),
            free: Vec::new(),
            shapes: Vec::new(),
        }
    }
}

fn word(n: usize) -> u32 {
    u32::try_from(n).expect("timeline store overflow")
}

/// The id of the shape `stamps` has, interned into `shapes` if it is new.
fn intern_shape(shapes: &mut Vec<Box<[Stage]>>, stamps: &Timeline) -> u32 {
    let same = |shape: &[Stage]| {
        shape.len() == stamps.len() && shape.iter().zip(stamps).all(|(&a, &(b, _))| a == b)
    };
    if let Some(id) = shapes.iter().position(|shape| same(shape)) {
        return word(id);
    }
    // Shapes are few and come rarely: the table grows by one each time.
    shapes.reserve_exact(1);
    shapes.push(stamps.iter().map(|&(stage, _)| stage).collect());
    word(shapes.len() - 1)
}

impl TimelineStore {
    /// Keeps every timeline folded from now on where it is, readable,
    /// instead of freeing it.
    pub(crate) fn keep(&mut self) {
        self.keep = true;
    }

    /// Where `causal` lives in the window (`None` below it: 0, the
    /// "untracked" id, is always below).
    #[inline]
    fn window_index(&self, causal: u64) -> Option<usize> {
        usize::try_from(causal.checked_sub(self.base)?).ok()
    }

    /// Where the straggler `causal` is in `stragglers`.
    fn straggler(&self, causal: u64) -> Option<usize> {
        self.stragglers.binary_search_by_key(&causal, |&(c, _)| c).ok()
    }

    fn place(&self, causal: u64) -> Place {
        match self.window_index(causal) {
            Some(i) => self.index.get(i).copied().unwrap_or(Place::Empty),
            None => self
                .straggler(causal)
                .map_or(Place::Empty, |at| Place::Open(self.stragglers[at].1)),
        }
    }

    /// One message's timeline (`None` for an id never marked or folded
    /// and freed).
    pub(crate) fn get(&self, causal: u64) -> Option<&Timeline> {
        match self.place(causal) {
            Place::Open(buffer) => Some(&self.buffers[buffer as usize]),
            Place::Empty | Place::Folded => None,
        }
    }

    /// All readable timelines, in ascending causal-id order: the
    /// stragglers, then the window.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Timeline)> + '_ {
        let buffer = |buffer: u32| &self.buffers[buffer as usize][..];
        let stragglers = self.stragglers.iter().map(move |&(c, b)| (c, buffer(b)));
        let window = (self.base..)
            .zip(&self.index)
            .filter_map(move |(c, &place)| match place {
                Place::Open(b) => Some((c, buffer(b))),
                Place::Empty | Place::Folded => None,
            });
        stragglers.chain(window)
    }

    /// When `stage` is stamped on message `causal`, read in place.
    pub(crate) fn stamp(&self, causal: u64, stage: Stage) -> Option<SimTime> {
        let tl = self.get(causal)?;
        tl.iter().find(|&&(s, _)| s == stage).map(|&(_, t)| t)
    }

    /// A free buffer, emptied of the timeline it last held, made if there
    /// is none.
    fn take_buffer(&mut self) -> u32 {
        match self.free.pop() {
            Some(buffer) => {
                self.buffers[buffer as usize].clear();
                buffer
            }
            None => {
                self.buffers.push(Vec::new());
                word(self.buffers.len() - 1)
            }
        }
    }

    /// Stamps `stage` at `t` on message `causal`, overwriting an earlier
    /// stamp of the same stage. Opens the timeline if it was never marked;
    /// a freed one (below the window, or folded) is left as it is.
    pub(crate) fn mark(&mut self, causal: u64, stage: Stage, t: SimTime) {
        let buffer = match self.window_index(causal) {
            Some(i) => {
                if i >= self.index.len() {
                    self.index.resize(i + 1, Place::Empty);
                }
                match self.index[i] {
                    Place::Open(buffer) => buffer,
                    Place::Folded => return,
                    Place::Empty => {
                        let buffer = self.take_buffer();
                        self.index[i] = Place::Open(buffer);
                        buffer
                    }
                }
            }
            None => match self.straggler(causal) {
                Some(at) => self.stragglers[at].1,
                None => return,
            },
        };
        let tl = &mut self.buffers[buffer as usize];
        match tl.iter_mut().find(|(s, _)| *s == stage) {
            Some(slot) => slot.1 = t,
            None => tl.push((stage, t)),
        }
    }

    /// Closes message `causal`'s timeline for its fold and returns it with
    /// its shape's id: frees it, unless the store keeps timelines, which
    /// leaves it where it is. `None` for an id never marked or already
    /// freed.
    pub(crate) fn close(&mut self, causal: u64) -> Option<(u32, &Timeline)> {
        let Place::Open(buffer) = self.place(causal) else {
            return None;
        };
        if !self.keep {
            self.free_folded(causal, buffer);
        }
        let tl = &self.buffers[buffer as usize];
        Some((intern_shape(&mut self.shapes, tl), tl))
    }

    /// Frees open timeline `causal`, held in `buffer`: a folded tombstone
    /// in the window, or off the stragglers. Then moves the window's front
    /// up to the oldest open id, and past old open ones too while the
    /// window is longer than twice the open timelines plus
    /// [`WINDOW_SLACK`].
    fn free_folded(&mut self, causal: u64, buffer: u32) {
        match self.window_index(causal) {
            Some(i) => self.index[i] = Place::Folded,
            None => {
                let at = self.straggler(causal).expect("an open straggler");
                self.stragglers.remove(at);
            }
        }
        self.free.push(buffer);
        let live = self.buffers.len() - self.free.len();
        while let Some(&front) = self.index.front() {
            match front {
                Place::Open(_) if self.index.len() <= 2 * live + WINDOW_SLACK => break,
                Place::Open(old) => self.stragglers.push((self.base, old)),
                Place::Empty | Place::Folded => {}
            }
            self.index.pop_front();
            self.base += 1;
        }
    }

    /// Bytes the store holds, counted by capacity: the index, the buffers,
    /// their free list and the stragglers, and the shape table.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let index = self.index.capacity() * size_of::<Place>();
        let buffers = self.buffers.capacity() * size_of::<Vec<(Stage, SimTime)>>()
            + self
                .buffers
                .iter()
                .map(|b| b.capacity() * size_of::<(Stage, SimTime)>())
                .sum::<usize>()
            + self.free.capacity() * size_of::<u32>()
            + self.stragglers.capacity() * size_of::<(u64, u32)>();
        let shapes = self.shapes.capacity() * size_of::<Box<[Stage]>>()
            + self
                .shapes
                .iter()
                .map(|s| s.len() * size_of::<Stage>())
                .sum::<usize>();
        index + buffers + shapes
    }

    /// Shapes interned so far.
    #[cfg(test)]
    pub(crate) fn shapes(&self) -> usize {
        self.shapes.len()
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

    /// Situations the store's model test must reach, over all cases.
    #[derive(Default, Debug)]
    struct Reached {
        straggler_made: u32,
        straggler_marked: u32,
        straggler_closed: u32,
        mark_on_folded: u32,
        mark_below_window: u32,
        second_close: u32,
        kept_mark_after_close: u32,
        kept_second_close: u32,
    }

    #[test]
    fn a_freeing_store_matches_a_naive_model() {
        // Ids are first marked in the order they are made, as the registry's
        // callers do (`next_causal`, then a mark in the same visit); after
        // that any id is marked or closed at random, the newest open one
        // more often, so that old ones linger and fall behind the window.
        let stages = ["free.a", "free.b", "free.c", "free.d"].map(Stage::intern);
        let reached = std::cell::RefCell::new(Reached::default());
        crate::prop::check("a_freeing_store_matches_a_naive_model", 200, |g| {
            let keep = g.bool();
            let mut store = TimelineStore::default();
            if keep {
                store.keep();
            }
            // Per id (from 1): `Some(stamps)` while readable, `None` once
            // freed; and whether it was closed.
            let mut model: Vec<Option<Vec<(Stage, SimTime)>>> = Vec::new();
            let mut closed: Vec<bool> = Vec::new();
            let mut reached = reached.borrow_mut();
            // How often, in sixteenths, a close takes another id than the
            // newest open one: at 0, every id left open lingers for good.
            let spread = g.range(0..=4);
            for _ in 0..g.range(0..400) {
                let stage = *g.pick(&stages);
                let at = t(g.range(0..100));
                let newest_open = model.iter().rposition(Option::is_some);
                let oldest_open = model.iter().position(Option::is_some);
                // The newest open id, the oldest (a straggler, once the
                // window left it behind) or any id at all.
                let pick = |g: &mut crate::prop::Gen, n: usize| {
                    match (g.range(0..4), newest_open, oldest_open) {
                        (0 | 1, Some(i), _) | (2, _, Some(i)) => i,
                        _ => g.range(0..n as u64) as usize,
                    }
                };
                match g.range(0..10) {
                    0..=3 => {
                        store.mark(model.len() as u64 + 1, stage, at);
                        model.push(Some(vec![(stage, at)]));
                        closed.push(false);
                    }
                    4..=5 if !model.is_empty() => {
                        let i = pick(g, model.len());
                        let causal = i as u64 + 1;
                        if store.straggler(causal).is_some() {
                            reached.straggler_marked += 1;
                        }
                        if model[i].is_none() {
                            match store.window_index(causal) {
                                Some(_) => reached.mark_on_folded += 1,
                                None => reached.mark_below_window += 1,
                            }
                        }
                        let before = store.place(causal);
                        store.mark(causal, stage, at);
                        if keep && closed[i] {
                            reached.kept_mark_after_close += 1;
                            assert_eq!(store.place(causal), before, "in place");
                        }
                        if let Some(tl) = &mut model[i] {
                            match tl.iter_mut().find(|(s, _)| *s == stage) {
                                Some(slot) => slot.1 = at,
                                None => tl.push((stage, at)),
                            }
                        }
                    }
                    _ if !model.is_empty() => {
                        let i = match newest_open {
                            Some(i) if g.range(0..16) >= spread => i,
                            _ => pick(g, model.len()),
                        };
                        let causal = i as u64 + 1;
                        if store.straggler(causal).is_some() {
                            reached.straggler_closed += 1;
                        }
                        let stragglers = store.stragglers.len();
                        let got: Option<(u32, Vec<(Stage, SimTime)>)> =
                            store.close(causal).map(|(shape, tl)| (shape, tl.to_vec()));
                        if let Some((shape, tl)) = &got {
                            let stages: Vec<Stage> = tl.iter().map(|&(s, _)| s).collect();
                            assert_eq!(*store.shapes[*shape as usize], stages[..], "shape");
                        }
                        let got = got.map(|(_, tl)| tl);
                        let want = if keep {
                            model[i].clone()
                        } else {
                            model[i].take()
                        };
                        match (keep, closed[i]) {
                            (true, true) => reached.kept_second_close += 1,
                            (false, _) if want.is_none() => reached.second_close += 1,
                            (false, _) if store.stragglers.len() > stragglers => {
                                reached.straggler_made += 1
                            }
                            _ => {}
                        }
                        closed[i] = true;
                        assert_eq!(got, want, "causal {causal}");
                        if !keep {
                            let live = store.buffers.len() - store.free.len();
                            assert!(store.index.len() <= 2 * live + WINDOW_SLACK, "window");
                            assert!(matches!(store.index.front(), None | Some(Place::Open(_))));
                        }
                    }
                    _ => {}
                }
                let readable: Vec<(u64, Vec<(Stage, SimTime)>)> = model
                    .iter()
                    .enumerate()
                    .filter_map(|(i, tl)| Some((i as u64 + 1, tl.clone()?)))
                    .collect();
                let got: Vec<(u64, Vec<(Stage, SimTime)>)> =
                    store.iter().map(|(c, tl)| (c, tl.to_vec())).collect();
                assert_eq!(got, readable);
                if keep {
                    assert_eq!(readable.len(), model.len(), "every marked id");
                    assert_eq!((store.base, store.stragglers.len()), (1, 0), "window moved");
                }
                for (i, tl) in model.iter().enumerate() {
                    for &stage in &stages {
                        let want = tl
                            .as_ref()
                            .and_then(|tl| tl.iter().find(|&&(s, _)| s == stage))
                            .map(|&(_, at)| at);
                        assert_eq!(store.stamp(i as u64 + 1, stage), want);
                    }
                }
                assert!(store.stragglers.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(store.stragglers.iter().all(|&(c, _)| c < store.base));
            }
        });
        let reached = reached.into_inner();
        assert!(reached.straggler_made > 0, "{reached:?}");
        assert!(reached.straggler_marked > 0, "{reached:?}");
        assert!(reached.straggler_closed > 0, "{reached:?}");
        assert!(reached.mark_on_folded > 0, "{reached:?}");
        assert!(reached.mark_below_window > 0, "{reached:?}");
        assert!(reached.second_close > 0, "{reached:?}");
        assert!(reached.kept_mark_after_close > 0, "{reached:?}");
        assert!(reached.kept_second_close > 0, "{reached:?}");
    }
}
