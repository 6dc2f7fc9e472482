//! Intrusive doubly-linked thread queues (the paper's Figure 9).
//!
//! NCS_MTS keeps its runnable threads in a multilevel priority queue —
//! one circular doubly-linked list per priority — and its blocked threads
//! in a doubly-linked *blocked queue* "to speed up search during
//! unblocking". We reproduce the structure: every thread owns one pair of
//! `prev`/`next` links in a shared [`LinkArena`], and each queue is a
//! [`ListHead`] threading through them. All operations are O(1), including
//! removing a thread from the middle of the blocked queue.
//!
//! A thread can be on at most one list at a time (its scheduling states are
//! mutually exclusive), which is what makes the intrusive sharing sound;
//! the arena enforces it with debug assertions.

/// Index of a thread's link node (the MTS thread id).
pub type Slot = u32;

#[derive(Clone, Copy, Debug, Default)]
struct Links {
    prev: Option<Slot>,
    next: Option<Slot>,
    on_list: bool,
}

/// Shared storage of per-thread links.
#[derive(Default, Debug)]
pub struct LinkArena {
    links: Vec<Links>,
}

impl LinkArena {
    /// Creates an empty arena.
    pub fn new() -> LinkArena {
        LinkArena::default()
    }

    /// Registers one more thread; returns its slot.
    pub fn add_slot(&mut self) -> Slot {
        self.links.push(Links::default());
        (self.links.len() - 1) as Slot
    }

    /// Number of registered slots.
    pub fn slots(&self) -> usize {
        self.links.len()
    }

    /// Whether `s` is currently on some list.
    pub fn on_list(&self, s: Slot) -> bool {
        self.links[s as usize].on_list
    }

    /// The raw `(prev, next)` links of `s` (queue-invariant validation).
    pub fn prev_next(&self, s: Slot) -> (Option<Slot>, Option<Slot>) {
        let l = &self.links[s as usize];
        (l.prev, l.next)
    }
}

/// Head/tail of one doubly-linked queue.
#[derive(Clone, Copy, Debug, Default)]
pub struct ListHead {
    head: Option<Slot>,
    tail: Option<Slot>,
    len: usize,
}

impl ListHead {
    /// An empty list.
    pub fn new() -> ListHead {
        ListHead::default()
    }

    /// Number of queued slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The front slot, if any.
    pub fn front(&self) -> Option<Slot> {
        self.head
    }

    /// Appends `s` at the tail. Panics (debug) if `s` is already queued.
    pub fn push_back(&mut self, arena: &mut LinkArena, s: Slot) {
        let l = &mut arena.links[s as usize];
        debug_assert!(!l.on_list, "slot {s} already on a list");
        l.on_list = true;
        l.prev = self.tail;
        l.next = None;
        match self.tail {
            Some(t) => arena.links[t as usize].next = Some(s),
            None => self.head = Some(s),
        }
        self.tail = Some(s);
        self.len += 1;
    }

    /// Removes and returns the front slot.
    pub fn pop_front(&mut self, arena: &mut LinkArena) -> Option<Slot> {
        let s = self.head?;
        self.unlink(arena, s);
        Some(s)
    }

    /// Removes `s` from anywhere in the list (the blocked-queue unblock
    /// path). Panics (debug) if `s` is not queued.
    pub fn unlink(&mut self, arena: &mut LinkArena, s: Slot) {
        let (prev, next) = {
            let l = &mut arena.links[s as usize];
            debug_assert!(l.on_list, "slot {s} not on this list");
            l.on_list = false;
            let pn = (l.prev, l.next);
            l.prev = None;
            l.next = None;
            pn
        };
        match prev {
            Some(p) => arena.links[p as usize].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => arena.links[n as usize].prev = prev,
            None => self.tail = prev,
        }
        self.len -= 1;
    }

    /// Walks the whole list checking the structural invariants that the
    /// debug assertions only probe pointwise: every linked slot is marked
    /// on a list, back-links mirror forward links (what makes O(1)
    /// [`ListHead::unlink`] sound), the walk terminates within the arena
    /// size (no circularity), and the cached length is accurate.
    ///
    /// Returns the slots front-to-back on success, or a description of the
    /// first corruption found. This is the promoted, always-available form
    /// of the queue invariants; the runtime analysis pass runs it after
    /// scheduling operations when enabled.
    pub fn validate(&self, arena: &LinkArena) -> Result<Vec<Slot>, String> {
        let cap = arena.slots();
        let mut seen: Vec<Slot> = Vec::new();
        let mut prev: Option<Slot> = None;
        let mut cur = self.head;
        while let Some(s) = cur {
            if seen.len() >= cap {
                return Err(format!(
                    "list is circular: walked {} slots in an arena of {cap}",
                    seen.len() + 1
                ));
            }
            if (s as usize) >= cap {
                return Err(format!("slot {s} is outside the arena of {cap}"));
            }
            if !arena.on_list(s) {
                return Err(format!("slot {s} is linked but not marked on a list"));
            }
            let (p, n) = arena.prev_next(s);
            if p != prev {
                return Err(format!(
                    "slot {s} back-link {p:?} does not match predecessor {prev:?}"
                ));
            }
            seen.push(s);
            prev = Some(s);
            cur = n;
        }
        if self.tail != prev {
            return Err(format!(
                "tail {:?} does not match last walked slot {prev:?}",
                self.tail
            ));
        }
        if self.len != seen.len() {
            return Err(format!(
                "cached length {} does not match walked length {}",
                self.len,
                seen.len()
            ));
        }
        Ok(seen)
    }

    /// Iterates front-to-back (diagnostics and tests).
    pub fn iter<'a>(&self, arena: &'a LinkArena) -> ListIter<'a> {
        ListIter {
            arena,
            cur: self.head,
        }
    }
}

/// Iterator over a list's slots.
pub struct ListIter<'a> {
    arena: &'a LinkArena,
    cur: Option<Slot>,
}

impl Iterator for ListIter<'_> {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        let s = self.cur?;
        self.cur = self.arena.links[s as usize].next;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(l: &ListHead, a: &LinkArena) -> Vec<Slot> {
        l.iter(a).collect()
    }

    #[test]
    fn push_pop_fifo() {
        let mut a = LinkArena::new();
        let s: Vec<Slot> = (0..5).map(|_| a.add_slot()).collect();
        let mut l = ListHead::new();
        for &x in &s {
            l.push_back(&mut a, x);
        }
        assert_eq!(collect(&l, &a), s);
        for &x in &s {
            assert_eq!(l.pop_front(&mut a), Some(x));
        }
        assert!(l.is_empty());
        assert_eq!(l.pop_front(&mut a), None);
    }

    #[test]
    fn unlink_middle() {
        let mut a = LinkArena::new();
        let s: Vec<Slot> = (0..5).map(|_| a.add_slot()).collect();
        let mut l = ListHead::new();
        for &x in &s {
            l.push_back(&mut a, x);
        }
        l.unlink(&mut a, s[2]);
        assert_eq!(collect(&l, &a), vec![s[0], s[1], s[3], s[4]]);
        l.unlink(&mut a, s[0]);
        l.unlink(&mut a, s[4]);
        assert_eq!(collect(&l, &a), vec![s[1], s[3]]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn slot_reusable_across_lists() {
        let mut a = LinkArena::new();
        let s = a.add_slot();
        let mut run = ListHead::new();
        let mut blocked = ListHead::new();
        run.push_back(&mut a, s);
        assert!(a.on_list(s));
        run.unlink(&mut a, s);
        assert!(!a.on_list(s));
        blocked.push_back(&mut a, s);
        assert_eq!(collect(&blocked, &a), vec![s]);
        assert!(run.is_empty());
    }

    #[test]
    fn round_robin_rotation() {
        // pop front, push back: the paper's within-priority round robin.
        let mut a = LinkArena::new();
        let s: Vec<Slot> = (0..3).map(|_| a.add_slot()).collect();
        let mut l = ListHead::new();
        for &x in &s {
            l.push_back(&mut a, x);
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let x = l.pop_front(&mut a).unwrap();
            order.push(x);
            l.push_back(&mut a, x);
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn validate_accepts_well_formed_lists() {
        let mut a = LinkArena::new();
        let s: Vec<Slot> = (0..5).map(|_| a.add_slot()).collect();
        let mut l = ListHead::new();
        assert_eq!(l.validate(&a).unwrap(), Vec::<Slot>::new());
        for &x in &s {
            l.push_back(&mut a, x);
        }
        assert_eq!(l.validate(&a).unwrap(), s);
        l.unlink(&mut a, s[2]);
        assert_eq!(l.validate(&a).unwrap(), vec![s[0], s[1], s[3], s[4]]);
    }

    #[test]
    fn validate_reports_corruption() {
        // The test module sees private fields, so it can corrupt a list in
        // ways safe callers cannot — exactly what validate() must catch.
        let mut a = LinkArena::new();
        let s: Vec<Slot> = (0..3).map(|_| a.add_slot()).collect();
        let mut l = ListHead::new();
        for &x in &s {
            l.push_back(&mut a, x);
        }
        // Cached length drifts.
        let mut bad = l;
        bad.len = 5;
        assert!(bad.validate(&a).unwrap_err().contains("length"));
        // Back-link broken (O(1) unlink would corrupt the queue).
        let mut a2 = LinkArena::new();
        for _ in 0..3 {
            a2.add_slot();
        }
        let mut l2 = ListHead::new();
        for &x in &s {
            l2.push_back(&mut a2, x);
        }
        a2.links[2].prev = Some(0);
        assert!(l2.validate(&a2).unwrap_err().contains("back-link"));
        // Circular list terminates with an error instead of hanging.
        let mut a3 = LinkArena::new();
        for _ in 0..2 {
            a3.add_slot();
        }
        let mut l3 = ListHead::new();
        l3.push_back(&mut a3, 0);
        l3.push_back(&mut a3, 1);
        a3.links[1].next = Some(0);
        assert!(l3.validate(&a3).unwrap_err().contains("circular"));
        // Linked slot not marked on a list.
        let mut a4 = LinkArena::new();
        for _ in 0..2 {
            a4.add_slot();
        }
        let mut l4 = ListHead::new();
        l4.push_back(&mut a4, 0);
        l4.push_back(&mut a4, 1);
        a4.links[1].on_list = false;
        assert!(l4.validate(&a4).unwrap_err().contains("not marked"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already on a list")]
    fn double_insert_caught() {
        let mut a = LinkArena::new();
        let s = a.add_slot();
        let mut l = ListHead::new();
        l.push_back(&mut a, s);
        l.push_back(&mut a, s);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use ncs_sim::prop;
    use std::collections::VecDeque;

    #[derive(Clone, Debug)]
    enum Op {
        PushBack(u8),
        PopFront,
        Unlink(u8),
    }

    fn op(g: &mut prop::Gen) -> Op {
        match g.range(0..3) {
            0 => Op::PushBack(g.range(0..16) as u8),
            1 => Op::PopFront,
            _ => Op::Unlink(g.range(0..16) as u8),
        }
    }

    /// The intrusive list behaves exactly like a VecDeque model under
    /// arbitrary push/pop/unlink sequences.
    #[test]
    fn matches_vecdeque_model() {
        prop::check("matches_vecdeque_model", 256, |g| {
            let ops = g.vec(0..200, op);
            let mut arena = LinkArena::new();
            for _ in 0..16 {
                arena.add_slot();
            }
            let mut list = ListHead::new();
            let mut model: VecDeque<Slot> = VecDeque::new();
            for op in ops {
                match op {
                    Op::PushBack(s) => {
                        let s = Slot::from(s);
                        if !model.contains(&s) {
                            list.push_back(&mut arena, s);
                            model.push_back(s);
                        }
                    }
                    Op::PopFront => {
                        assert_eq!(list.pop_front(&mut arena), model.pop_front());
                    }
                    Op::Unlink(s) => {
                        let s = Slot::from(s);
                        if let Some(pos) = model.iter().position(|&x| x == s) {
                            list.unlink(&mut arena, s);
                            model.remove(pos);
                        }
                    }
                }
                assert_eq!(list.len(), model.len());
                let got: Vec<Slot> = list.iter(&arena).collect();
                let want: Vec<Slot> = model.iter().copied().collect();
                assert_eq!(got, want);
            }
        });
    }
}
