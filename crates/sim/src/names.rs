//! Values keyed by `&'static str` name, shared by the always-on counters
//! of the [`crate::Tracer`] and the [`crate::MetricsRegistry`], and by the
//! registry's map from a causal stage name to its [`crate::Stage`].
//!
//! Every writer passes a string literal, so a name is resolved by its
//! *address*: a scan of the few pointer-and-length pairs seen so far, with
//! no string compare. A table holds a handful of names (at most 11 on any
//! benchmark workload: the causal stages), so the scan costs about what a
//! hash and a probe would. Only an address never seen before takes the
//! slow path: a binary search by text in the sorted index the readers
//! iterate, so the same text reached through a second literal (one per
//! crate or codegen unit) lands in the same slot.

/// Values keyed by `&'static str` name: O(1) update by the name's address,
/// sorted iteration and lookup by text for the readers.
pub(crate) struct NameTable<T> {
    /// One entry per distinct name, in first-write order.
    slots: Vec<(&'static str, T)>,
    /// Every distinct *address* a name was written through → its slot. The
    /// same text can live at more than one address (one literal per crate or
    /// codegen unit); each is remembered so it takes the slow path once.
    by_addr: Vec<(&'static str, u32)>,
    /// Slot indices ordered by name.
    sorted: Vec<u32>,
}

impl<T> Default for NameTable<T> {
    fn default() -> NameTable<T> {
        NameTable {
            slots: Vec::new(),
            by_addr: Vec::new(),
            sorted: Vec::new(),
        }
    }
}

impl<T: Default> NameTable<T> {
    /// The value for `name`, created (default) on its first write.
    pub(crate) fn slot(&mut self, name: &'static str) -> &mut T {
        self.slot_with(name, T::default)
    }
}

impl<T> NameTable<T> {
    /// The value for `name`, created by `make` the first time its text is
    /// seen.
    pub(crate) fn slot_with(&mut self, name: &'static str, make: impl FnOnce() -> T) -> &mut T {
        let i = self.index_with(name, make);
        &mut self.slots[i as usize].1
    }

    /// Where `name`'s value lives, for [`NameTable::at_mut`]: created by
    /// `make` the first time its text is seen, and never moved after.
    pub(crate) fn index_with(&mut self, name: &'static str, make: impl FnOnce() -> T) -> u32 {
        let hit = self.by_addr.iter().find(|(n, _)| std::ptr::eq(*n, name));
        match hit {
            Some(&(_, i)) => i,
            None => {
                let i = match self.position(name) {
                    Ok(pos) => self.sorted[pos],
                    Err(pos) => {
                        let i = u32::try_from(self.slots.len()).expect("metric name overflow");
                        self.slots.push((name, make()));
                        self.sorted.insert(pos, i);
                        i
                    }
                };
                self.by_addr.push((name, i));
                i
            }
        }
    }

    /// The value at `i`, an index [`NameTable::index_with`] returned since
    /// the last [`NameTable::clear`].
    pub(crate) fn at_mut(&mut self, i: u32) -> &mut T {
        &mut self.slots[i as usize].1
    }

    /// Where `name` is (`Ok`) or belongs (`Err`) in `sorted`.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&i| self.slots[i as usize].0.cmp(name))
    }

    /// The value stored under `name`'s text, if it was ever written.
    pub(crate) fn get(&self, name: &str) -> Option<&T> {
        let pos = self.position(name).ok()?;
        Some(&self.slots[self.sorted[pos] as usize].1)
    }

    /// All entries, sorted by name.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.sorted.iter().map(|&i| {
            let (name, v) = &self.slots[i as usize];
            (*name, v)
        })
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Forgets every name, every remembered address and every value.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.by_addr.clear();
        self.sorted.clear();
    }
}
