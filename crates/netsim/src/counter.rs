//! Dense ids for named statistic counters.
//!
//! A counter is named by a `&'static str` wherever code bumps or reads it,
//! but a [`NodeOs`](crate::NodeOs) keeps its values in a `Vec` indexed by
//! [`CounterId`], so a bump through a cached id is an index, not a hash.
//! Ids come from a process-wide [`Interner`], so they never leave the
//! process: everything reported
//! ([`WorldStats::agent_counters`](crate::WorldStats)) is keyed by name.

use std::cell::RefCell;

use crate::intern::{Interner, NameTable};

thread_local! {
    static LOCAL: RefCell<NameTable> = RefCell::default();
}
static COUNTERS: Interner = Interner::new(&LOCAL);

/// A counter name's dense id: its index in every node's counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

impl CounterId {
    /// The id of `name`, assigning the next free one on first use.
    #[must_use]
    pub fn named(name: &'static str) -> Self {
        CounterId(COUNTERS.id_static(name))
    }

    /// [`named`](Self::named) for a name built at run time, such as a
    /// unit's `bus.<unit>.events_in`: the first use keeps a copy.
    #[must_use]
    pub fn intern(name: &str) -> Self {
        CounterId(COUNTERS.id(name))
    }

    /// The id of `name` if some thread has assigned one, without assigning.
    pub(crate) fn find(name: &str) -> Option<Self> {
        COUNTERS.find(name).map(CounterId)
    }

    /// The counter's name.
    pub(crate) fn name(self) -> &'static str {
        COUNTERS.name(self.0)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node's counter values, indexed by [`CounterId`]. A counter is
/// present once bumped, even by zero, so reports can list it at 0.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    values: Vec<Option<u64>>,
}

impl Counters {
    #[inline]
    pub(crate) fn bump(&mut self, id: CounterId, delta: u64) {
        let i = id.index();
        if i >= self.values.len() {
            self.grow(i);
        }
        let value = &mut self.values[i];
        *value = Some(value.unwrap_or(0) + delta);
    }

    /// Makes room for every id assigned so far, so a node's table usually
    /// grows once.
    #[cold]
    fn grow(&mut self, i: usize) {
        self.values.resize(COUNTERS.count().max(i + 1), None);
    }

    pub(crate) fn get(&self, id: CounterId) -> Option<u64> {
        self.values.get(id.index()).copied().flatten()
    }

    /// The present counters, in id order.
    pub(crate) fn present(&self) -> impl Iterator<Item = (CounterId, u64)> + '_ {
        // Every index was an id's, so it fits a `u32`.
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((CounterId(i as u32), (*v)?)))
    }
}
