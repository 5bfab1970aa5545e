//! Process-wide name interning: each distinct name gets a dense `u32` id
//! and one `&'static str`, once. Each thread keeps a copy of the table and
//! tops it up only when the global table has grown, so a lookup, hit or
//! miss, takes no lock in the steady state. Ids follow the order in which
//! threads first meet names, which varies under parallel work: persist
//! names, never ids.
//!
//! ```
//! use std::cell::RefCell;
//! use netsim::{Interner, NameTable};
//!
//! thread_local! {
//!     static LOCAL: RefCell<NameTable> = RefCell::default();
//! }
//! static NAMES: Interner = Interner::new(&LOCAL);
//!
//! let id = NAMES.id("hello");
//! assert_eq!((NAMES.id("hello"), NAMES.name(id)), (id, "hello"));
//! assert!(NAMES.count() > id as usize);
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::thread::LocalKey;

/// One copy of an interner's table: the global one, or a thread's.
#[derive(Default)]
pub struct NameTable {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

impl NameTable {
    /// Copies the entries of `global` this copy lacks. Entries never
    /// change once made, so a copy is always a prefix of the global table.
    fn top_up(&mut self, global: &NameTable) {
        for (id, &name) in global.names.iter().enumerate().skip(self.names.len()) {
            self.by_name.insert(name, id as u32);
            self.names.push(name);
        }
    }
}

/// A process-wide name ↔ id table with per-thread copies (the module docs
/// show how to declare one).
pub struct Interner {
    global: OnceLock<RwLock<NameTable>>,
    /// The global table's length, so a copy can tell it is current
    /// without taking the lock. Stored with `Release` after an entry is
    /// in the table and loaded with `Acquire`, so a thread that sees
    /// length n finds n entries when it takes the read lock.
    count: AtomicUsize,
    local: &'static LocalKey<RefCell<NameTable>>,
}

impl Interner {
    /// An empty interner whose per-thread copies live in `local`.
    #[must_use]
    pub const fn new(local: &'static LocalKey<RefCell<NameTable>>) -> Self {
        Interner {
            global: OnceLock::new(),
            count: AtomicUsize::new(0),
            local,
        }
    }

    fn global(&self) -> &RwLock<NameTable> {
        self.global.get_or_init(RwLock::default)
    }

    fn read(&self) -> RwLockReadGuard<'_, NameTable> {
        self.global().read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The id of `name`, assigning the next one (and keeping a copy of the
    /// name) on first use.
    pub fn id(&self, name: &str) -> u32 {
        self.find(name)
            .unwrap_or_else(|| self.assign(name, || Box::leak(name.into())))
    }

    /// [`id`](Self::id) for a name that is already `'static`: nothing is
    /// copied.
    pub(crate) fn id_static(&self, name: &'static str) -> u32 {
        self.find(name)
            .unwrap_or_else(|| self.assign(name, || name))
    }

    fn assign(&self, name: &str, keep: impl FnOnce() -> &'static str) -> u32 {
        let mut table = self
            .global()
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Another thread may have assigned it since `find` looked.
        if let Some(&id) = table.by_name.get(name) {
            return id;
        }
        let id = u32::try_from(table.names.len()).expect("intern table overflow");
        let name = keep();
        table.names.push(name);
        table.by_name.insert(name, id);
        self.count.store(table.names.len(), Ordering::Release);
        id
    }

    /// The id of `name` if some thread has assigned one, without assigning.
    pub(crate) fn find(&self, name: &str) -> Option<u32> {
        // A thread being torn down reads the global table instead.
        self.local
            .try_with(|local| {
                let mut local = local.borrow_mut();
                if let Some(&id) = local.by_name.get(name) {
                    return Some(id);
                }
                if local.names.len() == self.count() {
                    return None;
                }
                local.top_up(&self.read());
                local.by_name.get(name).copied()
            })
            .unwrap_or_else(|_| self.read().by_name.get(name).copied())
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if no name has that id.
    #[must_use]
    pub fn name(&self, id: u32) -> &'static str {
        let i = id as usize;
        self.local
            .try_with(|local| {
                let mut local = local.borrow_mut();
                if i >= local.names.len() {
                    local.top_up(&self.read());
                }
                local.names[i]
            })
            .unwrap_or_else(|_| self.read().names[i])
    }

    /// The number of names interned so far: every id is below it.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }
}
