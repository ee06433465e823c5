//! Always-on counter tables for long-running processes.
//!
//! The global recorder is drain-on-finish: right for a batch run, wrong
//! for a daemon whose `/metrics` endpoint must answer at any moment
//! without destroying state. A [`Counters`] table is the live
//! alternative. A row enum names the series once, in a static
//! [`CounterRow::TABLE`], and the table holds one relaxed atomic per
//! row. Increments are mirrored into the gated global recorder for the
//! rows that ask for it, so `--trace` runs see the same series.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Trace;

/// One row of a counter table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Series {
    /// Dotted series name (`serve.shed`), exported to Prometheus as
    /// `xring_serve_shed_total`.
    pub name: &'static str,
    /// Whether [`Counters::add`] also forwards the increment to the
    /// global recorder ([`crate::counter`]).
    pub forward: bool,
}

impl Series {
    /// A row whose increments also reach the global recorder.
    pub const fn forwarded(name: &'static str) -> Self {
        Series {
            name,
            forward: true,
        }
    }

    /// A row kept only in its table.
    pub const fn local(name: &'static str) -> Self {
        Series {
            name,
            forward: false,
        }
    }
}

/// A type naming the rows of one static counter table, usually an enum.
pub trait CounterRow: Copy {
    /// Every row, in exposition order.
    const TABLE: &'static [Series];
    /// This row's position in [`Self::TABLE`].
    fn index(self) -> usize;
}

/// Live counters: one relaxed atomic slot per row of `R::TABLE`.
pub struct Counters<R: CounterRow> {
    slots: Box<[AtomicU64]>,
    rows: PhantomData<R>,
}

impl<R: CounterRow> Counters<R> {
    /// A table with every row at zero.
    pub fn new() -> Self {
        Counters {
            slots: R::TABLE.iter().map(|_| AtomicU64::new(0)).collect(),
            rows: PhantomData,
        }
    }

    /// Adds `delta` to `row`, and to the global recorder when the row is
    /// forwarded (a no-op there unless tracing is live).
    pub fn add(&self, row: R, delta: u64) {
        let i = row.index();
        self.slots[i].fetch_add(delta, Ordering::Relaxed);
        let series = R::TABLE[i];
        if series.forward {
            crate::counter(series.name, delta);
        }
    }

    /// The current value of `row`.
    pub fn get(&self, row: R) -> u64 {
        self.slots[row.index()].load(Ordering::Relaxed)
    }

    /// Appends every row, zero rows included, in table order to the
    /// trace's totals. Scrapers want stable series, and "shed 0" is
    /// information.
    pub fn append_to(&self, trace: &mut Trace) {
        trace.totals.extend(
            R::TABLE
                .iter()
                .zip(self.slots.iter())
                .map(|(s, v)| (s.name.to_owned(), v.load(Ordering::Relaxed))),
        );
    }
}

impl<R: CounterRow> Default for Counters<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: CounterRow> fmt::Debug for Counters<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(
                R::TABLE
                    .iter()
                    .zip(self.slots.iter())
                    .map(|(s, v)| (s.name, v.load(Ordering::Relaxed))),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy)]
    enum Row {
        Kept,
        Mirrored,
    }

    impl CounterRow for Row {
        const TABLE: &'static [Series] =
            &[Series::local("t.kept"), Series::forwarded("t.mirrored")];
        fn index(self) -> usize {
            self as usize
        }
    }

    #[test]
    fn rows_count_locally_and_forward_only_when_asked() {
        let _lock = crate::test_guard();
        crate::start();
        let c = Counters::<Row>::new();
        c.add(Row::Kept, 2);
        c.add(Row::Mirrored, 3);
        c.add(Row::Mirrored, 1);
        let global = crate::finish();
        assert_eq!((c.get(Row::Kept), c.get(Row::Mirrored)), (2, 4));
        assert_eq!(global.total("t.kept"), 0);
        assert_eq!(global.total("t.mirrored"), 4);
    }

    #[test]
    fn append_keeps_table_order_and_zero_rows() {
        // `t.mirrored` forwards to the global recorder; serialize with
        // the test above, whose trace window would otherwise count it.
        let _lock = crate::test_guard();
        let c = Counters::<Row>::new();
        c.add(Row::Mirrored, 5);
        let mut trace = Trace::default();
        c.append_to(&mut trace);
        assert_eq!(
            trace.totals,
            [("t.kept".to_owned(), 0), ("t.mirrored".to_owned(), 5)]
        );
    }
}
