//! The table catalog: named, versioned relations.
//!
//! SQL identifiers are case-insensitive, so `FROM Recipes R` resolves a
//! table registered as `recipes`. Every mutation (re-registration or
//! in-place edit) stamps the entry with a fresh **version** drawn from
//! one counter that is monotone across the *whole catalog* — never per
//! entry — so a version number is never reused, not even by dropping a
//! table and re-registering another under the same name. The partition
//! cache keys artifacts by version; global monotonicity is what makes a
//! stale partitioning unservable *by construction*: no future table
//! state can ever collide with a version an old artifact was built for.
//!
//! Tables are held as [`Arc<Table>`] so a concurrent reader (an
//! execution planning against a snapshot) can keep the contents alive
//! without holding any catalog lock; in-place mutation is copy-on-write
//! ([`Arc::make_mut`]) and only pays for a clone while snapshots of the
//! previous contents are still live.

use std::collections::BTreeMap;
use std::sync::Arc;

use paq_relational::{Table, Value};

use crate::error::{DbError, DbResult};

/// One registered relation.
#[derive(Debug, Clone)]
pub struct TableEntry {
    name: String,
    table: Arc<Table>,
    version: u64,
    /// Rows `[0, main_rows)` are what a base partitioning covers; rows
    /// past it are the delta absorbed by [`Catalog::append_row`].
    main_rows: u64,
}

impl TableEntry {
    /// The name the table was registered under (original casing).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table contents.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// A shared snapshot of the contents: stays valid (and unchanged)
    /// however the catalog mutates afterwards.
    pub fn snapshot(&self) -> Arc<Table> {
        Arc::clone(&self.table)
    }

    /// Catalog-wide monotone version stamp; a fresh one is drawn on
    /// every mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Row count a base partitioning of this table covers: the whole
    /// table after a registration or an in-place mutation, fewer rows
    /// while appends are being absorbed. WAL replay tracks the same
    /// number (`paq_store::TableImage::main_rows`).
    pub fn main_rows(&self) -> u64 {
        self.main_rows
    }
}

/// Name → table map with case-insensitive resolution.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Keyed by lower-cased name; entries keep the original casing.
    tables: BTreeMap<String, TableEntry>,
    /// Last version handed out. Shared by every entry and never reset:
    /// see the module docs for why drop + re-register must not be able
    /// to reproduce an old version number.
    last_version: u64,
}

impl Catalog {
    /// Canonical catalog key for a relation name.
    pub fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    fn next_version(&mut self) -> u64 {
        self.last_version += 1;
        self.last_version
    }

    /// Register (or replace) a table, returning its new version.
    pub fn register(&mut self, name: impl Into<String>, table: Table) -> u64 {
        let name = name.into();
        let key = Self::key(&name);
        let version = self.next_version();
        self.tables.insert(
            key,
            TableEntry {
                name,
                main_rows: table.num_rows() as u64,
                table: Arc::new(table),
                version,
            },
        );
        version
    }

    /// Remove a table; `Err` if it was never registered. A successful
    /// drop draws a fresh version (returned alongside the removed
    /// entry) even though no entry carries it: a drop is a catalog
    /// mutation like any other, and a durability layer logging
    /// mutations by version needs a distinct stamp for it.
    pub fn drop_table(&mut self, name: &str) -> DbResult<(TableEntry, u64)> {
        let entry = self
            .tables
            .remove(&Self::key(name))
            .ok_or_else(|| self.unknown(name))?;
        let version = self.next_version();
        Ok((entry, version))
    }

    /// Re-insert a table at an explicit `version` and delta base — the
    /// recovery seam. Unlike [`Catalog::register`], no fresh version is
    /// drawn: the entry keeps the stamp it had when it was persisted,
    /// and the catalog-wide counter is floored at it so future
    /// mutations stay globally monotone over everything ever logged.
    pub fn restore(
        &mut self,
        name: impl Into<String>,
        table: Arc<Table>,
        version: u64,
        main_rows: u64,
    ) {
        let name = name.into();
        let key = Self::key(&name);
        self.tables.insert(
            key,
            TableEntry {
                name,
                table,
                version,
                main_rows,
            },
        );
        self.last_version = self.last_version.max(version);
    }

    /// Floor the version counter at `version` (recovery: the persisted
    /// counter may be ahead of every surviving entry, e.g. after drops).
    pub fn ensure_version_floor(&mut self, version: u64) {
        self.last_version = self.last_version.max(version);
    }

    /// Last version handed out (the durability layer's snapshot LSN).
    pub fn last_version(&self) -> u64 {
        self.last_version
    }

    /// Resolve a relation name (case-insensitive).
    pub fn resolve(&self, name: &str) -> DbResult<&TableEntry> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| self.unknown(name))
    }

    /// The current version of the entry under an already-canonical
    /// `key`, or `None` when the table is not registered. Used to
    /// re-check that an artifact built against a snapshot is still
    /// current before publishing it.
    pub fn version_of(&self, key: &str) -> Option<u64> {
        self.tables.get(key).map(|e| e.version)
    }

    /// Mutate a table in place through `f`, stamping a fresh version
    /// when `f` succeeds. A failed mutation that left the table
    /// untouched (as atomic operations like [`Table::push_row`] do —
    /// they validate before mutating) keeps the version, so artifacts
    /// cached over the unchanged contents stay valid; if `f` errors
    /// *after* observably changing the table (row count or schema),
    /// the version is bumped anyway so stale caches cannot be served.
    ///
    /// Contract: an `f` that errors after editing cells in place
    /// (without changing row count or schema) must undo its edits.
    ///
    /// An arbitrary edit defeats delta tracking, so a fresh version
    /// also moves the delta base to the full new contents.
    pub fn mutate<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Table) -> paq_relational::RelResult<R>,
    ) -> DbResult<(R, u64)> {
        let key = Self::key(name);
        if !self.tables.contains_key(&key) {
            return Err(self.unknown(name));
        }
        // Borrow the entry (a `tables` field borrow) and bump the
        // version counter (a disjoint field) directly — `next_version`
        // would borrow all of `self` and conflict.
        let entry = self.tables.get_mut(&key).expect("checked above");
        let rows_before = entry.table.num_rows();
        let arity_before = entry.table.schema().arity();
        // Copy-on-write: snapshots held by in-flight executions keep
        // the old contents; the catalog entry gets the edited copy.
        let result = f(Arc::make_mut(&mut entry.table));
        let changed =
            entry.table.num_rows() != rows_before || entry.table.schema().arity() != arity_before;
        if result.is_ok() || changed {
            self.last_version += 1;
            entry.version = self.last_version;
            entry.main_rows = entry.table.num_rows() as u64;
        }
        Ok((result?, entry.version))
    }

    /// Append one row, stamping a fresh version; returns it and whether
    /// the append was **absorbed**. [`Table::push_row`] validates
    /// before mutating, so a rejected row changes nothing.
    ///
    /// With `delta_threshold` set (delta maintenance on), the append is
    /// absorbed — the delta base stays put — while the table has grown
    /// by at most that many rows past the base; otherwise it **merges**
    /// and the base moves to the full row count. This is the decision,
    /// and the arithmetic, of WAL replay's `MaintenancePolicy`, taken
    /// where the version is stamped so the two histories cannot differ.
    pub fn append_row(
        &mut self,
        name: &str,
        row: Vec<Value>,
        delta_threshold: Option<u64>,
    ) -> DbResult<(u64, bool)> {
        let Some(entry) = self.tables.get_mut(&Self::key(name)) else {
            return Err(self.unknown(name));
        };
        Arc::make_mut(&mut entry.table).push_row(row)?;
        self.last_version += 1;
        entry.version = self.last_version;
        let rows = entry.table.num_rows() as u64;
        let absorbed =
            delta_threshold.is_some_and(|limit| rows.saturating_sub(entry.main_rows) <= limit);
        if !absorbed {
            entry.main_rows = rows;
        }
        Ok((entry.version, absorbed))
    }

    /// Registered table names (original casing, sorted by key).
    pub fn names(&self) -> Vec<String> {
        self.tables.values().map(|e| e.name.clone()).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    fn unknown(&self, name: &str) -> DbError {
        DbError::UnknownTable {
            name: name.to_owned(),
            known: self.names(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paq_relational::{DataType, Schema, Value};

    fn table() -> Table {
        let mut t = Table::new(Schema::from_pairs(&[("x", DataType::Float)]));
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        t
    }

    #[test]
    fn resolution_is_case_insensitive() {
        let mut c = Catalog::default();
        c.register("Recipes", table());
        assert_eq!(c.resolve("recipes").unwrap().name(), "Recipes");
        assert_eq!(c.resolve("RECIPES").unwrap().version(), 1);
        assert!(matches!(
            c.resolve("Galaxy"),
            Err(DbError::UnknownTable { ref name, ref known })
                if name == "Galaxy" && known == &["Recipes".to_string()]
        ));
    }

    #[test]
    fn versions_bump_on_mutation_and_replacement() {
        let mut c = Catalog::default();
        assert_eq!(c.register("T", table()), 1);
        let ((), v) = c
            .mutate("t", |t| t.push_row(vec![Value::Float(2.0)]))
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(c.resolve("T").unwrap().table().num_rows(), 2);
        // Replacement continues the counter.
        assert_eq!(c.register("T", table()), 3);
    }

    #[test]
    fn versions_are_monotone_across_drop_and_reregister() {
        let mut c = Catalog::default();
        let v1 = c.register("T", table());
        c.drop_table("T").unwrap();
        let v2 = c.register("T", table());
        assert!(
            v2 > v1,
            "drop + re-register must not reuse version {v1} (got {v2}): \
             a cached artifact keyed by {v1} would resurrect"
        );
        // ... and the counter is catalog-wide, not per entry.
        let vu = c.register("U", table());
        assert!(vu > v2);
    }

    #[test]
    fn failed_mutation_does_not_bump_the_version() {
        let mut c = Catalog::default();
        c.register("T", table());
        // Wrong arity: push_row rejects atomically.
        assert!(c.mutate("T", |t| t.push_row(vec![])).is_err());
        let entry = c.resolve("T").unwrap();
        assert_eq!(entry.version(), 1, "no mutation happened");
        assert_eq!(entry.table().num_rows(), 1);
    }

    #[test]
    fn partial_mutation_before_error_still_bumps_the_version() {
        let mut c = Catalog::default();
        c.register("T", table());
        // First push lands, second fails: the table changed, so caches
        // over the old contents must go stale.
        assert!(c
            .mutate("T", |t| {
                t.push_row(vec![Value::Float(2.0)])?;
                t.push_row(vec![]) // arity error
            })
            .is_err());
        let entry = c.resolve("T").unwrap();
        assert_eq!(entry.table().num_rows(), 2, "partial mutation persisted");
        assert_eq!(
            entry.version(),
            2,
            "observable change must bump the version"
        );
    }

    #[test]
    fn delta_base_follows_absorb_merge_mutate_and_reregister() {
        let mut c = Catalog::default();
        c.register("T", table());
        let row = || vec![Value::Float(2.0)];
        let base = |c: &Catalog| c.resolve("T").unwrap().main_rows();
        // Threshold 2: two appends are absorbed, the third merges.
        assert_eq!(c.append_row("t", row(), Some(2)).unwrap(), (2, true));
        assert_eq!(c.append_row("t", row(), Some(2)).unwrap(), (3, true));
        assert_eq!(base(&c), 1);
        assert_eq!(c.append_row("t", row(), Some(2)).unwrap(), (4, false));
        assert_eq!(base(&c), 4, "merge moves the base to the full table");
        // Maintenance off: never absorbed, base == rows.
        assert_eq!(c.append_row("t", row(), None).unwrap(), (5, false));
        assert_eq!(base(&c), 5);
        // A rejected row changes nothing.
        assert!(c.append_row("t", vec![], Some(2)).is_err());
        assert_eq!(c.resolve("T").unwrap().version(), 5);
        // An absorbed delta does not survive an edit or a same-name table.
        c.append_row("t", row(), Some(2)).unwrap();
        c.mutate("t", |t| t.push_row(row())).unwrap();
        assert_eq!(base(&c), 7);
        c.append_row("t", row(), Some(2)).unwrap();
        c.drop_table("T").unwrap();
        c.register("T", table());
        assert_eq!(base(&c), 1);
    }

    #[test]
    fn snapshots_are_immune_to_later_mutation() {
        let mut c = Catalog::default();
        c.register("T", table());
        let snap = c.resolve("T").unwrap().snapshot();
        c.mutate("T", |t| t.push_row(vec![Value::Float(9.0)]))
            .unwrap();
        assert_eq!(snap.num_rows(), 1, "snapshot kept the old contents");
        assert_eq!(c.resolve("T").unwrap().table().num_rows(), 2);
    }

    #[test]
    fn drop_removes_entry() {
        let mut c = Catalog::default();
        c.register("T", table());
        assert!(c.drop_table("t").is_ok());
        assert!(c.is_empty());
        assert!(c.drop_table("t").is_err());
    }
}
