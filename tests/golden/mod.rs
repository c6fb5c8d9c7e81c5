//! Golden tables: the pinned outputs of the determinism and
//! metrics-report tests, one text file per table in this directory.
//!
//! A table holds one row per line: the row's name, then `field=value`
//! pairs; a line starting with `#` is a comment. f64 values are written
//! in Rust's shortest round-trip form, so equal text is equal bits.
//!
//! [`check`] compares the rows a test produced with its table and fails
//! listing every row that differs, old beside new, field by field. It
//! also writes the whole table with the produced rows in place to
//! `$CARGO_TARGET_TMPDIR/golden/<table>.txt`. To re-pin after a
//! deliberate change: read the printed differences, copy the
//! regenerated tables over the ones here, and paste the moved rows into
//! CHANGES.md with the reason they moved.

// Each test crate that includes this module uses part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::sync::{Mutex, PoisonError};

/// One produced row, as its table line: its name, then the fields.
#[derive(Default)]
pub struct Row(pub String);

impl Row {
    /// This row's fields under `name`, for a row built unnamed.
    pub fn named(self, name: &str) -> Row {
        Row(name.to_string() + &self.0)
    }

    /// The row's name.
    pub fn name(&self) -> &str {
        row_name(&self.0).unwrap_or_default()
    }

    /// A counter or text field.
    pub fn field(mut self, field: &str, value: impl Display) -> Row {
        let _ = write!(self.0, " {field}={value}");
        self
    }

    /// An f64 field, bit-exact.
    pub fn f64(self, field: &str, x: f64) -> Row {
        self.field(field, format_args!("{x:?}"))
    }

    /// A digest field.
    pub fn hex(self, field: &str, digest: u64) -> Row {
        self.field(field, format_args!("{digest:#018x}"))
    }
}

/// FNV-1a 64 of `bytes`, for digest fields.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The name of a table line's row; `None` for a comment or blank line.
fn row_name(line: &str) -> Option<&str> {
    line.split_whitespace()
        .next()
        .filter(|n| !n.starts_with('#'))
}

/// The rows of table text, by name.
fn rows(table: &str) -> BTreeMap<&str, &str> {
    let mut rows = BTreeMap::new();
    for line in table.lines() {
        if let Some(name) = row_name(line) {
            assert!(rows.insert(name, line).is_none(), "row {name} twice");
        }
    }
    rows
}

/// The `(field, value)` pairs of a table line, in order.
fn pairs(line: &str) -> impl Iterator<Item = (&str, &str)> {
    line.split_whitespace().filter_map(|p| p.split_once('='))
}

/// The value of `field` in a table line.
fn value<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    pairs(line).find(|p| p.0 == field).map(|p| p.1)
}

/// How far `new` lies from `old`: an integer difference, or an f64
/// difference with its distance in ulps; empty for digests.
fn delta(old: &str, new: &str) -> String {
    if let (Ok(o), Ok(n)) = (old.parse::<i128>(), new.parse::<i128>()) {
        return format!(" (delta {:+})", n - o);
    }
    match (old.parse::<f64>(), new.parse::<f64>()) {
        (Ok(o), Ok(n)) => {
            let ulps = (n.to_bits() as i64).wrapping_sub(o.to_bits() as i64);
            format!(" (delta {:+e}, {ulps:+} ulp)", n - o)
        }
        _ => String::new(),
    }
}

/// One entry per produced row that differs from `table`: the row is
/// missing, or a line per field whose value moved.
pub fn diff(table: &str, produced: &[Row]) -> Vec<String> {
    let old = rows(table);
    let mut out = Vec::new();
    for row in produced {
        let (name, new) = (row.name(), row.0.as_str());
        let Some(&line) = old.get(name) else {
            out.push(format!("{name}: not in the table; new row: {new}"));
            continue;
        };
        if line == new {
            continue;
        }
        let mut report = format!("{name}:");
        let gone = pairs(line).filter(|p| value(new, p.0).is_none());
        for (k, _) in pairs(new).chain(gone) {
            let (o, n) = (value(line, k).unwrap_or("-"), value(new, k).unwrap_or("-"));
            if o != n {
                let _ = write!(report, "\n  {k}: {o} -> {n}{}", delta(o, n));
            }
        }
        out.push(report);
    }
    out
}

/// One entry per row of `table` whose name is not in `names`.
pub fn orphans(table: &str, names: &[&str]) -> Vec<String> {
    let orphans = rows(table).into_keys().filter(|n| !names.contains(n));
    orphans
        .map(|n| format!("{n}: in the table, produced by no test"))
        .collect()
}

fn read(table: &str) -> String {
    let path = format!("{}/tests/golden/{table}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Every table as the tests of this run regenerated it so far.
static REGENERATED: Mutex<BTreeMap<String, Vec<String>>> = Mutex::new(BTreeMap::new());

/// Put `produced` into this run's copy of `table` and write that copy
/// to `$CARGO_TARGET_TMPDIR/golden/` if it differs from the pinned
/// table, or remove a stale one if not. Returns the copy's path.
fn regenerate(table: &str, pinned: &str, produced: &[Row]) -> String {
    let mut tables = REGENERATED.lock().unwrap_or_else(PoisonError::into_inner);
    let lines = tables
        .entry(table.to_string())
        .or_insert_with(|| pinned.lines().map(String::from).collect());
    for row in produced {
        match lines.iter_mut().find(|l| row_name(l) == Some(row.name())) {
            Some(line) => line.clone_from(&row.0),
            None => lines.push(row.0.clone()),
        }
    }
    let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden");
    let out = format!("{dir}/{table}.txt");
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if text == pinned {
        let _ = std::fs::remove_file(&out);
    } else {
        std::fs::create_dir_all(dir).expect("create the regenerated-table directory");
        std::fs::write(&out, text).expect("write the regenerated table");
    }
    out
}

/// Fail unless every produced row equals its row in
/// `tests/golden/<table>.txt`, listing each difference: a missing table
/// has no rows.
pub fn check(table: &str, produced: &[Row]) {
    let pinned = read(table);
    let out = regenerate(table, &pinned, produced);
    let diffs = diff(&pinned, produced).join("\n");
    let failed = format!("golden table {table} differs (old -> new); regenerated: {out}");
    assert!(diffs.is_empty(), "{failed}\n{diffs}");
}

/// Fail if `table` has a row whose name is not in `names`.
pub fn no_orphans(table: &str, names: &[&str]) {
    let orphans = orphans(&read(table), names).join("\n");
    assert!(orphans.is_empty(), "golden table {table}:\n{orphans}");
}
