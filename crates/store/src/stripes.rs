//! Striped store layout: one independent [`Store`] per stripe.
//!
//! A sharded `sider_server` routes every session to one of `N` stripes by
//! a **stable hash of the session ID** — the same pure function at every
//! stripe count query, on every restart, in every process — so a
//! session's on-disk history always lives in the same stripe directory
//! and recovery can replay each stripe independently (with that stripe's
//! own thread pool), never taking a cross-stripe lock.
//!
//! On-disk layout under the data dir:
//!
//! ```text
//! <data-dir>/
//! ├── layout.json            # {"format":"sider-store-striped","stripes":N}
//! ├── stripe-0/              # a full per-stripe store (lib.rs layout)
//! │   ├── meta.json
//! │   └── sessions/s3/…
//! ├── stripe-1/
//! │   └── …
//! └── …
//! ```
//!
//! `layout.json` pins the stripe count the directory was written with:
//! opening it with a different `--stripes` is a hard error (moving
//! session histories between stripes is a migration, not something a
//! server bind should do silently). A **legacy** unstriped data dir
//! (PR 5's `meta.json` + `sessions/` at the root) is migrated in place on
//! first striped open: each session directory is renamed into the stripe
//! its ID hashes to — a pure rename, no history bytes are rewritten.
//!
//! The stripe hash is FNV-1a over the ID's little-endian bytes. It is
//! part of the on-disk format: changing it would orphan every stored
//! session, which is why `tests` pin exact values.

use crate::{Store, StoreConfig, StoreError};
use sider_json::Json;
use std::path::{Path, PathBuf};

/// Environment variable selecting the server stripe count.
pub const STRIPES_ENV_VAR: &str = "SIDER_STRIPES";

/// Hard upper bound on the stripe count (a fat-finger guard: each stripe
/// owns a thread pool and a store directory).
pub const MAX_STRIPES: usize = 256;

const LAYOUT_FILE: &str = "layout.json";
const LAYOUT_FORMAT: &str = "sider-store-striped";

/// The stripe a session ID belongs to: FNV-1a 64 over the ID's 8
/// little-endian bytes, reduced mod `stripes`.
///
/// This is a **pure function of the ID** (no state, no randomness): the
/// same ID maps to the same stripe in every process and across restarts,
/// which is what lets each stripe recover its own directory without
/// consulting the others.
pub fn stripe_of(id: u64, stripes: usize) -> usize {
    debug_assert!(stripes >= 1);
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET;
    for byte in id.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % stripes as u64) as usize
}

/// Directory name of stripe `k` under the data dir (`stripe-3`).
pub fn stripe_dir_name(k: usize) -> String {
    format!("stripe-{k}")
}

/// The stripe count a data dir was written with, per its `layout.json`
/// (`None` when the file is absent — a fresh or legacy dir).
pub fn detect_stripes(dir: &Path) -> Result<Option<usize>, StoreError> {
    let path = dir.join(LAYOUT_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let json =
        Json::parse(&text).map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
    if json.get("format").and_then(Json::as_str) != Some(LAYOUT_FORMAT) {
        return Err(StoreError::Corrupt(format!(
            "{}: not a '{LAYOUT_FORMAT}' layout",
            path.display()
        )));
    }
    let n = json
        .require_num("stripes")
        .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))?;
    if !(n.is_finite() && n >= 1.0 && n <= MAX_STRIPES as f64 && n.fract() == 0.0) {
        return Err(StoreError::Corrupt(format!(
            "{}: bad stripe count {n}",
            path.display()
        )));
    }
    Ok(Some(n as usize))
}

/// Whether `dir` holds a legacy (PR 5) unstriped store: `meta.json` or a
/// `sessions/` directory at the root instead of `stripe-{k}/` subdirs.
fn is_legacy_layout(dir: &Path) -> bool {
    dir.join("meta.json").exists() || dir.join("sessions").is_dir()
}

/// Migrate a legacy unstriped store in place: rename each `sessions/s{n}`
/// into `stripe-{stripe_of(n)}/sessions/s{n}` and move the root
/// `meta.json` (the persisted ID counter) into stripe 0, and delete the
/// root's retired replication files. Renames only —
/// no WAL or checkpoint bytes are rewritten, so recovery replays exactly
/// the histories the legacy server wrote.
fn migrate_legacy(dir: &Path, stripes: usize) -> Result<(), StoreError> {
    let legacy_sessions = dir.join("sessions");
    if legacy_sessions.is_dir() {
        for entry in std::fs::read_dir(&legacy_sessions)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix('s'))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                return Err(StoreError::Corrupt(format!(
                    "{}: unexpected entry {:?} in legacy sessions dir",
                    dir.display(),
                    name
                )));
            };
            let target_dir = dir
                .join(stripe_dir_name(stripe_of(id, stripes)))
                .join("sessions");
            std::fs::create_dir_all(&target_dir)?;
            std::fs::rename(entry.path(), target_dir.join(&name))?;
        }
        std::fs::remove_dir(&legacy_sessions)?;
    }
    let legacy_meta = dir.join("meta.json");
    if legacy_meta.exists() {
        let stripe0 = dir.join(stripe_dir_name(0));
        std::fs::create_dir_all(&stripe0)?;
        std::fs::rename(&legacy_meta, stripe0.join("meta.json"))?;
    }
    crate::remove_retired_files(dir)?;
    Ok(())
}

/// Open (creating or migrating as needed) the striped layout under
/// `config.dir` and return one [`Store`] per stripe, index-aligned with
/// [`stripe_of`]. Every stripe inherits `config`'s fsync and checkpoint
/// settings. A `layout.json` recording a *different* stripe count is a
/// hard error: session histories would be searched for in the wrong
/// stripe directories.
pub fn open_striped(config: &StoreConfig, stripes: usize) -> Result<Vec<Store>, StoreError> {
    if stripes == 0 || stripes > MAX_STRIPES {
        return Err(StoreError::Corrupt(format!(
            "stripe count {stripes} out of range 1..={MAX_STRIPES}"
        )));
    }
    std::fs::create_dir_all(&config.dir)?;
    match detect_stripes(&config.dir)? {
        Some(on_disk) if on_disk != stripes => {
            return Err(StoreError::Corrupt(format!(
                "{}: laid out with {on_disk} stripes, server configured for {stripes} \
                 (changing the stripe count requires migrating session histories)",
                config.dir.display()
            )));
        }
        Some(_) => {}
        None => {
            if is_legacy_layout(&config.dir) {
                migrate_legacy(&config.dir, stripes)?;
            }
            let doc = Json::obj([
                ("format", Json::from(LAYOUT_FORMAT)),
                ("stripes", Json::from(stripes)),
                ("version", Json::from(1.0)),
            ]);
            crate::write_atomic(
                &config.dir.join(LAYOUT_FILE),
                format!("{}\n", doc.dump()).as_bytes(),
            )?;
        }
    }
    (0..stripes)
        .map(|k| {
            let mut stripe_config = config.clone();
            stripe_config.dir = stripe_path(&config.dir, k);
            Store::open(stripe_config)
        })
        .collect()
}

/// Path of stripe `k`'s store under the data dir.
pub fn stripe_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(stripe_dir_name(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FsyncPolicy;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sider_stripes_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> StoreConfig {
        let mut c = StoreConfig::new(dir);
        c.fsync = FsyncPolicy::Never;
        c
    }

    #[test]
    fn stripe_of_is_pinned_to_the_on_disk_format() {
        // These exact values are part of the on-disk format: a session
        // stored under stripe-{stripe_of(id)} must hash to the same
        // stripe after any refactor, or recovery would lose it.
        for (id, stripes, expected) in [
            (1u64, 4usize, 0usize),
            (2, 4, 3),
            (3, 4, 2),
            (4, 4, 1),
            (5, 4, 0),
            (6, 4, 3),
            (1, 2, 0),
            (2, 2, 1),
            (7, 8, 2),
            (1000, 16, 12),
        ] {
            assert_eq!(
                stripe_of(id, stripes),
                expected,
                "id={id} stripes={stripes}"
            );
        }
        // One stripe: everything maps to it.
        for id in 0..100 {
            assert_eq!(stripe_of(id, 1), 0);
        }
    }

    #[test]
    fn stripe_of_is_a_pure_total_function() {
        for stripes in [1usize, 2, 3, 4, 7, 8, 16] {
            let mut seen = vec![0usize; stripes];
            for id in 0..10_000u64 {
                let s = stripe_of(id, stripes);
                assert!(s < stripes);
                assert_eq!(s, stripe_of(id, stripes), "must be deterministic");
                seen[s] += 1;
            }
            // Sanity: dense IDs spread over every stripe (no starved
            // stripe under the workload's dense s1..sN assignment).
            for (k, count) in seen.iter().enumerate() {
                assert!(
                    *count > 10_000 / stripes / 4,
                    "stripe {k}/{stripes} starved: {count}"
                );
            }
        }
    }

    #[test]
    fn open_striped_creates_layout_and_stores() {
        let dir = temp_dir("create");
        let stores = open_striped(&config(&dir), 4).unwrap();
        assert_eq!(stores.len(), 4);
        assert_eq!(detect_stripes(&dir).unwrap(), Some(4));
        for k in 0..4 {
            assert!(dir.join(stripe_dir_name(k)).join("sessions").is_dir());
        }
        // Re-opening with the same count succeeds…
        assert!(open_striped(&config(&dir), 4).is_ok());
        // …with a different count fails loudly.
        assert!(matches!(
            open_striped(&config(&dir), 2),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stripe_count_bounds_are_enforced() {
        let dir = temp_dir("bounds");
        assert!(matches!(
            open_striped(&config(&dir), 0),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            open_striped(&config(&dir), MAX_STRIPES + 1),
            Err(StoreError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_layout_is_an_error() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LAYOUT_FILE), b"{not json").unwrap();
        assert!(matches!(
            open_striped(&config(&dir), 2),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::write(
            dir.join(LAYOUT_FILE),
            br#"{"format":"sider-store-striped","stripes":0.5}"#,
        )
        .unwrap();
        assert!(matches!(detect_stripes(&dir), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_store_is_migrated_in_place() {
        let dir = temp_dir("legacy");
        // Build a PR-5 style unstriped store with two sessions.
        {
            let store = Store::open(config(&dir)).unwrap();
            let body = Json::parse(r#"{"dataset":"fig2","seed":7}"#).unwrap();
            store.create_session(1, &body).unwrap();
            store.create_session(2, &body).unwrap();
        }
        assert!(dir.join("meta.json").exists());
        let stores = open_striped(&config(&dir), 4).unwrap();
        // Sessions moved to their hash-assigned stripes, histories intact.
        assert!(!dir.join("sessions").exists());
        assert!(!dir.join("meta.json").exists());
        for id in [1u64, 2] {
            let k = stripe_of(id, 4);
            assert!(
                dir.join(stripe_dir_name(k))
                    .join(format!("sessions/s{id}"))
                    .join("wal.log")
                    .exists(),
                "s{id} must live in stripe-{k}"
            );
        }
        // The persisted ID counter survives in stripe 0.
        assert_eq!(stores[0].next_session_id().unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
