//! The committed table of serial-reference state fingerprints
//! (`fingerprints.json`), keyed `(mesh, reference, steps, seed)`.

use crate::json::{self, Json};
use crate::stats::Fnv1a;
use crate::workloads::Mesh;
use agcm_core::par::alg1::GlobalState;
use std::path::Path;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key {
    pub mesh: String,
    pub reference: String,
    pub steps: usize,
    pub seed: u64,
}

impl Key {
    /// `reference` is [`crate::workloads::Workload::reference_label`].
    pub fn new(mesh: Mesh, reference: &str, steps: usize, seed: u64) -> Key {
        Key {
            mesh: mesh.label().to_string(),
            reference: reference.to_string(),
            steps,
            seed,
        }
    }
}

/// FNV-1a over the bit patterns of a gathered state, field after field;
/// the flag says whether every value was finite.
pub fn fingerprint(gs: &GlobalState) -> (u64, bool) {
    let mut h = Fnv1a::default();
    let mut finite = true;
    for field in [&gs.u, &gs.v, &gs.phi, &gs.psa] {
        finite &= h.f64s(field);
    }
    (h.0, finite)
}

/// The table; the file stores strings throughout, so it survives tools
/// that read JSON numbers as doubles.
#[derive(Debug, Default)]
pub struct Table {
    rows: Vec<(Key, u64)>,
}

impl Table {
    pub fn load(path: &Path) -> Result<Table, String> {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Table::default()),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let doc = json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut rows = Vec::new();
        for entry in doc.get("entries").map(Json::as_arr).unwrap_or_default() {
            let text = |f: &str| {
                entry
                    .get(f)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{}: entry without '{f}'", path.display()))
            };
            let hash = text("fnv1a")?;
            let hash = u64::from_str_radix(hash.trim_start_matches("0x"), 16)
                .map_err(|e| format!("{}: bad hash '{hash}': {e}", path.display()))?;
            let number = |f: &str| -> Result<u64, String> {
                text(f)?
                    .parse()
                    .map_err(|e| format!("{}: bad {f}: {e}", path.display()))
            };
            let key = Key {
                mesh: text("mesh")?.to_string(),
                reference: text("reference")?.to_string(),
                steps: number("steps")? as usize,
                seed: number("seed")?,
            };
            rows.push((key, hash));
        }
        Ok(Table { rows })
    }

    pub fn save(&self, path: &Path) -> Result<(), String> {
        let entries = self
            .rows
            .iter()
            .map(|(key, hash)| {
                Json::obj(vec![
                    ("mesh", Json::str(&key.mesh)),
                    ("reference", Json::str(&key.reference)),
                    ("steps", Json::Str(key.steps.to_string())),
                    ("seed", Json::Str(key.seed.to_string())),
                    ("fnv1a", Json::Str(format!("0x{hash:016x}"))),
                ])
            })
            .collect();
        let doc = Json::obj(vec![("entries", Json::Arr(entries))]);
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn get(&self, key: &Key) -> Option<u64> {
        self.rows.iter().find(|(k, _)| k == key).map(|(_, h)| *h)
    }

    /// Record `hash` under `key`.  An existing entry with another hash is
    /// only replaced with `force`: a behaviour change must not re-baseline
    /// itself silently.
    pub fn insert(&mut self, key: &Key, hash: u64, force: bool) -> Result<(), String> {
        match self.rows.iter_mut().find(|(k, _)| k == key) {
            Some((_, old)) if *old == hash => Ok(()),
            Some((_, old)) if force => {
                *old = hash;
                Ok(())
            }
            Some((_, old)) => Err(format!(
                "{key:?} is already blessed as 0x{old:016x}, the reference now gives \
                 0x{hash:016x}; pass --force to overwrite"
            )),
            None => {
                self.rows.push((key.clone(), hash));
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_refuses_to_overwrite_without_force() {
        let key = Key::new(Mesh::Small, "exact", 22, 1);
        let mut t = Table::default();
        t.insert(&key, 7, false).unwrap();
        t.insert(&key, 7, false).unwrap();
        assert!(t.insert(&key, 8, false).is_err());
        assert_eq!(t.get(&key), Some(7));
        t.insert(&key, 8, true).unwrap();
        assert_eq!(t.get(&key), Some(8));
        assert_eq!(t.get(&Key::new(Mesh::Small, "exact", 22, 2)), None);
    }

    #[test]
    fn table_round_trips_through_its_file() {
        let dir = crate::paths::scratch_dir("fp-test").unwrap();
        let path = dir.join("fp.json");
        let mut t = Table::default();
        let key = Key::new(Mesh::Mid, "approximate", 33, u64::MAX);
        t.insert(&key, 0xdead_beef_0123_4567, false).unwrap();
        t.save(&path).unwrap();
        assert_eq!(
            Table::load(&path).unwrap().get(&key),
            Some(0xdead_beef_0123_4567)
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(Table::load(&path).unwrap().rows.is_empty());
    }

    #[test]
    fn fingerprint_hashes_fields_in_order_and_flags_non_finite() {
        let gs = GlobalState {
            extents: (1, 1, 1),
            u: vec![1.0],
            v: vec![2.0],
            phi: vec![3.0],
            psa: vec![4.0],
        };
        let mut h = Fnv1a::default();
        h.f64s(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fingerprint(&gs), (h.0, true));
        let bad = GlobalState {
            phi: vec![f64::NAN],
            ..gs
        };
        assert!(!fingerprint(&bad).1);
    }
}
