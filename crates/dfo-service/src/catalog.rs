//! The graph catalog: named, preprocessed, reference-counted graphs.

use dfo_core::Cluster;
use dfo_obs::Registry;
use dfo_part::plan::Plan;
use dfo_types::{DfoError, EngineConfig, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// One loaded graph: its name, the [`Cluster`] whose disks hold the
/// preprocessed chunks (rooted at `<service base>/graphs/<name>/`), and the
/// replicated [`Plan`].
///
/// Entries are handed out as `Arc<CatalogEntry>`: a running job keeps its
/// graph alive even if [`crate::Service::unload_graph`] removes the name
/// from the catalog mid-run — the entry (and its chunk caches) drop when
/// the last job over it finishes.
pub struct CatalogEntry {
    pub(crate) name: String,
    pub(crate) cluster: Cluster,
    pub(crate) plan: Plan,
}

impl std::fmt::Debug for CatalogEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogEntry")
            .field("name", &self.name)
            .field("n_vertices", &self.plan.n_vertices)
            .finish()
    }
}

impl CatalogEntry {
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The preprocessing plan (vertex count, partitioning, edge payload
    /// width) jobs over this graph are validated against.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The underlying cluster — exposed so callers can still run batch-mode
    /// [`Cluster::run`] closures over a catalog graph (the migration path),
    /// and so tests can compare service jobs against batch results on the
    /// very same preprocessed disks.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

/// The named graphs one process serves, all rooted at `<base>/graphs/` and
/// all feeding one shared [`Registry`] (series labeled `graph=<name>`).
pub(crate) struct Catalog {
    pub(crate) cfg: EngineConfig,
    base: PathBuf,
    pub(crate) registry: Arc<Registry>,
    graphs: Mutex<BTreeMap<String, Arc<CatalogEntry>>>,
}

impl Catalog {
    pub fn new(cfg: EngineConfig, base: PathBuf) -> Self {
        Self { cfg, base, registry: Registry::new(), graphs: Mutex::new(BTreeMap::new()) }
    }

    /// Adds `name`, building its cluster under `<base>/graphs/<name>/` and
    /// its plan with `plan_of` (preprocess, or reload an existing plan).
    /// The slow `plan_of` runs outside the catalog lock; the name is
    /// checked again before insert, so a concurrent add of the same name
    /// errors rather than replacing an entry jobs may already hold.
    pub fn add(
        &self,
        name: &str,
        plan_of: impl FnOnce(&Cluster) -> Result<Plan>,
    ) -> Result<Arc<CatalogEntry>> {
        validate_name(name)?;
        let taken = || DfoError::Config(format!("graph {name:?} is already loaded"));
        if self.graphs.lock().contains_key(name) {
            return Err(taken());
        }
        let cluster = Cluster::create_with_registry(
            self.cfg.clone(),
            self.base.join("graphs").join(name),
            self.registry.clone(),
            &[("graph", name)],
        )?;
        let plan = plan_of(&cluster)?;
        let entry = Arc::new(CatalogEntry { name: name.to_string(), cluster, plan });
        let mut graphs = self.graphs.lock();
        if graphs.contains_key(name) {
            return Err(taken());
        }
        graphs.insert(name.to_string(), entry.clone());
        Ok(entry)
    }

    /// Attaches a graph already preprocessed under `<base>/graphs/<name>`:
    /// plan reload only.
    pub fn open(&self, name: &str) -> Result<Arc<CatalogEntry>> {
        validate_name(name)?;
        let dir = self.base.join("graphs").join(name);
        if !dir.is_dir() {
            return Err(DfoError::Config(format!(
                "graph {name:?} has no preprocessed directory at {}",
                dir.display()
            )));
        }
        self.add(name, |cluster| Plan::load(&cluster.disks()[0]))
    }

    /// Opens every preprocessed graph directory under `<base>/graphs/`
    /// whose name is catalog-safe; returns how many the catalog holds.
    pub fn open_all(&self) -> Result<usize> {
        // no graphs directory yet: nothing to open
        if let Ok(dirs) = std::fs::read_dir(self.base.join("graphs")) {
            for dir in dirs {
                let dir = dir.map_err(|e| DfoError::io("listing graphs directory", e))?;
                let name = dir.file_name().to_string_lossy().into_owned();
                if dir.path().is_dir() && validate_name(&name).is_ok() {
                    self.open(&name)?;
                }
            }
        }
        Ok(self.graphs.lock().len())
    }

    pub fn remove(&self, name: &str) -> Result<()> {
        self.graphs
            .lock()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DfoError::Config(format!("graph {name:?} is not loaded")))
    }

    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.graphs.lock().get(name).cloned()
    }

    /// Loaded graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.graphs.lock().keys().cloned().collect()
    }
}

/// Catalog names become path components (`<base>/graphs/<name>/`), so
/// constrain them to filesystem-safe characters.
pub(crate) fn validate_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 128
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !name.starts_with('.');
    if !ok {
        return Err(DfoError::Config(format!(
            "graph name {name:?} must be 1-128 chars of [A-Za-z0-9._-], not starting with '.'"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_path_safe() {
        assert!(validate_name("twitter-2010").is_ok());
        assert!(validate_name("g_1.sym").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("../escape").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".hidden").is_err());
    }
}
