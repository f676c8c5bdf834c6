//! Model persistence: checkpointing a trained GroupSA to disk.
//!
//! A checkpoint stores the configuration and every parameter's name and
//! value (optimizer state is not persisted — checkpoints are for
//! inference and warm starts, not exact training resumption).

use crate::config::GroupSaConfig;
use crate::model::GroupSa;
use groupsa_json::impl_json_struct;
use groupsa_tensor::Matrix;
use std::io;
use std::path::Path;

/// On-disk representation of a trained model.
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The model configuration (architecture must match to load).
    pub config: GroupSaConfig,
    /// Number of users the model was built for.
    pub num_users: usize,
    /// Number of items the model was built for.
    pub num_items: usize,
    /// `(parameter name, value)` in registration order.
    pub parameters: Vec<(String, Matrix)>,
}

impl_json_struct!(Checkpoint { version, config, num_users, num_items, parameters });

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

impl GroupSa {
    /// Serialises the model into a [`Checkpoint`].
    pub fn to_checkpoint(&self, num_users: usize, num_items: usize) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: self.config().clone(),
            num_users,
            num_items,
            parameters: self
                .store()
                .iter()
                .map(|p| (p.name().to_string(), p.value.clone()))
                .collect(),
        }
    }

    /// Writes a JSON checkpoint to `path`.
    pub fn save(&self, path: impl AsRef<Path>, num_users: usize, num_items: usize) -> io::Result<()> {
        let json = groupsa_json::to_string(&self.to_checkpoint(num_users, num_items));
        std::fs::write(path, json)
    }

    /// Rebuilds a model from a [`Checkpoint`].
    ///
    /// # Errors
    /// If the version is unknown or the parameter list does not match
    /// the architecture implied by the stored configuration.
    pub fn from_checkpoint(ckpt: Checkpoint) -> Result<Self, String> {
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {}", ckpt.version));
        }
        let mut model = GroupSa::new(ckpt.config, ckpt.num_users, ckpt.num_items);
        if model.store().len() != ckpt.parameters.len() {
            return Err(format!(
                "parameter count mismatch: model has {}, checkpoint has {}",
                model.store().len(),
                ckpt.parameters.len()
            ));
        }
        for (slot, (name, value)) in ckpt.parameters.into_iter().enumerate() {
            let p = model.store_mut().get_mut(slot);
            if p.name() != name {
                return Err(format!("parameter {slot} name mismatch: model '{}', checkpoint '{name}'", p.name()));
            }
            if p.value.shape() != value.shape() {
                return Err(format!(
                    "parameter '{name}' shape mismatch: model {:?}, checkpoint {:?}",
                    p.value.shape(),
                    value.shape()
                ));
            }
            p.value = value;
        }
        Ok(model)
    }

    /// Loads a JSON checkpoint written by [`GroupSa::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let ckpt: Checkpoint = groupsa_json::from_str(&json).map_err(io::Error::other)?;
        Self::from_checkpoint(ckpt).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupSaConfig;
    use crate::test_fixtures::tiny_world;
    use crate::train::Trainer;

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let (d, ctx) = tiny_world(41);
        let mut cfg = GroupSaConfig::tiny();
        cfg.user_epochs = 2;
        cfg.group_epochs = 2;
        let mut model = GroupSa::new(cfg.clone(), d.num_users, d.num_items);
        Trainer::new(cfg).fit(&mut model, &ctx);

        let path = std::env::temp_dir().join(format!("groupsa-persist-{}.json", std::process::id()));
        model.save(&path, d.num_users, d.num_items).unwrap();

        let loaded = GroupSa::load(&path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded.unwrap();
        let items = [0usize, 1, 2, 3];
        assert_eq!(model.score_user_items(&ctx, 0, &items), loaded.score_user_items(&ctx, 0, &items));
        assert_eq!(model.score_group_items(&ctx, 0, &items), loaded.score_group_items(&ctx, 0, &items));
    }

    #[test]
    fn mismatched_universe_is_rejected() {
        let (d, _) = tiny_world(42);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let mut ckpt = model.to_checkpoint(d.num_users, d.num_items);
        ckpt.num_users += 5; // architecture no longer matches parameters
        assert!(matches!(GroupSa::from_checkpoint(ckpt), Err(_)));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let (d, _) = tiny_world(43);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let mut ckpt = model.to_checkpoint(d.num_users, d.num_items);
        ckpt.version = 99;
        let err = match GroupSa::from_checkpoint(ckpt) {
            Err(e) => e,
            Ok(_) => panic!("expected version error"),
        };
        assert!(err.contains("version"));
    }

    #[test]
    fn checkpoint_parameter_names_are_stable() {
        let (d, _) = tiny_world(44);
        let model = GroupSa::new(GroupSaConfig::tiny(), d.num_users, d.num_items);
        let ckpt = model.to_checkpoint(d.num_users, d.num_items);
        let names: Vec<&str> = ckpt.parameters.iter().map(|(n, _)| n.as_str()).collect();
        for expected in ["emb_user.table", "emb_item.table", "lat_item.table", "lat_social.table"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
