//! The three-way interaction dataset of the paper's task definition.

use groupsa_graph::{Bipartite, CsrGraph};
use groupsa_json::impl_json_struct;
use std::io;
use std::path::Path;

/// User index (into `0..num_users`).
pub type UserId = usize;
/// Item index (into `0..num_items`).
pub type ItemId = usize;
/// Group index (into `0..groups.len()`).
pub type GroupId = usize;

/// A group-recommendation dataset: the observed interactions
/// `R^U` (user–item), `R^G` (group–item) and `R^S` (user–user) of the
/// paper's §II-A, plus the membership list of every group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dataset {
    /// Dataset name (diagnostics / table headers).
    pub name: String,
    /// Number of users `m`.
    pub num_users: usize,
    /// Number of items `n`.
    pub num_items: usize,
    /// Member lists `G(t)` of every group.
    pub groups: Vec<Vec<UserId>>,
    /// Observed user–item interactions (deduplicated pairs).
    pub user_item: Vec<(UserId, ItemId)>,
    /// Observed group–item interactions (deduplicated pairs).
    pub group_item: Vec<(GroupId, ItemId)>,
    /// Undirected social edges.
    pub social: Vec<(UserId, UserId)>,
}

impl_json_struct!(Dataset { name, num_users, num_items, groups, user_item, group_item, social });

impl Dataset {
    /// Number of groups `k`.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Members of group `t`.
    ///
    /// # Panics
    /// If `t` is out of bounds.
    pub fn members(&self, t: GroupId) -> &[UserId] {
        &self.groups[t]
    }

    /// Builds the user–item bipartite view `R^U`.
    pub fn user_item_graph(&self) -> Bipartite {
        Bipartite::from_pairs(self.num_users, self.num_items, &self.user_item)
    }

    /// Builds the group–item bipartite view `R^G` (groups on the left).
    pub fn group_item_graph(&self) -> Bipartite {
        Bipartite::from_pairs(self.num_groups(), self.num_items, &self.group_item)
    }

    /// Builds the social graph view `R^S`.
    pub fn social_graph(&self) -> CsrGraph {
        CsrGraph::from_edges(self.num_users, &self.social)
    }

    /// Validates internal consistency (all ids in range, groups
    /// non-empty), returning a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (t, g) in self.groups.iter().enumerate() {
            if g.is_empty() {
                return Err(format!("group {t} is empty"));
            }
            if let Some(&u) = g.iter().find(|&&u| u >= self.num_users) {
                return Err(format!("group {t} contains out-of-range user {u}"));
            }
        }
        if let Some(&(u, i)) = self
            .user_item
            .iter()
            .find(|&&(u, i)| u >= self.num_users || i >= self.num_items)
        {
            return Err(format!("user-item pair ({u},{i}) out of range"));
        }
        if let Some(&(t, i)) = self
            .group_item
            .iter()
            .find(|&&(t, i)| t >= self.num_groups() || i >= self.num_items)
        {
            return Err(format!("group-item pair ({t},{i}) out of range"));
        }
        if let Some(&(a, b)) = self
            .social
            .iter()
            .find(|&&(a, b)| a >= self.num_users || b >= self.num_users)
        {
            return Err(format!("social edge ({a},{b}) out of range"));
        }
        Ok(())
    }

    /// Serialises to pretty JSON at `path`.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = groupsa_json::to_string(self);
        std::fs::write(path, json)
    }

    /// Loads a dataset previously written by [`Dataset::save_json`].
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        groupsa_json::from_str(&json).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tiny() -> Dataset {
        Dataset {
            name: "tiny".into(),
            num_users: 4,
            num_items: 3,
            groups: vec![vec![0, 1], vec![1, 2, 3]],
            user_item: vec![(0, 0), (1, 1), (2, 2), (3, 0)],
            group_item: vec![(0, 1), (1, 2)],
            social: vec![(0, 1), (1, 2)],
        }
    }

    #[test]
    fn graph_views_are_consistent() {
        let d = tiny();
        assert!(d.validate().is_ok());
        let ui = d.user_item_graph();
        assert_eq!(ui.num_interactions(), 4);
        assert!(ui.has_interaction(3, 0));
        let gi = d.group_item_graph();
        assert_eq!(gi.num_users(), 2); // groups on the left
        assert!(gi.has_interaction(1, 2));
        let s = d.social_graph();
        assert!(s.has_edge(0, 1));
        assert!(!s.has_edge(0, 2));
    }

    #[test]
    fn validate_catches_violations() {
        let mut d = tiny();
        d.groups.push(vec![]);
        assert!(d.validate().unwrap_err().contains("empty"));

        let mut d = tiny();
        d.groups[0].push(99);
        assert!(d.validate().unwrap_err().contains("out-of-range user"));

        let mut d = tiny();
        d.user_item.push((0, 99));
        assert!(d.validate().unwrap_err().contains("user-item"));

        let mut d = tiny();
        d.group_item.push((99, 0));
        assert!(d.validate().unwrap_err().contains("group-item"));

        let mut d = tiny();
        d.social.push((99, 0));
        assert!(d.validate().unwrap_err().contains("social"));
    }

    #[test]
    fn json_roundtrip() {
        let d = tiny();
        let path = std::env::temp_dir().join(format!("groupsa-data-{}.json", std::process::id()));
        d.save_json(&path).unwrap();
        let back = Dataset::load_json(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(d, back.unwrap());
    }
}
