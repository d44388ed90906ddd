//! Epoch-versioned property catalogs and deployment plans.
//!
//! A running monitor fleet cannot restart to change what it monitors — the
//! paper's whole pitch is that stateful properties live *in* the switch.
//! This module is the pure-data half of live deployment: a
//! [`CatalogEpoch`] names one immutable property set under a monotonically
//! increasing epoch number, and [`CatalogEpoch::apply`] derives the next
//! epoch from a [`DeployPlan`] of add/remove/upgrade actions, rejecting
//! anything the engine could not activate safely (structural validation,
//! duplicate or unknown names).
//!
//! Application is all-or-nothing: `apply` either returns a complete new
//! epoch or an error and *no* partial catalog — the same atomicity the
//! runtime's quiesce/commit protocol extends to live shards (see
//! `docs/DEPLOY.md`).
//!
//! Index discipline: retained properties keep their relative order,
//! upgrades replace in place, removals compact the list, and additions
//! append. Violations carry the epoch they were raised under
//! (`deploy provenance`), so a store query can always tell which catalog
//! version produced a row.

use crate::property::{Property, PropertyError};
use std::fmt;

/// Why a [`DeployPlan`] was rejected. Rejection happens before any shard
/// is touched, so a rejected plan is indistinguishable from one never
/// submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// The plan contains no actions.
    EmptyPlan,
    /// A remove/upgrade names a property the current epoch does not have,
    /// or two actions target the same name.
    UnknownProperty(String),
    /// An add would introduce a name the resulting catalog already has.
    DuplicateProperty(String),
    /// An incoming property failed structural validation.
    Invalid {
        /// Name of the offending property.
        name: String,
        /// The underlying validation error.
        source: PropertyError,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::EmptyPlan => write!(f, "deploy plan is empty"),
            DeployError::UnknownProperty(name) => {
                write!(f, "property {name:?} is not in the current epoch (or targeted twice)")
            }
            DeployError::DuplicateProperty(name) => {
                write!(f, "property {name:?} already exists in the resulting catalog")
            }
            DeployError::Invalid { name, source } => {
                write!(f, "incoming property {name:?} is invalid: {source}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// One deployment action.
#[derive(Debug, Clone)]
pub enum DeployAction {
    /// Append a new property to the catalog.
    Add {
        /// The incoming property.
        property: Property,
    },
    /// Remove the named property. Its monitors are dropped at the quiesce
    /// barrier; violations already raised are retained.
    Remove {
        /// Name of the property to retire.
        name: String,
    },
    /// Replace the named property in place with a new version. The new
    /// version starts with **fresh state**: instance state captured under
    /// the old definition is not sound to carry into a different property
    /// (the snapshot codec would reject it as a property mismatch anyway).
    Upgrade {
        /// Name of the property to replace.
        name: String,
        /// The replacement property (its name may differ from `name`).
        property: Property,
    },
}

impl DeployAction {
    /// The incoming property of an add/upgrade, if any.
    pub fn incoming(&self) -> Option<&Property> {
        match self {
            DeployAction::Add { property, .. } | DeployAction::Upgrade { property, .. } => {
                Some(property)
            }
            DeployAction::Remove { .. } => None,
        }
    }
}

/// An ordered batch of deployment actions applied atomically: either every
/// action takes effect in one epoch bump, or none do.
#[derive(Debug, Clone, Default)]
pub struct DeployPlan {
    /// Actions, applied in order against the current epoch.
    pub actions: Vec<DeployAction>,
}

impl DeployPlan {
    /// A plan adding one property.
    pub fn add(property: Property) -> Self {
        DeployPlan { actions: vec![DeployAction::Add { property }] }
    }

    /// A plan removing one property by name.
    pub fn remove(name: impl Into<String>) -> Self {
        DeployPlan { actions: vec![DeployAction::Remove { name: name.into() }] }
    }

    /// A plan upgrading one property in place.
    pub fn upgrade(name: impl Into<String>, property: Property) -> Self {
        DeployPlan { actions: vec![DeployAction::Upgrade { name: name.into(), property }] }
    }
}

/// How each property of a new epoch relates to the previous one — the
/// information a runtime needs to decide which instance stores to carry
/// across a deploy and which to start fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyOrigin {
    /// Unchanged from the previous epoch: `previous index` — state carries.
    Retained(usize),
    /// Replaced the property at `previous index`: state starts fresh.
    Upgraded(usize),
    /// Newly added: state starts fresh.
    Added,
}

/// One immutable property set under an epoch number. Epoch 0 is the set a
/// session starts with; every applied [`DeployPlan`] bumps it by one.
#[derive(Debug, Clone)]
pub struct CatalogEpoch {
    epoch: u64,
    properties: Vec<Property>,
    /// `origins[i]` relates `properties[i]` to the previous epoch. All
    /// `Retained(i)` (identity) for an initial epoch.
    origins: Vec<PropertyOrigin>,
}

impl CatalogEpoch {
    /// Epoch 0: the catalog a session starts with.
    pub fn initial(properties: Vec<Property>) -> Self {
        let n = properties.len();
        CatalogEpoch {
            epoch: 0,
            properties,
            origins: (0..n).map(PropertyOrigin::Retained).collect(),
        }
    }

    /// The epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The properties of this epoch, in index order.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// How property `i` relates to the previous epoch.
    pub fn origin(&self, i: usize) -> PropertyOrigin {
        self.origins[i]
    }

    /// Per-property origins, in index order.
    pub fn origins(&self) -> &[PropertyOrigin] {
        &self.origins
    }

    /// Derive the next epoch by applying `plan` in order. All-or-nothing:
    /// any rejected action rejects the whole plan, and `self` is never
    /// modified. Incoming properties are structurally validated before
    /// anything else.
    pub fn apply(&self, plan: &DeployPlan) -> Result<CatalogEpoch, DeployError> {
        if plan.actions.is_empty() {
            return Err(DeployError::EmptyPlan);
        }
        // Entries: (property, origin). Start from the current epoch with
        // identity origins; actions rewrite the working set.
        let mut entries: Vec<(Property, PropertyOrigin)> = self
            .properties
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), PropertyOrigin::Retained(i)))
            .collect();
        // Each pre-existing property may be targeted by at most one
        // remove/upgrade: a second strike targets a name that is gone (or
        // already replaced) and reports UnknownProperty.
        for action in &plan.actions {
            if let Some(p) = action.incoming() {
                p.validate()
                    .map_err(|source| DeployError::Invalid { name: p.name.clone(), source })?;
            }
            match action {
                DeployAction::Add { property } => {
                    if entries.iter().any(|(p, _)| p.name == property.name) {
                        return Err(DeployError::DuplicateProperty(property.name.clone()));
                    }
                    entries.push((property.clone(), PropertyOrigin::Added));
                }
                DeployAction::Remove { name } => {
                    let at = entries
                        .iter()
                        .position(|(p, o)| {
                            p.name == *name && matches!(o, PropertyOrigin::Retained(_))
                        })
                        .ok_or_else(|| DeployError::UnknownProperty(name.clone()))?;
                    entries.remove(at);
                }
                DeployAction::Upgrade { name, property } => {
                    let at = entries
                        .iter()
                        .position(|(p, o)| {
                            p.name == *name && matches!(o, PropertyOrigin::Retained(_))
                        })
                        .ok_or_else(|| DeployError::UnknownProperty(name.clone()))?;
                    if property.name != *name
                        && entries.iter().any(|(p, _)| p.name == property.name)
                    {
                        return Err(DeployError::DuplicateProperty(property.name.clone()));
                    }
                    let PropertyOrigin::Retained(prev) = entries[at].1 else { unreachable!() };
                    entries[at] = (property.clone(), PropertyOrigin::Upgraded(prev));
                }
            }
        }
        let (properties, origins) = entries.into_iter().unzip();
        Ok(CatalogEpoch { epoch: self.epoch + 1, properties, origins })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{Atom, Guard};
    use crate::pattern::EventPattern;
    use crate::property::Stage;
    use crate::var::var;
    use swmon_packet::Field;

    fn prop(name: &str) -> Property {
        let stage = |n: &str| {
            Stage::match_(
                n,
                EventPattern::Arrival,
                Guard::new(vec![Atom::Bind(var("A"), Field::Ipv4Src)]),
            )
        };
        Property {
            name: name.into(),
            statement: String::new(),
            stages: vec![stage("a"), stage("b")],
        }
    }

    #[test]
    fn add_appends_remove_compacts_upgrade_replaces_in_place() {
        let c0 = CatalogEpoch::initial(vec![prop("p0"), prop("p1"), prop("p2")]);
        assert_eq!(c0.epoch(), 0);
        assert_eq!(c0.origin(1), PropertyOrigin::Retained(1));

        let c1 = c0.apply(&DeployPlan::add(prop("p3"))).unwrap();
        assert_eq!(c1.epoch(), 1);
        let names: Vec<&str> = c1.properties().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["p0", "p1", "p2", "p3"]);
        assert_eq!(c1.origin(3), PropertyOrigin::Added);

        let c2 = c0.apply(&DeployPlan::remove("p1")).unwrap();
        let names: Vec<&str> = c2.properties().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["p0", "p2"]);
        // p2 moved from index 2 to 1; its origin records where it came from.
        assert_eq!(c2.origin(1), PropertyOrigin::Retained(2));

        let c3 = c0.apply(&DeployPlan::upgrade("p1", prop("p1v2"))).unwrap();
        let names: Vec<&str> = c3.properties().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["p0", "p1v2", "p2"]);
        assert_eq!(c3.origin(1), PropertyOrigin::Upgraded(1));
    }

    #[test]
    fn rejections_are_total_and_leave_self_untouched() {
        let c0 = CatalogEpoch::initial(vec![prop("p0")]);
        assert_eq!(c0.apply(&DeployPlan::default()).unwrap_err(), DeployError::EmptyPlan);
        assert_eq!(
            c0.apply(&DeployPlan::remove("ghost")).unwrap_err(),
            DeployError::UnknownProperty("ghost".into())
        );
        assert_eq!(
            c0.apply(&DeployPlan::add(prop("p0"))).unwrap_err(),
            DeployError::DuplicateProperty("p0".into())
        );
        let empty = Property { name: "bad".into(), statement: String::new(), stages: vec![] };
        assert!(matches!(
            c0.apply(&DeployPlan::add(empty)).unwrap_err(),
            DeployError::Invalid { .. }
        ));
        // A multi-action plan failing late rejects wholly: c0 is unchanged
        // (it is immutable) and no partial catalog escapes.
        let plan = DeployPlan {
            actions: vec![
                DeployAction::Add { property: prop("p9") },
                DeployAction::Remove { name: "ghost".into() },
            ],
        };
        assert!(c0.apply(&plan).is_err());
        assert_eq!(c0.properties().len(), 1);
        assert_eq!(c0.epoch(), 0);
    }

    #[test]
    fn double_strikes_on_one_name_are_rejected() {
        let c0 = CatalogEpoch::initial(vec![prop("p0"), prop("p1")]);
        let plan = DeployPlan {
            actions: vec![
                DeployAction::Remove { name: "p1".into() },
                DeployAction::Upgrade { name: "p1".into(), property: prop("p1") },
            ],
        };
        assert_eq!(c0.apply(&plan).unwrap_err(), DeployError::UnknownProperty("p1".into()));
        // Upgrading twice is equally a double strike: the first upgrade
        // consumed the retained entry.
        let plan = DeployPlan {
            actions: vec![
                DeployAction::Upgrade { name: "p1".into(), property: prop("p1") },
                DeployAction::Upgrade { name: "p1".into(), property: prop("p1") },
            ],
        };
        assert_eq!(c0.apply(&plan).unwrap_err(), DeployError::UnknownProperty("p1".into()));
    }

    #[test]
    fn errors_render() {
        for e in [
            DeployError::EmptyPlan,
            DeployError::UnknownProperty("x".into()),
            DeployError::DuplicateProperty("x".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
