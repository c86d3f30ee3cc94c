//! Temporal triggers (Section 2.3): "continuous and persistent queries can
//! be used to define temporal triggers.  Such a trigger is simply one of
//! these two types of queries, coupled with an action and possibly an
//! event."
//!
//! A [`Trigger`] watches a continuous query's materialized answer; an event
//! fires when an instantiation *enters* the answer (the begin tick of one
//! of its satisfaction intervals).  Actions are left to the application:
//! [`crate::Database::take_trigger_events`] surfaces the events and the
//! caller reacts (this is the classical condition/action split — FTL was
//! introduced in the authors' earlier work precisely for trigger
//! conditions).

use most_dbms::value::Value;
use most_temporal::Tick;

/// A registered trigger.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Trigger id.
    pub id: u64,
    /// Human-readable name.
    pub name: String,
    /// The continuous query whose answer is watched.
    pub continuous_id: u64,
    /// Last tick up to which events were reported.
    pub last_polled: Tick,
}

/// A trigger firing.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerEvent {
    /// The trigger that fired.
    pub trigger: u64,
    /// The trigger's name.
    pub name: String,
    /// The instantiation that entered the answer.
    pub values: Vec<Value>,
    /// The tick at which its satisfaction interval begins.
    pub at: Tick,
}

/// Registry of triggers.
#[derive(Debug, Clone, Default)]
pub struct TriggerRegistry {
    next: u64,
    triggers: Vec<Trigger>,
}

impl TriggerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TriggerRegistry::default()
    }

    /// Creates a trigger watching continuous query `continuous_id`.
    pub fn create(&mut self, name: impl Into<String>, continuous_id: u64, now: Tick) -> u64 {
        let id = self.next;
        self.next += 1;
        self.triggers.push(Trigger {
            id,
            name: name.into(),
            continuous_id,
            last_polled: now,
        });
        id
    }

    /// Mutable iteration (polling updates `last_polled`).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Trigger> {
        self.triggers.iter_mut()
    }

    /// Number of triggers.
    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    /// Whether no triggers exist.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }
}

most_testkit::json_struct!(Trigger {
    id,
    name,
    continuous_id,
    last_polled
});
most_testkit::json_struct!(TriggerRegistry { next, triggers });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_ids_and_tracks_polling() {
        let mut reg = TriggerRegistry::new();
        let a = reg.create("a", 0, 5);
        let b = reg.create("b", 1, 5);
        assert_ne!(a, b);
        assert_eq!(reg.len(), 2);
        for t in reg.iter_mut() {
            t.last_polled = 10;
        }
        assert!(reg.iter_mut().all(|t| t.last_polled == 10));
    }
}
