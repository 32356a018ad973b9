//! Read access to a pool of cached examples.
//!
//! The Example Manager owns the example cache while the Example Selector
//! only needs lookups during retrieval; this trait is the seam between
//! them (the paper runs them as separate gRPC services, §5).

use std::collections::{BTreeMap, HashMap};

use crate::request::{Example, ExampleId};

/// Read-only view over a pool of examples.
pub trait ExampleStore {
    /// Looks up one example.
    fn get_example(&self, id: ExampleId) -> Option<&Example>;

    /// Number of stored examples.
    fn example_count(&self) -> usize;
}

impl ExampleStore for HashMap<ExampleId, Example> {
    fn get_example(&self, id: ExampleId) -> Option<&Example> {
        self.get(&id)
    }

    fn example_count(&self) -> usize {
        self.len()
    }
}

impl ExampleStore for BTreeMap<ExampleId, Example> {
    fn get_example(&self, id: ExampleId) -> Option<&Example> {
        self.get(&id)
    }

    fn example_count(&self) -> usize {
        self.len()
    }
}

impl ExampleStore for Vec<Example> {
    fn get_example(&self, id: ExampleId) -> Option<&Example> {
        self.iter().find(|e| e.id == id)
    }

    fn example_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelId;
    use crate::request::TaskKind;
    use crate::skill::SkillMix;
    use ic_embed::Embedding;

    fn ex(id: u64) -> Example {
        Example {
            id: ExampleId(id),
            topic: 0,
            latent: Embedding::zeros(2),
            embedding: Embedding::zeros(2),
            skills: SkillMix::uniform(),
            task: TaskKind::Conversation,
            origin_difficulty: 0.5,
            request_text: Default::default(),
            response_text: Default::default(),
            request_tokens: 1,
            response_tokens: 1,
            quality: 0.5,
            source_model: ModelId(0),
            replay_count: 0,
            signal_noise: crate::signal_noise(ExampleId(id)),
        }
    }

    #[test]
    fn hashmap_store_roundtrips() {
        let mut m = HashMap::new();
        m.insert(ExampleId(3), ex(3));
        assert_eq!(m.example_count(), 1);
        assert!(m.get_example(ExampleId(3)).is_some());
        assert!(m.get_example(ExampleId(4)).is_none());
    }

    #[test]
    fn vec_store_roundtrips() {
        let v = vec![ex(1), ex(2)];
        assert_eq!(v.example_count(), 2);
        assert_eq!(v.get_example(ExampleId(2)).unwrap().id, ExampleId(2));
        assert!(v.get_example(ExampleId(9)).is_none());
    }
}
