//! Model-pool health for failover routing.
//!
//! A pool outage (`ic_engine`'s `PoolOutage`) marks its model down here
//! while the engine drains the pool's work back through the router;
//! routing keeps new decisions off a down model until it recovers.
//!
//! §5's bypass of a failed Example Retriever or Request Router is not
//! modelled: in this single-process reference implementation both are
//! in-process calls that cannot fail (`docs/paper-claims.md`).

use ic_llmsim::ModelId;

/// The models whose serving pools are currently down.
#[derive(Debug, Clone, Default)]
pub struct FailoverState {
    /// Sorted; tiny.
    down_models: Vec<ModelId>,
}

impl FailoverState {
    /// Whether a model's serving pool is up (routing should avoid down
    /// models; the system falls back to the best healthy arm).
    pub fn model_healthy(&self, model: ModelId) -> bool {
        self.down_models.binary_search(&model).is_err()
    }

    /// Marks a model's serving pool up or down; repeated marks are
    /// idempotent.
    pub fn set_model_healthy(&mut self, model: ModelId, healthy: bool) {
        match self.down_models.binary_search(&model) {
            Ok(i) if healthy => {
                self.down_models.remove(i);
            }
            Err(i) if !healthy => self.down_models.insert(i, model),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_health_marks_are_idempotent() {
        let mut f = FailoverState::default();
        assert!(f.model_healthy(ModelId(0)));
        f.set_model_healthy(ModelId(1), false);
        f.set_model_healthy(ModelId(1), false); // Idempotent.
        assert!(!f.model_healthy(ModelId(1)));
        assert!(f.model_healthy(ModelId(0)));
        f.set_model_healthy(ModelId(0), false);
        assert!(!f.model_healthy(ModelId(0)));
        f.set_model_healthy(ModelId(1), true);
        f.set_model_healthy(ModelId(1), true); // Idempotent.
        assert!(f.model_healthy(ModelId(1)));
        assert!(!f.model_healthy(ModelId(0)));
        assert_eq!(f.down_models, vec![ModelId(0)]);
    }
}
