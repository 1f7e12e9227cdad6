//! A common interface over the incremental best-first searches of the
//! trees, letting the why-not algorithms run rank scans generically.

use crate::model::ObjectId;
use wnsk_storage::Result;

/// A stream of objects in non-increasing ranking-score order.
///
/// Implemented by the best-first scan of every tree,
/// [`crate::tree::BestFirst`].
pub trait ObjectStream {
    /// Pulls the next-best object, or `None` when the dataset is
    /// exhausted.
    fn next_object(&mut self) -> Result<Option<(ObjectId, f64)>>;
}
