//! Turning fitted models into concrete soft-resource allocations — the
//! arithmetic behind the APP-agent's decisions (paper §IV-B).
//!
//! * The **app tier's thread pools** directly cap its per-server
//!   concurrency: each server gets `⌈N*_app · headroom⌉` threads.
//! * The **db tier's concurrency** can only be capped upstream: the total
//!   budget `N*_db · K_db · headroom` is split evenly across the app
//!   servers' connection pools.

use crate::concurrency::ConcurrencyModel;

/// A computed soft allocation for the app tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftAllocation {
    /// Thread-pool size per app server.
    pub app_threads: u32,
    /// DB connection-pool size per app server.
    pub db_conns_per_app: u32,
}

impl SoftAllocation {
    /// Total DB-side concurrency this allocation admits.
    pub fn total_db_concurrency(&self, k_app: u32) -> u32 {
        self.db_conns_per_app.saturating_mul(k_app.max(1))
    }
}

/// Computes the optimal allocation for `k_app` app servers and `k_db` db
/// servers, with `headroom` slack over the theoretical optima (the paper:
/// configured pools "should be larger than this theoretical value because
/// not all threads will be in Active state" — typically 1.1; values below
/// 1 deliberately under-provision, e.g. for sensitivity studies).
///
/// Models whose optimum is unbounded (frictionless) are clamped to
/// 1 000 000 before the headroom multiply.
///
/// # Panics
///
/// Panics if `headroom <= 0` or is not finite.
///
/// # Examples
///
/// ```
/// use dcm_model::allocation::optimal_soft_allocation;
/// use dcm_model::concurrency::ConcurrencyModel;
///
/// let app = ConcurrencyModel::new(0.0284, 0.0160, 7.0e-5, 1.0, 1);  // N* ≈ 13
/// let db = ConcurrencyModel::new(0.0296, 0.0045, 1.93e-5, 1.0, 1);  // N* = 36
/// let alloc = optimal_soft_allocation(&app, &db, 2, 1, 1.1);
/// assert_eq!(alloc.db_conns_per_app, 20); // ceil(36·1·1.1 / 2)
/// assert_eq!(alloc.total_db_concurrency(2), 40);
/// ```
pub fn optimal_soft_allocation(
    app_model: &ConcurrencyModel,
    db_model: &ConcurrencyModel,
    k_app: u32,
    k_db: u32,
    headroom: f64,
) -> SoftAllocation {
    assert!(
        headroom.is_finite() && headroom > 0.0,
        "headroom must be positive"
    );
    let k_app = f64::from(k_app.max(1));
    let k_db = f64::from(k_db.max(1));
    let n_app = f64::from(app_model.optimal_concurrency().min(1_000_000));
    let n_db = f64::from(db_model.optimal_concurrency().min(1_000_000));
    let app_threads = (n_app * headroom).ceil().max(1.0) as u32;
    let db_conns_per_app = ((n_db * k_db * headroom) / k_app).ceil().max(1.0) as u32;
    SoftAllocation {
        app_threads,
        db_conns_per_app,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> ConcurrencyModel {
        ConcurrencyModel::new(0.0284, 0.016, 7.0e-5, 1.0, 1) // knee ~13
    }

    fn db() -> ConcurrencyModel {
        ConcurrencyModel::new(2.95501e-2, 4.53985e-3, 1.9298e-5, 1.0, 1) // knee 36
    }

    #[test]
    fn paper_fig5_initial_allocation() {
        // 1/1/1 with 1.1 headroom: conns = ceil(36·1.1) = 40, the paper's
        // initial Fig. 5 value.
        let alloc = optimal_soft_allocation(&app(), &db(), 1, 1, 1.1);
        assert_eq!(alloc.db_conns_per_app, 40);
    }

    #[test]
    fn conns_split_across_app_servers() {
        let one = optimal_soft_allocation(&app(), &db(), 1, 1, 1.0);
        let two = optimal_soft_allocation(&app(), &db(), 2, 1, 1.0);
        let four = optimal_soft_allocation(&app(), &db(), 4, 1, 1.0);
        assert_eq!(one.db_conns_per_app, 36);
        assert_eq!(two.db_conns_per_app, 18);
        assert_eq!(four.db_conns_per_app, 9);
        // Threads per server are independent of K.
        assert_eq!(one.app_threads, two.app_threads);
    }

    #[test]
    fn budget_scales_with_db_servers() {
        let k1 = optimal_soft_allocation(&app(), &db(), 2, 1, 1.0);
        let k2 = optimal_soft_allocation(&app(), &db(), 2, 2, 1.0);
        assert_eq!(k2.db_conns_per_app, 2 * k1.db_conns_per_app);
        assert_eq!(k2.total_db_concurrency(2), 2 * k1.total_db_concurrency(2));
    }

    #[test]
    fn ceil_never_admits_less_than_one() {
        // 36 conns split over 100 app servers still grants 1 each.
        let alloc = optimal_soft_allocation(&app(), &db(), 100, 1, 1.0);
        assert_eq!(alloc.db_conns_per_app, 1);
    }

    #[test]
    fn frictionless_models_are_clamped() {
        let flat = ConcurrencyModel::new(0.01, 0.0, 0.0, 1.0, 1);
        let alloc = optimal_soft_allocation(&flat, &db(), 1, 1, 1.0);
        assert_eq!(alloc.app_threads, 1_000_000);
    }

    #[test]
    fn sub_unit_headroom_under_provisions() {
        let alloc = optimal_soft_allocation(&app(), &db(), 1, 1, 0.5);
        assert_eq!(alloc.db_conns_per_app, 18);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn non_positive_headroom_rejected() {
        let _ = optimal_soft_allocation(&app(), &db(), 1, 1, 0.0);
    }
}
