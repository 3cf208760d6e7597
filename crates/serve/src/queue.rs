//! Bounded, tenant-fair work queue feeding the worker pool.
//!
//! Two bounds, both rejecting with [`Error::Overloaded`] instead of
//! buffering unboundedly: a shared total across the service, and a
//! per-tenant slice so one chatty tenant cannot occupy the whole queue.
//! Dequeue order is round-robin over tenants (one request each, in
//! tenant arrival order), so a tenant with 100 queued pushes and a
//! tenant with 1 both make progress every cycle — fairness across
//! tenants, FIFO within one.

use bitgen::Error;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

#[derive(Debug)]
struct QueueState<T> {
    /// One FIFO per tenant, tenants in first-seen order: the
    /// round-robin cycle. A tenant's name is copied once, when it first
    /// enqueues.
    queues: Vec<(String, VecDeque<T>)>,
    cursor: usize,
    total: usize,
    open: bool,
}

/// A bounded multi-tenant queue. `close` wakes every blocked consumer;
/// consumers drain what was already accepted, then see `None`.
#[derive(Debug)]
pub(crate) struct FairQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    total_capacity: usize,
}

impl<T> FairQueue<T> {
    pub fn new(total_capacity: usize) -> FairQueue<T> {
        FairQueue {
            state: Mutex::new(QueueState {
                queues: Vec::new(),
                cursor: 0,
                total: 0,
                open: true,
            }),
            ready: Condvar::new(),
            total_capacity: total_capacity.max(1),
        }
    }

    /// Accepts `item` onto `tenant`'s slice, or rejects it with
    /// [`Error::Overloaded`] when either bound is hit (nothing is
    /// buffered on rejection).
    pub fn enqueue(&self, tenant: &str, item: T, tenant_capacity: usize) -> Result<(), Error> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.open {
            return Err(Error::Overloaded {
                reason: "service is shutting down".to_string(),
            });
        }
        if state.total >= self.total_capacity {
            return Err(Error::Overloaded {
                reason: format!(
                    "shared queue full ({} requests waiting)",
                    self.total_capacity
                ),
            });
        }
        let idx = match state.queues.iter().position(|(name, _)| name == tenant) {
            Some(idx) => idx,
            None => {
                state.queues.push((tenant.to_string(), VecDeque::new()));
                state.queues.len() - 1
            }
        };
        let queue = &mut state.queues[idx].1;
        if queue.len() >= tenant_capacity.max(1) {
            let depth = queue.len();
            return Err(Error::Overloaded {
                reason: format!("tenant {tenant:?} already has {depth} requests queued"),
            });
        }
        queue.push_back(item);
        state.total += 1;
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item, visiting tenants round-robin. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn dequeue(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.total > 0 {
                let tenants = state.queues.len();
                for step in 0..tenants {
                    let idx = (state.cursor + step) % tenants;
                    if let Some(item) = state.queues[idx].1.pop_front() {
                        state.cursor = (idx + 1) % tenants;
                        state.total -= 1;
                        return Some(item);
                    }
                }
            }
            if !state.open {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting new items and wakes every blocked consumer.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).open = false;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_past_the_shared_bound_without_buffering() {
        let q: FairQueue<u32> = FairQueue::new(2);
        q.enqueue("a", 1, 8).unwrap();
        q.enqueue("b", 2, 8).unwrap();
        let err = q.enqueue("c", 3, 8).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }));
        assert!(err.to_string().contains("overloaded"));
        // Draining frees the slot again.
        assert!(q.dequeue().is_some());
        q.enqueue("c", 3, 8).unwrap();
    }

    #[test]
    fn rejects_past_a_tenant_slice_while_others_still_fit() {
        let q: FairQueue<u32> = FairQueue::new(16);
        q.enqueue("loud", 1, 2).unwrap();
        q.enqueue("loud", 2, 2).unwrap();
        let err = q.enqueue("loud", 3, 2).unwrap_err();
        assert!(matches!(err, Error::Overloaded { .. }));
        assert!(err.to_string().contains("loud"));
        // A different tenant is unaffected by the noisy one.
        q.enqueue("quiet", 9, 2).unwrap();
    }

    #[test]
    fn dequeue_round_robins_across_tenants() {
        let q: FairQueue<(&str, u32)> = FairQueue::new(16);
        for i in 0..3 {
            q.enqueue("a", ("a", i), 8).unwrap();
        }
        q.enqueue("b", ("b", 0), 8).unwrap();
        q.enqueue("c", ("c", 0), 8).unwrap();
        // Five items: the cycle must interleave b and c between a's
        // backlog instead of serving a three times first.
        let got: Vec<(&str, u32)> = (0..5).map(|_| q.dequeue().unwrap()).collect();
        assert_eq!(got, vec![("a", 0), ("b", 0), ("c", 0), ("a", 1), ("a", 2)]);
        // FIFO held within tenant a.
        q.close();
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn close_drains_accepted_items_then_stops() {
        let q: FairQueue<u32> = FairQueue::new(16);
        q.enqueue("a", 7, 8).unwrap();
        q.close();
        assert!(matches!(q.enqueue("a", 8, 8), Err(Error::Overloaded { .. })));
        assert_eq!(q.dequeue(), Some(7));
        assert_eq!(q.dequeue(), None);
    }
}
