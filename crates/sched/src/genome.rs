//! Permutation genome for the GA schedule search.
//!
//! A genome item is one *refresh increment* of one table. Decoding a
//! permutation walks the items in chromosome order and grants each
//! increment if its table's cost still fits the remaining budget (else
//! the item is skipped) — so **every** permutation decodes to a feasible
//! allocation and the budget is respected by construction.
//!
//! The item list puts the greedy pass's picks first, in pick order, so
//! the identity permutation — which `ga::optimize_permutation` always
//! seeds into the initial population — decodes to the greedy
//! allocation (plus whatever leftover budget can still buy). The GA
//! starts its search at the greedy incumbent rather than from scratch.

use ivdss_catalog::ids::TableId;
use ivdss_ga::permutation::Permutation;
use ivdss_simkernel::time::SimTime;

use crate::alloc::ScheduleAllocation;
use crate::cost::RefreshCosts;

/// The refresh-increment items the GA permutes.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradePool {
    items: Vec<TableId>,
    tables: Vec<TableId>,
    costs: RefreshCosts,
    budget: f64,
    horizon: SimTime,
}

impl UpgradePool {
    /// Builds the pool. Each table contributes as many items as its cost
    /// fits into the budget; the first items replay `seed_picks` (the
    /// greedy pick sequence), the rest fill remaining capacity in table
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty, a table has no cost, the budget is
    /// negative or non-finite, or `seed_picks` overruns a table's
    /// capacity.
    #[must_use]
    pub fn new(
        tables: &[TableId],
        horizon: SimTime,
        costs: &RefreshCosts,
        budget: f64,
        seed_picks: &[TableId],
    ) -> Self {
        assert!(!tables.is_empty(), "pool needs at least one table");
        assert!(
            budget.is_finite() && budget >= 0.0,
            "budget must be finite and non-negative, got {budget}"
        );
        let mut sorted: Vec<TableId> = tables.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        let capacity = |table: TableId| -> usize { (budget / costs.cost(table)).floor() as usize };

        let mut items: Vec<TableId> = Vec::new();
        let mut used: std::collections::BTreeMap<TableId, usize> =
            sorted.iter().map(|&t| (t, 0)).collect();
        for &pick in seed_picks {
            let slot = used
                .get_mut(&pick)
                .unwrap_or_else(|| panic!("seed pick {pick:?} is not a pooled table"));
            assert!(
                *slot < capacity(pick),
                "seed picks overrun {pick:?}'s capacity"
            );
            *slot += 1;
            items.push(pick);
        }
        for &table in &sorted {
            let have = used[&table];
            for _ in have..capacity(table) {
                items.push(table);
            }
        }

        UpgradePool {
            items,
            tables: sorted,
            costs: costs.clone(),
            budget,
            horizon,
        }
    }

    /// Number of genome items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no table can afford a single refresh.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The pooled tables, in id order.
    #[must_use]
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// The pool's budget.
    #[must_use]
    #[cfg(test)]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Decodes a chromosome into a feasible allocation: walk the items
    /// in chromosome order, grant each increment its table's cost still
    /// affords, skip the rest.
    ///
    /// # Panics
    ///
    /// Panics if `perm` does not permute `0..len`.
    #[must_use]
    pub fn decode(&self, perm: &Permutation) -> ScheduleAllocation {
        assert_eq!(perm.len(), self.items.len(), "chromosome length mismatch");
        let mut allocation = ScheduleAllocation::empty(&self.tables, self.horizon);
        let mut remaining = self.budget;
        for idx in perm.iter() {
            let table = self.items[idx];
            let cost = self.costs.cost(table);
            if cost <= remaining {
                allocation.add(table);
                remaining -= cost;
            }
        }
        allocation
    }

    /// Encodes an allocation as a chromosome whose decode reproduces at
    /// least it: each table's granted increments come first (in table
    /// order), the remaining items follow in pool order. Because
    /// [`UpgradePool::decode`] keeps spending leftover budget, the
    /// round-trip law is `decode(encode(decode(p))) == decode(p)` for
    /// every permutation `p` — allocations that saturate their budget
    /// round-trip exactly (`tests/sched_props.rs` pins both).
    ///
    /// Returns `None` if a table's count exceeds its pooled capacity or
    /// the allocation's tables differ from the pool's.
    #[must_use]
    pub fn encode(&self, allocation: &ScheduleAllocation) -> Option<Permutation> {
        let alloc_tables: Vec<TableId> = allocation.tables().collect();
        if alloc_tables != self.tables {
            return None;
        }
        // Item indices per table, in pool order.
        let mut by_table: std::collections::BTreeMap<TableId, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (idx, &table) in self.items.iter().enumerate() {
            by_table.entry(table).or_default().push(idx);
        }
        let mut front: Vec<usize> = Vec::new();
        let mut taken = vec![false; self.items.len()];
        for (table, count) in allocation.iter() {
            let slots = by_table.get(&table).map_or(&[][..], Vec::as_slice);
            if count > slots.len() {
                return None;
            }
            for &idx in &slots[..count] {
                front.push(idx);
                taken[idx] = true;
            }
        }
        front.extend((0..self.items.len()).filter(|&i| !taken[i]));
        Some(Permutation::new(front).expect("indices form a permutation"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RefreshCosts;

    fn t(i: u32) -> TableId {
        TableId::new(i)
    }

    fn pool() -> UpgradePool {
        let tables = [t(0), t(1)];
        let costs = RefreshCosts::uniform(&tables);
        UpgradePool::new(&tables, SimTime::new(20.0), &costs, 4.0, &[t(1)])
    }

    #[test]
    fn identity_decode_starts_with_seed_picks() {
        let p = pool();
        // Budget 4, unit costs: 4 items per table minus seeding overlap.
        assert_eq!(p.len(), 8);
        let alloc = p.decode(&Permutation::identity(p.len()));
        // Identity spends the whole budget: seed pick first (table 1),
        // then fills table 0's capacity.
        assert_eq!(alloc.iter().map(|(_, c)| c).sum::<usize>(), 4);
        assert_eq!(alloc.count(t(1)), 1);
        assert_eq!(alloc.count(t(0)), 3);
    }

    #[test]
    fn every_permutation_decodes_within_budget() {
        let p = pool();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        for _ in 0..50 {
            let perm = Permutation::random(p.len(), &mut rng);
            let alloc = p.decode(&perm);
            assert!(alloc.spend(&RefreshCosts::uniform(&[t(0), t(1)])) <= p.budget());
        }
    }

    #[test]
    fn decode_encode_decode_is_stable() {
        let p = pool();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        for _ in 0..50 {
            let perm = Permutation::random(p.len(), &mut rng);
            let alloc = p.decode(&perm);
            let re = p.encode(&alloc).expect("decoded allocations encode");
            assert_eq!(p.decode(&re), alloc);
        }
    }

    #[test]
    fn overfull_allocation_does_not_encode() {
        let p = pool();
        let mut alloc = ScheduleAllocation::empty(&[t(0), t(1)], SimTime::new(20.0));
        for _ in 0..5 {
            alloc.add(t(0));
        }
        assert!(p.encode(&alloc).is_none());
    }
}
