//! Correctness of what the real-time workloads deliver: every cast exactly
//! once at every member, bytes as sent, per-sender FIFO, and (where the
//! stack promises it) one total order at all members.  A cast that misses
//! any of these is a failed operation.

/// Running check over the deliveries of one group.  Casts are numbered
/// `0..issued`; cast `i` is sent by sender `i % senders`.
#[derive(Debug)]
pub struct DeliveryCheck {
    senders: usize,
    total_order: bool,
    issued: u64,
    /// `[receiver][index]`: how many times the cast was delivered there.
    counts: Vec<Vec<u8>>,
    /// `[index]`: delivered out of order, from the wrong source, or twice.
    bad: Vec<bool>,
    /// `[receiver][sender]`: highest index delivered so far.
    newest: Vec<Vec<Option<u64>>>,
    /// `[receiver]`: deliveries so far, i.e. the position in its order.
    position: Vec<usize>,
    /// The order the first member to reach each position delivered in.
    canon: Vec<u64>,
    /// Deliveries whose body named no cast that was issued.
    unattributed: u64,
    tally: Tally,
}

/// What went wrong, by kind; `failed` is the number of casts affected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub failed: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub corrupt: u64,
    pub out_of_fifo: u64,
    pub out_of_total_order: u64,
}

impl Tally {
    /// Adds another group's tally to this one.
    pub fn add(&mut self, other: &Tally) {
        self.failed += other.failed;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.corrupt += other.corrupt;
        self.out_of_fifo += other.out_of_fifo;
        self.out_of_total_order += other.out_of_total_order;
    }
}

/// Failed operations as a share of those attempted (`failed_share`).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

impl DeliveryCheck {
    pub fn new(receivers: usize, senders: usize, total_order: bool) -> Self {
        DeliveryCheck {
            senders: senders.max(1),
            total_order,
            issued: 0,
            counts: vec![Vec::new(); receivers],
            bad: Vec::new(),
            newest: vec![vec![None; senders.max(1)]; receivers],
            position: vec![0; receivers],
            canon: Vec::new(),
            unattributed: 0,
            tally: Tally::default(),
        }
    }

    /// Allots the next cast index and returns it with its sender's number.
    pub fn issue(&mut self) -> (u64, usize) {
        let index = self.issued;
        self.issued += 1;
        self.bad.push(false);
        for c in &mut self.counts {
            c.push(0);
        }
        (index, (index % self.senders as u64) as usize)
    }

    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Deliveries seen so far at `receiver`.
    pub fn delivered_at(&self, receiver: usize) -> usize {
        self.position[receiver]
    }

    /// Records one delivery at `receiver`, claimed to come from `sender`,
    /// carrying `index` (`None` when the body failed verification).
    pub fn on_delivery(&mut self, receiver: usize, sender: usize, index: Option<u64>) {
        let at = self.position[receiver];
        self.position[receiver] += 1;
        let Some(index) = index.filter(|&i| i < self.issued) else {
            self.tally.corrupt += 1;
            self.unattributed += 1;
            return;
        };
        let i = index as usize;
        let count = &mut self.counts[receiver][i];
        *count = count.saturating_add(1);
        if *count > 1 {
            self.tally.duplicated += 1;
            self.bad[i] = true;
        }
        if sender != i % self.senders {
            self.tally.corrupt += 1;
            self.bad[i] = true;
            return;
        }
        let newest = &mut self.newest[receiver][sender];
        match *newest {
            Some(n) if index < n => {
                self.tally.out_of_fifo += 1;
                self.bad[i] = true;
            }
            _ => *newest = Some(index),
        }
        if self.total_order {
            if at == self.canon.len() {
                self.canon.push(index);
            } else if self.canon.get(at) != Some(&index) {
                self.tally.out_of_total_order += 1;
                self.bad[i] = true;
            }
        }
    }

    /// Closes the books: a cast not delivered exactly once everywhere, or
    /// flagged on the way, failed.  Deliveries whose bytes could not be
    /// attributed to a cast count one failure each.
    pub fn finish(&self) -> Tally {
        let mut t = self.tally;
        let mut failed = 0u64;
        for i in 0..self.issued as usize {
            let lost = self.counts.iter().any(|c| c[i] == 0);
            if lost {
                t.lost += 1;
            }
            if lost || self.bad[i] {
                failed += 1;
            }
        }
        t.failed = (failed + self.unattributed).min(self.issued);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(check: &mut DeliveryCheck, receiver: usize, order: &[u64]) {
        let senders = check.senders;
        for &i in order {
            check.on_delivery(receiver, (i % senders as u64) as usize, Some(i));
        }
    }

    #[test]
    fn clean_log_has_no_failures() {
        let mut c = DeliveryCheck::new(2, 1, false);
        for _ in 0..10 {
            c.issue();
        }
        let all: Vec<u64> = (0..10).collect();
        deliver(&mut c, 0, &all);
        deliver(&mut c, 1, &all);
        assert_eq!(c.finish(), Tally::default());
        assert_eq!(failed_share(c.finish().failed, 10), 0.0);
    }

    #[test]
    fn dropped_duplicated_and_reordered_deliveries_each_fail_one_cast() {
        let mut c = DeliveryCheck::new(2, 1, false);
        for _ in 0..10 {
            c.issue();
        }
        deliver(&mut c, 0, &(0..10).collect::<Vec<u64>>());
        // Member 1: cast 3 never arrives, cast 5 arrives twice, 7 after 8.
        deliver(&mut c, 1, &[0, 1, 2, 4, 5, 5, 6, 8, 7, 9]);
        let t = c.finish();
        assert_eq!(t.lost, 1);
        assert_eq!(t.duplicated, 1);
        assert_eq!(t.out_of_fifo, 1);
        assert_eq!(t.failed, 3);
        assert!((failed_share(t.failed, 10) - 0.3).abs() < 1e-12);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn damaged_body_counts_against_the_cast_it_replaced() {
        let mut c = DeliveryCheck::new(1, 1, false);
        for _ in 0..4 {
            c.issue();
        }
        deliver(&mut c, 0, &[0, 1]);
        c.on_delivery(0, 0, None); // cast 2 arrived damaged
        c.on_delivery(0, 0, Some(99)); // an index never issued
        deliver(&mut c, 0, &[3]);
        let t = c.finish();
        assert_eq!(t.corrupt, 2);
        assert_eq!(t.lost, 1);
        assert_eq!(t.failed, 3);
    }

    #[test]
    fn members_disagreeing_on_the_order_fail_total_order_only() {
        let mut c = DeliveryCheck::new(2, 2, true);
        for _ in 0..4 {
            c.issue();
        }
        deliver(&mut c, 0, &[0, 1, 2, 3]);
        // Per-sender FIFO holds (0 before 2, 1 before 3) but the interleaving differs.
        deliver(&mut c, 1, &[0, 2, 1, 3]);
        let t = c.finish();
        assert_eq!(t.out_of_fifo, 0);
        assert_eq!(t.out_of_total_order, 2);
        assert_eq!(t.failed, 2);

        let mut fifo_only = DeliveryCheck::new(2, 2, false);
        for _ in 0..4 {
            fifo_only.issue();
        }
        deliver(&mut fifo_only, 0, &[0, 1, 2, 3]);
        deliver(&mut fifo_only, 1, &[0, 2, 1, 3]);
        assert_eq!(fifo_only.finish().failed, 0);
    }

    #[test]
    fn wrong_source_is_a_failure() {
        let mut c = DeliveryCheck::new(1, 2, false);
        c.issue();
        c.issue();
        c.on_delivery(0, 0, Some(0));
        c.on_delivery(0, 0, Some(1)); // cast 1 belongs to sender 1
        assert_eq!(c.finish().failed, 1);
    }
}
