//! Property-based transport tests: reliable delivery under arbitrary
//! loss/reorder patterns, for every congestion controller and mux policy.

use meshlayer_netsim::Packet;
use meshlayer_simcore::{SimDuration, SimTime};
use meshlayer_transport::{CcAlgo, Conn, ConnConfig, Delivered, MuxPolicy};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Run a lossy exchange: each a->b packet is dropped iff the next value of
/// `drops` says so (acks and retransmissions always get through — losing
/// them too only changes timing, and RTO handling is separately tested).
/// Timers fire whenever the exchange goes quiet.
fn lossy_exchange(
    a: &mut Conn,
    b: &mut Conn,
    msgs: &[(u64, u64)],
    mut drop_pattern: VecDeque<bool>,
) -> Vec<Delivered> {
    let owd = SimDuration::from_micros(100);
    let mut now = SimTime::ZERO;
    let mut to_b: Vec<Packet> = Vec::new();
    for &(id, len) in msgs {
        to_b.extend(a.send_message(id, len, now).packets);
    }
    let mut to_a: Vec<Packet> = Vec::new();
    let mut delivered = Vec::new();
    let mut first_pass = true;
    for _round in 0..200_000 {
        if to_b.is_empty() && to_a.is_empty() {
            // Quiescent: do what a driver does — jump to the armed timer's
            // fire time and deliver the timer event (drives RTO recovery).
            match a.timer_state() {
                Some((at, gen)) => {
                    now = now.max(at);
                    let o = a.on_timer(gen, now);
                    if o.packets.is_empty() {
                        break; // timer no longer relevant: done
                    }
                    to_b.extend(o.packets);
                }
                None => break, // truly done (or stuck: caught by assert below)
            }
        }
        now += owd;
        let mut next_a = Vec::new();
        let mut next_b = Vec::new();
        for p in to_b.drain(..) {
            let lose = first_pass && drop_pattern.pop_front().unwrap_or(false);
            if lose {
                continue;
            }
            let o = b.on_packet(&p, now);
            delivered.extend(o.delivered);
            next_a.extend(o.packets);
        }
        for p in to_a.drain(..) {
            let o = a.on_packet(&p, now);
            next_b.extend(o.packets);
        }
        if drop_pattern.is_empty() {
            first_pass = false;
        }
        to_a = next_a;
        to_b = next_b;
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message is delivered exactly once, with the right length,
    /// under arbitrary first-transmission loss.
    #[test]
    fn reliable_delivery_under_loss(
        lens in prop::collection::vec(1u64..60_000, 1..8),
        drops in prop::collection::vec(any::<bool>(), 0..64),
        algo_idx in 0usize..4,
        rr in any::<bool>(),
    ) {
        let algo = [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Ledbat, CcAlgo::TcpLp][algo_idx];
        let cfg = ConnConfig {
            cc: algo,
            mux: if rr { MuxPolicy::RoundRobin } else { MuxPolicy::Fifo },
            ..ConnConfig::default()
        };
        let mut a = Conn::new(9, 0, meshlayer_netsim::NodeId(0), meshlayer_netsim::NodeId(1), cfg.clone());
        let mut b = Conn::new(9, 1, meshlayer_netsim::NodeId(1), meshlayer_netsim::NodeId(0), cfg);
        let msgs: Vec<(u64, u64)> = lens.iter().enumerate().map(|(i, &l)| (i as u64 + 1, l)).collect();
        let delivered = lossy_exchange(&mut a, &mut b, &msgs, drops.into());
        prop_assert_eq!(delivered.len(), msgs.len(), "missing deliveries");
        let mut got: Vec<(u64, u64)> = delivered.iter().map(|d| (d.msg, d.len)).collect();
        got.sort_unstable();
        let mut want = msgs.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(b.stats().msgs_delivered, msgs.len() as u64);
        // Partial ACKs and retransmits still count each message as sent
        // exactly once, when its last segment is acknowledged.
        prop_assert_eq!(a.stats().msgs_sent, b.stats().msgs_delivered);
    }

    /// Reordering (reversing packet batches) never breaks reassembly.
    #[test]
    fn delivery_under_reordering(lens in prop::collection::vec(1u64..40_000, 1..6)) {
        let cfg = ConnConfig::default();
        let mut a = Conn::new(3, 0, meshlayer_netsim::NodeId(0), meshlayer_netsim::NodeId(1), cfg.clone());
        let mut b = Conn::new(3, 1, meshlayer_netsim::NodeId(1), meshlayer_netsim::NodeId(0), cfg);
        let mut now = SimTime::ZERO;
        let mut to_b: Vec<Packet> = Vec::new();
        for (i, &l) in lens.iter().enumerate() {
            to_b.extend(a.send_message(i as u64 + 1, l, now).packets);
        }
        let mut to_a: Vec<Packet> = Vec::new();
        let mut n_delivered = 0;
        for _ in 0..100_000 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            now += SimDuration::from_micros(100);
            // Reverse each batch: worst-case reordering within a window.
            to_b.reverse();
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            for p in to_b.drain(..) {
                let o = b.on_packet(&p, now);
                n_delivered += o.delivered.len();
                next_a.extend(o.packets);
            }
            for p in to_a.drain(..) {
                let o = a.on_packet(&p, now);
                next_b.extend(o.packets);
            }
            to_a = next_a;
            to_b = next_b;
        }
        prop_assert_eq!(n_delivered, lens.len());
        prop_assert_eq!(a.stats().msgs_sent, b.stats().msgs_delivered);
    }

    /// cwnd never goes below one MSS for any algorithm under any event mix.
    #[test]
    fn cwnd_floor(events in prop::collection::vec(0u8..3, 1..200), algo_idx in 0usize..4) {
        let algo = [CcAlgo::Reno, CcAlgo::Cubic, CcAlgo::Ledbat, CcAlgo::TcpLp][algo_idx];
        let mut cc = algo.build();
        let mut now = SimTime::ZERO;
        for e in events {
            now += SimDuration::from_millis(1);
            match e {
                0 => cc.on_ack(1448, SimDuration::from_millis(2), now),
                1 => cc.on_loss(now),
                _ => cc.on_timeout(now),
            }
            prop_assert!(cc.cwnd() >= meshlayer_transport::MSS, "{} cwnd {}", cc.name(), cc.cwnd());
        }
    }
}
