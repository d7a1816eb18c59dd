//! Property-based tests of Prime's data structures: codec roundtrips,
//! matrix cover-quorum math, and application determinism.

use bytes::Bytes;
use proptest::prelude::*;
use spire_prime::msg::{AruVector, Matrix, SummaryRow};
use spire_prime::{Application, ClientId, ClientOp, HashChainApp, PrimeMsg, ReplicaId};

fn arb_client_op() -> impl Strategy<Value = ClientOp> {
    (
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..64),
        any::<[u8; 32]>(),
    )
        .prop_map(|(client, cseq, payload, sig_half)| {
            let mut sig = [0u8; 64];
            sig[..32].copy_from_slice(&sig_half);
            sig[32..].copy_from_slice(&sig_half);
            ClientOp {
                client: ClientId(client),
                cseq,
                payload: Bytes::from(payload),
                sig,
            }
        })
}

fn arb_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(0u64..1000, n)),
        0..=n,
    )
    .prop_map(|rows| Matrix {
        rows: rows
            .into_iter()
            .enumerate()
            .map(|(i, (sseq, vector))| SummaryRow {
                replica: ReplicaId(i as u32),
                sseq,
                vector: AruVector(vector),
                sig: [0; 64],
            })
            .collect(),
    })
}

/// Reference implementation of the cover quorum: the largest `v` such that
/// at least `quorum` rows report `>= v` for the column.
fn covered_aru_naive(matrix: &Matrix, origin: usize, quorum: usize) -> u64 {
    if quorum == 0 || matrix.rows.len() < quorum {
        return 0;
    }
    let max = matrix
        .rows
        .iter()
        .map(|r| r.vector.0.get(origin).copied().unwrap_or(0))
        .max()
        .unwrap_or(0);
    (0..=max)
        .rfind(|v| {
            matrix
                .rows
                .iter()
                .filter(|r| r.vector.0.get(origin).copied().unwrap_or(0) >= *v)
                .count()
                >= quorum
        })
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn client_op_inside_po_request_roundtrips(ops in proptest::collection::vec(arb_client_op(), 0..8)) {
        let msg = PrimeMsg::PoRequest {
            origin: ReplicaId(3),
            po_seq: 99,
            ops,
            sig: [5; 64],
        };
        prop_assert_eq!(PrimeMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = PrimeMsg::decode(&bytes);
    }

    #[test]
    fn covered_aru_matches_reference(matrix in arb_matrix(6), origin in 0usize..7, quorum in 0usize..8) {
        prop_assert_eq!(
            matrix.covered_aru(origin, quorum),
            covered_aru_naive(&matrix, origin, quorum)
        );
    }

    #[test]
    fn covered_aru_monotone_in_quorum(matrix in arb_matrix(6), origin in 0usize..6) {
        // A stricter quorum can only lower the covered value.
        let mut last = u64::MAX;
        for quorum in 1..=6usize {
            let v = matrix.covered_aru(origin, quorum);
            prop_assert!(v <= last);
            last = v;
        }
    }

    #[test]
    fn hash_chain_app_determinism(ops in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..32), 0..64)) {
        let mut a = HashChainApp::new();
        let mut b = HashChainApp::new();
        for op in &ops {
            let ra = a.execute(op);
            let rb = b.execute(op);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.digest(), b.digest());
        // Snapshots restore to the identical state.
        let mut c = HashChainApp::new();
        c.restore(&a.snapshot()).unwrap();
        prop_assert_eq!(c.digest(), a.digest());
    }

    #[test]
    fn matrix_digest_is_content_addressed(m1 in arb_matrix(4), m2 in arb_matrix(4)) {
        if m1 == m2 {
            prop_assert_eq!(m1.digest(), m2.digest());
        } else {
            prop_assert_ne!(m1.digest(), m2.digest());
        }
    }
}

mod cseq_window {
    use proptest::prelude::*;
    use spire_prime::replica::CseqWindow;
    use spire_sim::Wire;

    proptest! {
        #[test]
        fn marks_each_number_exactly_once(order in proptest::collection::vec(1u64..60, 1..120)) {
            let mut window = CseqWindow::default();
            let mut reference = std::collections::BTreeSet::new();
            for c in order {
                let fresh = reference.insert(c);
                prop_assert_eq!(window.try_mark(c), fresh, "cseq {}", c);
            }
            // Floor is the largest contiguous prefix.
            let mut floor = 0;
            while reference.contains(&(floor + 1)) {
                floor += 1;
            }
            prop_assert_eq!(window.floor(), floor);
        }

        #[test]
        fn snapshot_roundtrip(marks in proptest::collection::btree_set(1u64..100, 0..40)) {
            let mut window = CseqWindow::default();
            for c in &marks {
                window.try_mark(*c);
            }
            let rebuilt = CseqWindow::decode_all(window.to_wire(0).as_slice()).unwrap();
            prop_assert_eq!(&rebuilt, &window);
            // A rebuilt window rejects exactly the same numbers.
            let mut a = window.clone();
            let mut b = rebuilt;
            for c in 1..100u64 {
                prop_assert_eq!(a.try_mark(c), b.try_mark(c));
            }
        }
    }

    #[test]
    fn out_of_order_overtake_is_not_a_duplicate() {
        // The regression that motivated the windowed design: op 2 executes
        // before op 1 (network overtake); op 1 must still execute.
        let mut window = CseqWindow::default();
        assert!(window.try_mark(2));
        assert!(window.try_mark(1), "op 1 wrongly treated as duplicate");
        assert!(!window.try_mark(1));
        assert!(!window.try_mark(2));
        assert_eq!(window.floor(), 2);
    }
}

mod view_change_plan {
    use spire_prime::msg::{AruVector, Matrix, PreparedClaim, SummaryRow, ViewStateMsg};
    use spire_prime::replica::plan_new_view;
    use spire_prime::ReplicaId;

    fn state(replica: u32, last_committed: u64, prepared: Option<(u64, u64)>) -> ViewStateMsg {
        ViewStateMsg {
            replica: ReplicaId(replica),
            view: 5,
            last_committed,
            prepared: prepared
                .into_iter()
                .map(|(view, seq)| PreparedClaim {
                    view,
                    seq,
                    matrix: Matrix {
                        rows: vec![SummaryRow {
                            replica: ReplicaId(replica),
                            sseq: view, // marker to identify which claim won
                            vector: AruVector(vec![seq]),
                            sig: [0; 64],
                        }],
                    },
                })
                .collect(),
            sig: [0; 64],
        }
    }

    #[test]
    fn no_prepared_claims_means_no_reproposals() {
        let (base, plan) = plan_new_view(&[state(0, 7, None), state(1, 9, None)]);
        assert_eq!(base, 9);
        assert!(plan.is_empty());
    }

    #[test]
    fn prepared_above_base_is_reproposed() {
        let (base, plan) = plan_new_view(&[
            state(0, 10, Some((2, 12))),
            state(1, 10, None),
            state(2, 9, None),
        ]);
        assert_eq!(base, 10);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].0, 11);
        assert!(plan[0].1.rows.is_empty(), "hole filled with a no-op");
        assert_eq!(plan[1].0, 12);
        assert_eq!(plan[1].1.rows.len(), 1);
    }

    #[test]
    fn highest_view_claim_wins_per_sequence() {
        let (_, plan) = plan_new_view(&[
            state(0, 10, Some((3, 11))),
            state(1, 10, Some((4, 11))),
            state(2, 10, Some((2, 11))),
        ]);
        assert_eq!(plan.len(), 1);
        // The marker sseq equals the winning claim's view.
        assert_eq!(plan[0].1.rows[0].sseq, 4);
    }

    #[test]
    fn prepared_at_or_below_base_is_dropped() {
        // A claim already covered by someone's committed prefix must not be
        // re-proposed (it would re-execute).
        let (base, plan) = plan_new_view(&[
            state(0, 12, None),
            state(1, 10, Some((3, 12))),
            state(2, 10, Some((3, 11))),
        ]);
        assert_eq!(base, 12);
        assert!(plan.is_empty());
    }

    #[test]
    fn every_reported_claim_is_reproposed_not_just_the_highest() {
        // Pipelined ordering leaves several prepared sequences in flight at
        // once. A lower one may already have committed at a replica outside
        // the state quorum, so the plan must carry every reported claim —
        // reporting/planning only the top one is how the explorer's
        // conflicting-commit artifact broke an earlier revision.
        let mut s = state(0, 10, Some((3, 13)));
        let low = state(0, 10, Some((3, 11)));
        s.prepared.extend(low.prepared.clone());
        let (base, plan) = plan_new_view(&[s, state(1, 10, None), state(2, 10, None)]);
        assert_eq!(base, 10);
        assert_eq!(plan.len(), 3);
        assert_eq!((plan[0].0, plan[1].0, plan[2].0), (11, 12, 13));
        assert_eq!(plan[0].1.rows.len(), 1, "low claim carried");
        assert!(plan[1].1.rows.is_empty(), "hole filled with a no-op");
        assert_eq!(plan[2].1.rows.len(), 1, "high claim carried");
    }

    #[test]
    fn plan_is_deterministic_under_reordering() {
        let a = [
            state(0, 10, Some((3, 12))),
            state(1, 11, Some((2, 13))),
            state(2, 9, None),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(plan_new_view(&a), plan_new_view(&b));
    }
}
