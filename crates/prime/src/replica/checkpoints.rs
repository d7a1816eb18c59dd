//! Checkpoints: signed attestations of the execution snapshot every
//! `checkpoint_interval` matrices, and the stable checkpoint (proven by
//! `f + 1` matching attestations) that log compaction and state transfer
//! are anchored on. An attestation signs the snapshot's transfer layout
//! ([`snapshot_digest`]), so a state-transfer manifest proves itself.

use super::io::{Io, Metric};
use super::StateHasher;
use crate::config;
use crate::msg::{CheckpointMsg, PrimeMsg};
use bytes::Bytes;
use spire_crypto::Digest;
use spire_sim::{Context, TraceKind, Wire};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// What a checkpoint attestation signs: the digest of a snapshot's
/// transfer layout, its length and then the digest of each
/// `STATE_CHUNK_BYTES` chunk ([`chunk_digests`]), which pins every byte.
pub(super) fn layout_digest(total_len: u64, chunk_digests: &[Digest]) -> Digest {
    let layout = (total_len, chunk_digests.to_vec()).to_wire(40 + 32 * chunk_digests.len());
    spire_crypto::digest(&layout.finish())
}

pub(super) fn chunk_digests(snapshot: &[u8]) -> Vec<Digest> {
    snapshot
        .chunks(config::STATE_CHUNK_BYTES)
        .map(spire_crypto::digest)
        .collect()
}

pub(super) fn snapshot_digest(snapshot: &[u8]) -> Digest {
    layout_digest(snapshot.len() as u64, &chunk_digests(snapshot))
}

#[derive(Default)]
pub(super) struct Checkpoints {
    votes: BTreeMap<u64, BTreeMap<u32, CheckpointMsg>>,
    /// `(seq, snapshot, proof)` of the latest stable checkpoint.
    pub(super) stable: Option<(u64, Bytes, Vec<CheckpointMsg>)>,
    /// The execution cover the stable checkpoint was taken at (read only
    /// once one exists).
    pub(super) stable_exec_cover: Vec<u64>,
    /// Our own snapshots awaiting stability.
    pending_snapshots: BTreeMap<u64, Bytes>,
}

impl Checkpoints {
    pub(super) fn take(&mut self, io: &mut Io, ctx: &mut Context<'_>, seq: u64, snapshot: Vec<u8>) {
        let digest = snapshot_digest(&snapshot);
        io.inspect(|rec| rec.push_checkpoint(seq, digest));
        io.count(ctx, Metric::SignOps, 1);
        let msg = CheckpointMsg::signed(io.me, seq, digest, &io.signer);
        self.votes
            .entry(seq)
            .or_default()
            .insert(io.me.0, msg.clone());
        // Cache our own snapshot so it is available once stable.
        self.pending_snapshots.insert(seq, Bytes::from(snapshot));
        io.broadcast(PrimeMsg::Checkpoint(msg).encode());
    }

    /// Returns the attestation's sequence if it was accepted.
    pub(super) fn on_checkpoint(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        msg: CheckpointMsg,
    ) -> Option<u64> {
        if !io.verify_checkpoint(ctx, &msg) {
            io.count(ctx, Metric::BadCkptSig, 1);
            return None;
        }
        let seq = msg.seq;
        self.votes
            .entry(seq)
            .or_default()
            .insert(msg.replica.0, msg);
        Some(seq)
    }

    /// Promotes our snapshot at `seq` to the stable checkpoint once `f + 1`
    /// attestations match it; returns whether it just became stable.
    pub(super) fn check_stable(
        &mut self,
        io: &Io,
        ctx: &mut Context<'_>,
        seq: u64,
        exec_cover: &[u64],
    ) -> bool {
        let (Some(votes), Some(snapshot)) =
            (self.votes.get(&seq), self.pending_snapshots.get(&seq))
        else {
            return false;
        };
        let my_digest = snapshot_digest(snapshot);
        let matching: Vec<CheckpointMsg> = votes
            .values()
            .filter(|v| v.digest == my_digest)
            .cloned()
            .collect();
        let already = self.stable.as_ref().map_or(0, |(s, _, _)| *s);
        if matching.len() < (io.cfg.f + 1) as usize || seq <= already {
            return false;
        }
        self.stable = Some((seq, snapshot.clone(), matching));
        self.stable_exec_cover = exec_cover.to_vec();
        io.count(ctx, Metric::CheckpointsStable, 1);
        ctx.trace(TraceKind::Checkpoint {
            replica: io.me.0,
            seq,
        });
        true
    }

    pub(super) fn compact(&mut self, stable_seq: u64) {
        self.votes.retain(|s, _| *s + 1 >= stable_seq);
        self.pending_snapshots.retain(|s, _| *s >= stable_seq);
    }

    pub(super) fn digest(&self, h: &mut StateHasher) {
        for (seq, votes) in &self.votes {
            h.all(votes.keys()).write_u64(*seq);
        }
        let stable = self.stable.as_ref();
        stable.map(|(seq, snapshot, _)| (seq, snapshot)).hash(h);
        h.all(self.pending_snapshots.keys());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ByzBehavior;
    use crate::config::ReplicaId;
    use crate::replica::io::testkit::{backend, io, run, sent, signer};

    /// As replica 0 of four (`f + 1 = 2`): our own attestation is not a
    /// proof, a peer's over a different snapshot or under the wrong key
    /// does not help, the first matching one makes the checkpoint stable —
    /// once — and its sequence is where compaction runs from.
    #[test]
    fn a_checkpoint_turns_stable_at_f_plus_one_matching_attestations() {
        let (mut io, mut ckpt, mut backend) = (
            io(0, ByzBehavior::Honest),
            Checkpoints::default(),
            backend(),
        );
        let snapshot = b"state after 20 matrices".to_vec();
        let digest = snapshot_digest(&snapshot);
        let cover = [7, 0, 3, 0];
        run(&mut backend, 0, |ctx| {
            ckpt.take(&mut io, ctx, 10, b"state after 10".to_vec());
            ckpt.take(&mut io, ctx, 20, snapshot.clone());
            assert!(!ckpt.check_stable(&io, ctx, 20, &cover), "ours alone");

            let elsewhere = spire_crypto::digest(b"a divergent replica's state");
            let divergent = CheckpointMsg::signed(ReplicaId(1), 20, elsewhere, &signer(1));
            assert_eq!(ckpt.on_checkpoint(&io, ctx, divergent), Some(20));
            let forged = CheckpointMsg::signed(ReplicaId(2), 20, digest, &signer(3));
            assert_eq!(ckpt.on_checkpoint(&io, ctx, forged), None);
            assert!(!ckpt.check_stable(&io, ctx, 20, &cover));
            assert!(ckpt.stable.is_none());

            let matching = CheckpointMsg::signed(ReplicaId(2), 20, digest, &signer(2));
            assert_eq!(ckpt.on_checkpoint(&io, ctx, matching), Some(20));
            assert!(ckpt.check_stable(&io, ctx, 20, &cover));
            assert!(!ckpt.check_stable(&io, ctx, 20, &cover), "stable once");
        });
        let (seq, held, proof) = ckpt.stable.as_ref().expect("stable");
        assert_eq!((*seq, &held[..]), (20, &snapshot[..]));
        let provers: Vec<u32> = proof.iter().map(|m| m.replica.0).collect();
        assert_eq!(
            provers,
            [0, 2],
            "the proof holds the matching attestations only"
        );
        assert_eq!(ckpt.stable_exec_cover, cover);
        assert_eq!(backend.counters.get("prime.checkpoints_stable"), Some(&1));
        assert_eq!(backend.counters.get("prime.bad_ckpt_sig"), Some(&1));

        // Compaction from the stable sequence drops what lies below it.
        ckpt.compact(20);
        assert_eq!(ckpt.pending_snapshots.keys().collect::<Vec<_>>(), [&20]);
        assert_eq!(ckpt.votes.keys().collect::<Vec<_>>(), [&20]);
        let attestations = sent(&mut backend, &mut io);
        assert_eq!(
            attestations.len(),
            6,
            "two attestations to each of three peers"
        );
    }
}
