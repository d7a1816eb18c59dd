//! Schedules, stable message keys, and the JSON replay artifact.

use spire_sim::json::{parse, Json};

/// Content-addressed identity of a pending message, stable across replays
/// *and* across schedule edits.
///
/// A message is `(from, to, fnv64(bytes), nth)` where `nth` counts prior
/// emissions of the same `(from, to, digest)` triple over the cluster's
/// whole history. Replaying a schedule prefix regenerates exactly the same
/// keys, and — crucially for shrinking — a choice whose key no longer
/// names a pending message (because delta debugging removed the event that
/// produced it) degrades to a no-op instead of desynchronizing the replay.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgKey {
    /// Sender process id (replica index, or `n` for the injection client).
    pub from: u32,
    /// Destination replica index.
    pub to: u32,
    /// FNV-1a digest of the frame bytes.
    pub digest: u64,
    /// Which same-digest emission on this link (0-based).
    pub nth: u32,
}

/// One scheduled nondeterministic event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Deliver pre-signed client op `op` to its scenario-assigned replica.
    Inject { op: u32 },
    /// Deliver (and consume) a pending message.
    Deliver { key: MsgKey },
    /// Re-enqueue a copy of a pending message (duplication attack).
    Duplicate { key: MsgKey },
    /// Silently discard a pending message (loss / partition).
    Drop { key: MsgKey },
    /// Fire a pending timer; the virtual clock jumps to its due time.
    Fire { replica: u32, tag: u64 },
}

impl Choice {
    fn to_json(&self) -> Json {
        let keyed = |t: &str, key: &MsgKey| {
            Json::obj([
                ("t", Json::from(t)),
                ("from", key.from.into()),
                ("to", key.to.into()),
                ("digest", format!("{:016x}", key.digest).into()),
                ("nth", key.nth.into()),
            ])
        };
        match self {
            Choice::Inject { op } => Json::obj([("t", Json::from("inject")), ("op", (*op).into())]),
            Choice::Deliver { key } => keyed("deliver", key),
            Choice::Duplicate { key } => keyed("dup", key),
            Choice::Drop { key } => keyed("drop", key),
            Choice::Fire { replica, tag } => Json::obj([
                ("t", Json::from("fire")),
                ("replica", (*replica).into()),
                ("tag", (*tag).into()),
            ]),
        }
    }

    fn from_json(value: &Json) -> Result<Choice, String> {
        let tag = value
            .get("t")
            .and_then(Json::as_str)
            .ok_or("event missing \"t\"")?;
        let u32_field = |name: &str| -> Result<u32, String> {
            value
                .get(name)
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("event missing u32 field \"{name}\""))
        };
        let key = || -> Result<MsgKey, String> {
            let digest_hex = value
                .get("digest")
                .and_then(Json::as_str)
                .ok_or("event missing \"digest\"")?;
            let digest =
                u64::from_str_radix(digest_hex, 16).map_err(|e| format!("bad digest hex: {e}"))?;
            Ok(MsgKey {
                from: u32_field("from")?,
                to: u32_field("to")?,
                digest,
                nth: u32_field("nth")?,
            })
        };
        match tag {
            "inject" => Ok(Choice::Inject {
                op: u32_field("op")?,
            }),
            "deliver" => Ok(Choice::Deliver { key: key()? }),
            "dup" => Ok(Choice::Duplicate { key: key()? }),
            "drop" => Ok(Choice::Drop { key: key()? }),
            "fire" => Ok(Choice::Fire {
                replica: u32_field("replica")?,
                tag: value
                    .get("tag")
                    .and_then(Json::as_u64)
                    .ok_or("event missing \"tag\"")?,
            }),
            other => Err(format!("unknown event type \"{other}\"")),
        }
    }
}

/// A self-describing, deterministically replayable failure record.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Scenario name (behavior assignment), see [`crate::Scenario`].
    pub scenario: String,
    /// Prime `f` (Byzantine budget).
    pub f: u32,
    /// Prime `k` (recovering budget).
    pub k: u32,
    /// Number of pre-signed client ops available to `Inject`.
    pub ops: u32,
    /// The seed that produced the schedule (0 for exhaustive search).
    pub seed: u64,
    /// Whether the build carried the `seeded-commit-bug` feature; a replay
    /// must be run against the same build to reproduce.
    pub seeded_bug: bool,
    /// Violation kinds the schedule triggers.
    pub violations: Vec<String>,
    /// The (shrunken) schedule itself.
    pub events: Vec<Choice>,
}

impl Artifact {
    /// Serializes to the replay JSON document.
    pub fn to_json_string(&self) -> String {
        let violations = self.violations.iter().map(|v| Json::from(v.as_str()));
        Json::obj([
            ("version", Json::Num(1)),
            ("scenario", self.scenario.as_str().into()),
            ("f", self.f.into()),
            ("k", self.k.into()),
            ("ops", self.ops.into()),
            ("seed", self.seed.into()),
            ("seeded_bug", self.seeded_bug.into()),
            ("violations", Json::Arr(violations.collect())),
            (
                "events",
                Json::Arr(self.events.iter().map(Choice::to_json).collect()),
            ),
        ])
        .to_string()
    }

    /// Parses a replay JSON document.
    pub fn from_json_str(text: &str) -> Result<Artifact, String> {
        let doc = parse(text)?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("artifact missing \"version\"")?;
        if version != 1 {
            return Err(format!("unsupported artifact version {version}"));
        }
        let u32_field = |name: &str| -> Result<u32, String> {
            doc.get(name)
                .and_then(Json::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("artifact missing u32 field \"{name}\""))
        };
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("artifact missing \"events\"")?
            .iter()
            .map(Choice::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let violations = doc
            .get("violations")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect();
        Ok(Artifact {
            scenario: doc
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("artifact missing \"scenario\"")?
                .to_string(),
            f: u32_field("f")?,
            k: u32_field("k")?,
            ops: u32_field("ops")?,
            seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
            seeded_bug: doc
                .get("seeded_bug")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            violations,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_roundtrips() {
        let artifact = Artifact {
            scenario: "equivocating-leader".to_string(),
            f: 1,
            k: 0,
            ops: 2,
            seed: 0xDEAD_BEEF,
            seeded_bug: true,
            violations: vec!["conflicting-commit".to_string()],
            events: vec![
                Choice::Inject { op: 0 },
                Choice::Deliver {
                    key: MsgKey {
                        from: 1,
                        to: 2,
                        digest: u64::MAX,
                        nth: 3,
                    },
                },
                Choice::Duplicate {
                    key: MsgKey {
                        from: 0,
                        to: 1,
                        digest: 42,
                        nth: 0,
                    },
                },
                Choice::Drop {
                    key: MsgKey {
                        from: 2,
                        to: 0,
                        digest: 7,
                        nth: 1,
                    },
                },
                Choice::Fire { replica: 3, tag: 5 },
            ],
        };
        let text = artifact.to_json_string();
        assert_eq!(Artifact::from_json_str(&text).unwrap(), artifact);
    }
}
