//! The offline proof dump: what `fig_proofs` exports and `tdb-doctor
//! verify-proof` checks. A JSON object with exactly four keys — `v` (the
//! dump version), and `proof`, `anchor`, `value` as hex of the stable
//! binary encodings in [`tdb::proof::wire`] — so dumps stay greppable and
//! diffable. Parsing goes through the strict [`Json`] parser and then
//! insists on that exact shape: a document that merely *contains*
//! something that looks like a dump is not one.

use tdb::proof::wire::{
    decode_chunk_proof, decode_trust_anchor, encode_chunk_proof, encode_trust_anchor, from_hex,
    to_hex,
};
use tdb::proof::{ChunkOutcome, ChunkProof, TrustAnchor};
use tdb_obs::Json;

const DUMP_VERSION: u64 = 1;

/// A parsed proof dump.
pub struct ProofDump {
    /// The chunk proof.
    pub proof: ChunkProof,
    /// The verifier's trust anchor.
    pub anchor: TrustAnchor,
    /// The plaintext value (`None` for non-membership dumps).
    pub value: Option<Vec<u8>>,
}

/// Serialize a proof + anchor (+ plaintext value for inclusion proofs)
/// into the offline dump checked by `tdb-doctor verify-proof`.
pub fn dump_json(proof: &ChunkProof, anchor: &TrustAnchor, value: Option<&[u8]>) -> String {
    let mut doc = Json::obj();
    doc.push("v", DUMP_VERSION);
    doc.push("proof", to_hex(&encode_chunk_proof(proof)));
    doc.push("anchor", to_hex(&encode_trust_anchor(anchor)));
    doc.push("value", to_hex(value.unwrap_or(&[])));
    doc.pretty()
}

/// Parse [`dump_json`] output.
pub fn parse_dump_json(text: &str) -> Result<ProofDump, String> {
    let doc = Json::parse(text)?;
    let pairs = doc.as_obj().ok_or("dump is not a JSON object")?;
    let field = |key: &str| -> Result<&Json, String> {
        let mut found = pairs.iter().filter(|(k, _)| k == key);
        match (found.next(), found.next()) {
            (Some((_, value)), None) => Ok(value),
            (None, _) => Err(format!("dump is missing \"{key}\"")),
            (Some(_), Some(_)) => Err(format!("dump repeats \"{key}\"")),
        }
    };
    let blob = |key: &str| -> Result<Vec<u8>, String> {
        let hex = field(key)?
            .as_str()
            .ok_or_else(|| format!("\"{key}\" is not a string"))?;
        from_hex(hex).map_err(|e| format!("\"{key}\": {e}"))
    };
    if field("v")?.as_u64() != Some(DUMP_VERSION) {
        return Err(format!("dump version is not {DUMP_VERSION}"));
    }
    let proof = decode_chunk_proof(&blob("proof")?).map_err(|e| e.to_string())?;
    let anchor = decode_trust_anchor(&blob("anchor")?).map_err(|e| e.to_string())?;
    let value = blob("value")?;
    // All four keys are present exactly once, so any further pair is a
    // key the format does not have.
    if pairs.len() != 4 {
        return Err("dump has keys other than v, proof, anchor, value".into());
    }
    let value = match (&proof.outcome, value) {
        (ChunkOutcome::Absent, v) if v.is_empty() => None,
        (_, v) => Some(v),
    };
    Ok(ProofDump {
        proof,
        anchor,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_chunk_store;
    use chunk_store::{ChunkId, ChunkStoreConfig, Durability};
    use tdb::proof::Verifier;

    /// A real inclusion proof, a real absence proof, and their anchor.
    fn minted() -> (ChunkProof, ChunkProof, TrustAnchor) {
        let store = bench_chunk_store(ChunkStoreConfig::small_for_tests());
        let mut batch = store.begin_batch();
        let id = batch.allocate_chunk_id().unwrap();
        batch.write(id, b"hello").unwrap();
        store.commit_batch(batch, Durability::Durable).unwrap();
        let present = store.read_proven(id).unwrap().prove().unwrap();
        let absent = store.read_proven(ChunkId(999)).unwrap().prove().unwrap();
        (present, absent, store.trust_anchor().unwrap())
    }

    #[test]
    fn dump_roundtrips_and_still_verifies() {
        let (present, absent, anchor) = minted();
        let d = parse_dump_json(&dump_json(&present, &anchor, Some(b"hello"))).unwrap();
        assert_eq!(d.proof, present);
        assert_eq!(d.anchor, anchor);
        assert_eq!(d.value.as_deref(), Some(&b"hello"[..]));
        Verifier::new(d.anchor)
            .verify_chunk(&d.proof, d.value.as_deref())
            .unwrap();

        let d = parse_dump_json(&dump_json(&absent, &anchor, None)).unwrap();
        assert_eq!(d.proof.outcome, ChunkOutcome::Absent);
        assert!(d.value.is_none());
    }

    #[test]
    fn anything_but_the_exact_shape_is_rejected() {
        let (present, _, anchor) = minted();
        let good = dump_json(&present, &anchor, Some(b"hello"));
        parse_dump_json(&good).unwrap();
        let proof_line = good
            .lines()
            .find(|l| l.trim_start().starts_with("\"proof\""))
            .unwrap();

        // A key given twice: which one counts must not be the parser's call.
        let repeated = good.replacen("{\n", &format!("{{\n{proof_line}\n"), 1);
        assert!(parse_dump_json(&repeated)
            .err()
            .unwrap()
            .contains("repeats"));
        // A decoy dump inside another string, with the real keys absent...
        let decoy = format!("{{\"note\": {:?}}}", good);
        assert!(parse_dump_json(&decoy).err().unwrap().contains("missing"));
        // ...or alongside them.
        let extra = good.replacen("{\n", "{\n  \"note\": \"\\\"proof\\\": \\\"00\\\"\",\n", 1);
        assert!(parse_dump_json(&extra)
            .err()
            .unwrap()
            .contains("other than"));
        // Trailing garbage after the object.
        assert!(parse_dump_json(&format!("{good} {{}}")).is_err());
        assert!(parse_dump_json(&format!("{good}x")).is_err());

        assert!(parse_dump_json("{}").is_err());
        assert!(parse_dump_json("[]").is_err());
        assert!(parse_dump_json(&good.replace("\"v\": 1", "\"v\": 2")).is_err());
        assert!(parse_dump_json(&good.replace(proof_line, "  \"proof\": \"zz\",")).is_err());
        assert!(parse_dump_json(&good.replace(proof_line, "  \"proof\": 7,")).is_err());
    }
}
